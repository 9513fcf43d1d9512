package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"

	"corroborate/internal/truth"
)

// buildGroupsBySignature is the string-keyed grouping that groupPostings
// replaced, kept as its oracle: facts are keyed by their Dataset.Signature
// text in a map and groups numbered in order of first appearance. It
// returns each group's signature alongside.
func buildGroupsBySignature(d *truth.Dataset) ([]*group, []string) {
	nf := d.NumFacts()
	bySig := make(map[string]int32)
	ordOf := make([]int32, nf)
	var sigs []string
	buf := make([]byte, 0, 64)
	for f := 0; f < nf; f++ {
		buf = d.AppendSignature(buf[:0], f)
		o, ok := bySig[string(buf)]
		if !ok {
			o = int32(len(sigs))
			sigs = append(sigs, string(buf))
			bySig[sigs[o]] = o
		}
		ordOf[f] = o
	}
	groups := make([]*group, len(sigs))
	for o := range sigs {
		groups[o] = &group{ord: o}
	}
	for f, o := range ordOf {
		g := groups[o]
		if len(g.facts) == 0 {
			g.votes = d.VotesOnFact(f)
		}
		g.facts = append(g.facts, f)
	}
	return groups, sigs
}

// sortBySignatureText is the string sort sortBySignature replaced: groups
// ordered by strings.Compare on their signatures, ordinals renumbered.
func sortBySignatureText(groups []*group, sigs []string) {
	idx := make([]int, len(groups))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int { return strings.Compare(sigs[a], sigs[b]) })
	sorted := make([]*group, len(groups))
	for i, j := range idx {
		sorted[i] = groups[j]
		sorted[i].ord = i
	}
	copy(groups, sorted)
}

// requireGroupsEqual asserts two groupings agree position by position on
// ordinal, member list and posting list.
func requireGroupsEqual(t *testing.T, label string, got, want []*group) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d groups, oracle %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.ord != w.ord {
			t.Fatalf("%s: group %d has ordinal %d, oracle %d", label, i, g.ord, w.ord)
		}
		if !slices.Equal(g.facts, w.facts) {
			t.Fatalf("%s: group %d members %v, oracle %v", label, i, g.facts, w.facts)
		}
		if !slices.Equal(g.votes, w.votes) {
			t.Fatalf("%s: group %d posting list %v, oracle %v", label, i, g.votes, w.votes)
		}
	}
}

// TestGroupPostingsMatchesSignatureOracle: on random datasets — with up
// to 25 sources, so one- and two-digit source IDs meet in the signature
// order, and with vote-less facts — the posting-list grouping yields the
// oracle's ordinals, member lists and posting lists, both in order of
// first appearance and after sortBySignature. The constant and two-bit
// hashes force every fact through the collision path, where only
// slices.Equal tells lists apart.
func TestGroupPostingsMatchesSignatureOracle(t *testing.T) {
	for _, h := range []struct {
		name string
		hash func([]truth.SourceVote) uint64
	}{
		{"fnv", hashPostings},
		{"constant", func([]truth.SourceVote) uint64 { return 7 }},
		{"two-bit", func(v []truth.SourceVote) uint64 { return hashPostings(v) & 3 }},
	} {
		for seed := uint64(1); seed <= 12; seed++ {
			sources := 1 + int(seed*7%25)
			d := randomDataset(seed, sources, 40+int(seed*31%200))
			label := fmt.Sprintf("%s seed=%d sources=%d", h.name, seed, sources)

			want, sigs := buildGroupsBySignature(d)
			got := groupPostings(d.NumFacts(), d.VotesOnFact, h.hash)
			requireGroupsEqual(t, label, got, want)

			sortBySignatureText(want, sigs)
			requireGroupsEqual(t, label+" sorted", sortBySignature(got), want)
		}
	}
}

// decodePostings draws a posting list from fuzz bytes, three per token:
// a source ID of one to four digits and a T or F vote.
func decodePostings(data []byte) []truth.SourceVote {
	var votes []truth.SourceVote
	for ; len(data) >= 3; data = data[3:] {
		vote := truth.Affirm
		if data[2]&1 == 1 {
			vote = truth.Deny
		}
		votes = append(votes, truth.SourceVote{Source: (int(data[0])<<8 | int(data[1])) % 10000, Vote: vote})
	}
	return votes
}

// token encodes one fuzz token for the seed corpus.
func token(source int, vote truth.Vote) []byte {
	b := byte(0)
	if vote == truth.Deny {
		b = 1
	}
	return []byte{byte(source >> 8), byte(source), b}
}

// FuzzSignatureOrder: comparePostings orders any two posting lists as
// strings.Compare orders their signature text (Dataset.Signature's
// format), and postingKey agrees with that order wherever two keys differ.
func FuzzSignatureOrder(f *testing.F) {
	T, F := truth.Affirm, truth.Deny
	seeds := [][2][]byte{
		{token(1, T), token(12, T)},                             // "1:T" vs "12:T": ':' sorts after '2'
		{slices.Concat(token(1, T), token(2, T)), token(12, T)}, // "1:T 2:T" vs "12:T"
		{token(1, F), token(1, T)},                              // vote order
		{token(9, T), token(10, T)},                             // numeric vs text order
		{token(123, T), token(1234, F)},                         // three vs four digits
		{slices.Concat(token(3, T), token(4, F)), token(3, T)},  // prefix list sorts first
		{nil, token(0, T)},                                      // empty list
		{slices.Concat(token(1, T), token(23, F), token(4567, T)), slices.Concat(token(1, T), token(23, F), token(456, T))},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
		f.Add(s[1], s[0])
	}
	f.Fuzz(func(t *testing.T, rawA, rawB []byte) {
		a, b := decodePostings(rawA), decodePostings(rawB)
		sigA := string(truth.AppendSignature(nil, a))
		sigB := string(truth.AppendSignature(nil, b))
		want := strings.Compare(sigA, sigB)
		if got := comparePostings(a, b); got != want {
			t.Fatalf("comparePostings(%q, %q) = %d, strings.Compare = %d", sigA, sigB, got, want)
		}
		if ka, kb := postingKey(a), postingKey(b); ka != kb && cmp.Compare(ka, kb) != want {
			t.Fatalf("postingKey orders %q, %q as %d, strings.Compare as %d", sigA, sigB, cmp.Compare(ka, kb), want)
		}
	})
}
