// Package core implements the paper's contribution: the IncEstimate
// incremental corroboration algorithm (Wu & Marian, EDBT 2014, §4–5) with a
// multi-value trust score per source. Instead of computing one global trust
// value and applying it to all facts at once, IncEstimate repeatedly selects
// a batch of unevaluated facts, corroborates them with the trust values
// current at that time point, and folds the (normalized) outcomes back into
// the trust estimates. The sequence of per-time-point trust vectors is the
// multi-value trust score of Definition 1.
//
// Two fact-selection strategies are provided: IncEstHeu, the entropy-driven
// heuristic of Algorithm 2 (select the positive and the negative fact group
// with the highest projected entropy gain ∆H(F̄), Eq. 9, in balanced
// numbers), and IncEstPS, the naive greedy strategy that always evaluates
// the group with the highest probability (§6.1.1).
package core

import (
	"cmp"
	"slices"

	"corroborate/internal/score"
	"corroborate/internal/truth"
)

// group is a fact group (§5.1): the set of unevaluated facts sharing one
// posting list — the exact (source, vote) pairs their vote signature
// prints. Facts in a group always receive the same corroboration result,
// because Corrob only looks at votes.
type group struct {
	votes []truth.SourceVote // the shared posting list, ascending by source
	facts []int              // remaining (unevaluated) member facts, ascending
	// ord is the group's stable position: first appearance in
	// groupPostings, signature order after sortBySignature. Compaction
	// preserves relative order, so iterating live groups always visits
	// ascending ordinals — the invariant the incremental ∆H engine relies
	// on to accumulate floating-point sums in exactly the order of the
	// reference implementation.
	ord int
}

// size returns the number of unevaluated facts left in the group.
func (g *group) size() int { return len(g.facts) }

// prob is the group's corroborated probability under the given trust
// vector (Eq. 5 generalized to F votes).
func (g *group) prob(trust []float64) float64 {
	return score.Corrob(g.votes, trust)
}

// signature renders the group's vote signature in Dataset.Signature's
// text. Groups are keyed by their posting lists, so the string is built
// only where one is printed: fault-injection keys and panic errors.
func (g *group) signature() string {
	return string(truth.AppendSignature(nil, g.votes))
}

// buildGroups partitions all facts of the dataset into posting-list
// groups, numbered in order of first appearance. Facts without any vote
// form their own group (empty posting list) and corroborate to 0.5.
func buildGroups(d *truth.Dataset) []*group {
	return groupPostings(d.NumFacts(), d.VotesOnFact, hashPostings)
}

// groupPostings partitions facts 0..n-1 by their posting lists votesOf(f),
// numbered in order of first appearance: a group's ordinal is the number of
// distinct lists among the facts before its first member. Lists are
// bucketed by hash in an open-addressing table, sized to the groups found
// so far, and every hash hit is confirmed with slices.Equal, so colliding
// lists still form distinct groups. A group's posting list is its first member's; member lists share
// one backing array.
func groupPostings(n int, votesOf func(int) []truth.SourceVote, hash func([]truth.SourceVote) uint64) []*group {
	slots := make([]int32, 16) // group ordinal + 1; 0 is an empty slot
	ordOf := make([]int32, n)
	var firsts []int32  // by ordinal: the group's first member
	var hashes []uint64 // by ordinal: its posting list's hash
	for f := 0; f < n; f++ {
		if 2*(len(firsts)+1) > len(slots) {
			// Keep the table at most half full: double it and re-slot
			// every group by its stored hash.
			slots = make([]int32, 2*len(slots))
			mask := uint64(len(slots) - 1)
			for o, h := range hashes {
				i := h & mask
				for slots[i] != 0 {
					i = (i + 1) & mask
				}
				slots[i] = int32(o) + 1
			}
		}
		mask := uint64(len(slots) - 1)
		list := votesOf(f)
		h := hash(list)
		i := h & mask
		for slots[i] != 0 {
			o := slots[i] - 1
			if hashes[o] == h && slices.Equal(votesOf(int(firsts[o])), list) {
				break
			}
			i = (i + 1) & mask
		}
		if slots[i] == 0 { // a new posting list
			slots[i] = int32(len(firsts)) + 1
			firsts = append(firsts, int32(f))
			hashes = append(hashes, h)
		}
		ordOf[f] = slots[i] - 1
	}
	// A counting sort of the facts by ordinal lays every member list,
	// ascending, into one backing array.
	starts := make([]int, len(firsts)+1)
	for _, o := range ordOf {
		starts[o+1]++
	}
	for o := range firsts {
		starts[o+1] += starts[o]
	}
	members := make([]int, n)
	groups := make([]group, len(firsts))
	out := make([]*group, len(firsts))
	for o, f := range firsts {
		g := &groups[o]
		g.votes, g.ord = votesOf(int(f)), o
		g.facts = members[starts[o]:starts[o]:starts[o+1]]
		out[o] = g
	}
	for f, o := range ordOf {
		groups[o].facts = append(groups[o].facts, f)
	}
	return out
}

// hashPostings hashes a posting list FNV-1a style, one xor-multiply step
// per (source, vote) pair, and folds the high half into the low bits that
// index the group table.
func hashPostings(votes []truth.SourceVote) uint64 {
	h := uint64(14695981039346656037)
	for _, sv := range votes {
		h ^= uint64(sv.Source)<<8 | uint64(uint8(sv.Vote))
		h *= 1099511628211
	}
	return h ^ h>>32
}

// sortBySignature orders groups by signature and renumbers their ordinals
// to match. IncEstimate's lazy ∆H engine depends on ascending signature
// ordinals to reproduce the reference implementation's accumulation order.
func sortBySignature(groups []*group) []*group {
	slices.SortFunc(groups, func(a, b *group) int { return comparePostings(a.votes, b.votes) })
	for i, g := range groups {
		g.ord = i
	}
	return groups
}

// comparePostings orders posting lists exactly as strings.Compare orders
// their signatures, without building them. A signature is its tokens
// "<source>:T" or "<source>:F" joined by spaces. No token's text is a
// proper prefix of another's (every token ends in ":T" or ":F"), so two
// signatures first differ inside their first unequal tokens, where
// compareTokens decides; if every shared token is equal, the shorter
// signature is a prefix of the longer and sorts first. Posting lists hold
// only T and F votes.
func comparePostings(a, b []truth.SourceVote) int {
	for i := range min(len(a), len(b)) {
		if c := compareTokens(a[i], b[i]); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(a), len(b))
}

// compareTokens orders two (source, vote) tokens by the bytes of their
// text: equal sources share the "<source>:" prefix and 'F' sorts before
// 'T'; otherwise compareDecimal decides.
func compareTokens(x, y truth.SourceVote) int {
	switch {
	case x.Source != y.Source:
		return compareDecimal(uint64(x.Source), uint64(y.Source))
	case x.Vote == y.Vote:
		return 0
	case x.Vote == truth.Deny:
		return -1
	}
	return 1
}

// postingKey packs the start of a posting list's signature into sixteen
// nibbles, most significant first: each digit d of a source ID as d+1, the
// token's ":F" or ":T" as 11 or 12, and 0 past the list's end. The spaces
// between tokens carry no order, as two signatures line up token for token
// until their first unequal token, so keys that differ order exactly as
// strings.Compare orders the signatures; equal keys leave the order to
// comparePostings.
func postingKey(votes []truth.SourceVote) uint64 {
	var key uint64
	n := 0 // nibbles packed
	for _, sv := range votes {
		var digits [20]uint64 // the source ID's digit nibbles, least significant first
		d := 0
		for src := uint64(sv.Source); ; src /= 10 {
			digits[d] = src%10 + 1
			d++
			if src < 10 {
				break
			}
		}
		for d > 0 {
			if n == 16 {
				return key
			}
			d--
			key = key<<4 | digits[d]
			n++
		}
		if n == 16 {
			return key
		}
		term := uint64(12)
		if sv.Vote == truth.Deny {
			term = 11
		}
		key = key<<4 | term
		n++
	}
	return key << (4 * (16 - n))
}

// pow10 holds the powers of ten that fit a uint64.
var pow10 = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// decimalDigits returns the number of decimal digits of x.
func decimalDigits(x uint64) int {
	n := 1
	for n < len(pow10) && x >= pow10[n] {
		n++
	}
	return n
}

// compareDecimal orders two distinct integers by the bytes of their
// decimal text followed by ':'. Numbers of equal length compare
// numerically; otherwise the longer number's leading digits compare with
// the shorter one, and if those are equal the shorter number sorts last,
// because ':' sorts after every digit ("1:T" > "12:T").
func compareDecimal(a, b uint64) int {
	da, db := decimalDigits(a), decimalDigits(b)
	switch {
	case da < db:
		if c := cmp.Compare(a, b/pow10[db-da]); c != 0 {
			return c
		}
		return 1
	case da > db:
		if c := cmp.Compare(a/pow10[da-db], b); c != 0 {
			return c
		}
		return -1
	}
	return cmp.Compare(a, b)
}

// take removes and returns the first n facts of the group (ascending fact
// order keeps runs deterministic).
func (g *group) take(n int) []int {
	if n > len(g.facts) {
		n = len(g.facts)
	}
	taken := g.facts[:n]
	g.facts = g.facts[n:]
	return taken
}

// conflicted reports whether the group's signature carries an F vote.
func (g *group) conflicted() bool {
	for _, sv := range g.votes {
		if sv.Vote == truth.Deny {
			return true
		}
	}
	return false
}

// backedByPositive reports whether any affirming source of the group is
// currently a positive source (trust above 0.5).
func (g *group) backedByPositive(trust []float64) bool {
	for _, sv := range g.votes {
		if sv.Vote == truth.Affirm && trust[sv.Source] > 0.5 {
			return true
		}
	}
	return false
}
