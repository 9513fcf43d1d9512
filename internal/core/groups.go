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
	"slices"
	"strings"

	"corroborate/internal/score"
	"corroborate/internal/truth"
)

// group is a fact group (§5.1): the set of unevaluated facts sharing one
// exact vote signature. Facts in a group always receive the same
// corroboration result, because Corrob only looks at votes.
type group struct {
	signature string
	votes     []truth.SourceVote // the shared posting list
	facts     []int              // remaining (unevaluated) member facts, ascending
	// ord is the group's stable position: first appearance in
	// buildGroups, signature order after sortBySignature. Compaction
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

// buildGroups partitions all facts of the dataset into vote-signature
// groups, numbered in order of first appearance: a group's ordinal is the
// number of distinct signatures among the facts before its first member.
// Facts without any vote form their own group (empty signature) and
// corroborate to 0.5. Member lists share one backing array.
func buildGroups(d *truth.Dataset) []*group {
	nf := d.NumFacts()
	bySig := make(map[string]int32)
	ordOf := make([]int32, nf)
	var sigs []string
	buf := make([]byte, 0, 64)
	for f := 0; f < nf; f++ {
		buf = d.AppendSignature(buf[:0], f)
		// The map lookup on string(buf) does not allocate; only a newly
		// discovered signature pays for the string conversion.
		o, ok := bySig[string(buf)]
		if !ok {
			o = int32(len(sigs))
			sigs = append(sigs, string(buf))
			bySig[sigs[o]] = o
		}
		ordOf[f] = o
	}
	// A counting sort of the facts by ordinal lays every member list,
	// ascending, into one backing array.
	starts := make([]int, len(sigs)+1)
	for _, o := range ordOf {
		starts[o+1]++
	}
	for o := range sigs {
		starts[o+1] += starts[o]
	}
	members := make([]int, nf)
	groups := make([]group, len(sigs))
	out := make([]*group, len(sigs))
	for o, sig := range sigs {
		g := &groups[o]
		g.signature, g.ord = sig, o
		g.facts = members[starts[o]:starts[o]:starts[o+1]]
		out[o] = g
	}
	for f, o := range ordOf {
		g := &groups[o]
		if len(g.facts) == 0 {
			g.votes = d.VotesOnFact(f)
		}
		g.facts = append(g.facts, f)
	}
	return out
}

// sortBySignature orders groups by signature and renumbers their ordinals
// to match. IncEstimate's lazy ∆H engine depends on ascending signature
// ordinals to reproduce the reference implementation's accumulation order.
func sortBySignature(groups []*group) []*group {
	slices.SortFunc(groups, func(a, b *group) int { return strings.Compare(a.signature, b.signature) })
	for i, g := range groups {
		g.ord = i
	}
	return groups
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
