package truth

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Builder accumulates sources, facts, votes, and labels and produces an
// immutable Dataset. The zero value is ready to use.
//
// Votes may be added in any order; Build sorts posting lists. Adding a vote
// for a (fact, source) pair that already has one overwrites the earlier vote
// (last writer wins), which makes builders convenient for layered dataset
// construction (e.g. a simulator first listing a restaurant and later
// marking it CLOSED).
//
// Ingestion is allocation-free once capacity exists: names intern into
// append-only symbol tables and every vote is three appends onto flat
// parallel log columns (fact ID, source ID, vote) — recording Absent
// appends a tombstone rather than mutating anything. Call Grow with the
// expected vote count to reserve the log up front; after that, Vote
// performs zero allocations (TestVoteIngestionAllocFree pins this).
// Build resolves the log into the Dataset's columnar form with counting
// sorts and linear passes.
type Builder struct {
	sources Interner
	facts   Interner
	labels  []Label
	golden  []int

	// The vote log: parallel columns, one entry per Vote call, in call
	// order. Later entries for the same (fact, source) supersede earlier
	// ones; Absent entries are tombstones.
	logFact []uint32
	logSrc  []uint32
	logVote []Vote
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// Source interns a source by name and returns its index.
func (b *Builder) Source(name string) int { return int(b.sources.Intern(name)) }

// Fact interns a fact by name and returns its index. New facts start with
// an Unknown label.
func (b *Builder) Fact(name string) int {
	n := b.facts.Len()
	i := int(b.facts.Intern(name))
	if i == n {
		b.labels = append(b.labels, Unknown)
	}
	return i
}

// AddSources interns several sources at once.
func (b *Builder) AddSources(names ...string) {
	for _, n := range names {
		b.Source(n)
	}
}

// AddFacts interns several facts at once.
func (b *Builder) AddFacts(names ...string) {
	for _, n := range names {
		b.Fact(n)
	}
}

// Grow reserves log capacity for at least n additional votes, so that the
// next n Vote calls append without reallocating.
func (b *Builder) Grow(n int) {
	b.logFact = slices.Grow(b.logFact, n)
	b.logSrc = slices.Grow(b.logSrc, n)
	b.logVote = slices.Grow(b.logVote, n)
}

// Vote records source s's vote on fact f. Recording Absent removes any
// earlier vote. Indices must come from Source/Fact (or be in range).
func (b *Builder) Vote(f, s int, v Vote) {
	if f < 0 || f >= b.facts.Len() {
		panic(fmt.Sprintf("truth: fact index %d out of range", f))
	}
	if s < 0 || s >= b.sources.Len() {
		panic(fmt.Sprintf("truth: source index %d out of range", s))
	}
	if !v.Valid() {
		panic(fmt.Sprintf("truth: invalid vote %d", int8(v)))
	}
	b.logFact = append(b.logFact, uint32(f))
	b.logSrc = append(b.logSrc, uint32(s))
	b.logVote = append(b.logVote, v)
}

// VoteNamed records a vote by source and fact name, interning both.
func (b *Builder) VoteNamed(fact, source string, v Vote) {
	b.Vote(b.Fact(fact), b.Source(source), v)
}

// Label sets the ground-truth label of fact f.
func (b *Builder) Label(f int, l Label) {
	if !l.Valid() {
		panic(fmt.Sprintf("truth: invalid label %d", int8(l)))
	}
	b.labels[f] = l
}

// LabelNamed sets the ground-truth label of a fact by name, interning it.
func (b *Builder) LabelNamed(fact string, l Label) { b.Label(b.Fact(fact), l) }

// Golden declares the explicit golden evaluation subset. Passing nil keeps
// the default behaviour (all labeled facts are evaluated).
func (b *Builder) Golden(facts []int) {
	b.golden = append([]int(nil), facts...)
}

// NumFacts returns the number of facts interned so far.
func (b *Builder) NumFacts() int { return b.facts.Len() }

// NumSources returns the number of sources interned so far.
func (b *Builder) NumSources() int { return b.sources.Len() }

// insertionCutoff is the longest per-fact run of log entries Build sorts
// by insertion; longer runs go to slices.SortStableFunc. Runs are as long
// as a fact's vote count, which rarely exceeds a few dozen.
const insertionCutoff = 16

// Build freezes the builder into a Dataset. The Builder remains usable;
// subsequent mutations do not affect the returned Dataset.
//
// The vote log is resolved by a stable counting sort of log positions by
// fact, then a stable sort by source inside each fact's run, which orders
// the log by (fact, source, log position). Each pair keeps its last write
// (dropped when that write is an Absent tombstone); the surviving entries
// land in CSR order, so the columns and both iteration views follow in
// linear passes.
func (b *Builder) Build() *Dataset {
	numFacts, numSources := b.facts.Len(), b.sources.Len()
	d := &Dataset{
		sources: *b.sources.Clone(),
		facts:   *b.facts.Clone(),
		labels:  append([]Label(nil), b.labels...),
	}
	if b.golden != nil {
		d.golden = append([]int(nil), b.golden...)
		sort.Ints(d.golden)
	}
	n := len(b.logVote)
	runStarts := make([]uint32, numFacts+1)
	for _, f := range b.logFact {
		runStarts[f+1]++
	}
	for f := 0; f < numFacts; f++ {
		runStarts[f+1] += runStarts[f]
	}
	next := slices.Clone(runStarts[:numFacts])
	perm := make([]uint32, n)
	for i, f := range b.logFact {
		perm[next[f]] = uint32(i)
		next[f]++
	}
	d.factStarts = make([]uint32, numFacts+1)
	d.voteSources = make([]uint32, 0, n)
	d.voteValues = make([]Vote, 0, n)
	for f := 0; f < numFacts; f++ {
		run := perm[runStarts[f]:runStarts[f+1]]
		b.sortBySource(run)
		for i := 0; i < len(run); i++ {
			last := run[i]
			for i+1 < len(run) && b.logSrc[run[i+1]] == b.logSrc[last] {
				i++
				last = run[i]
			}
			if v := b.logVote[last]; v != Absent {
				d.voteSources = append(d.voteSources, b.logSrc[last])
				d.voteValues = append(d.voteValues, v)
			}
		}
		d.factStarts[f+1] = uint32(len(d.voteValues))
	}
	d.factArena = make([]SourceVote, len(d.voteValues))
	for i, s := range d.voteSources {
		d.factArena[i] = SourceVote{Source: int(s), Vote: d.voteValues[i]}
	}
	d.srcStarts = make([]uint32, numSources+1)
	for _, s := range d.voteSources {
		d.srcStarts[s+1]++
	}
	for s := 0; s < numSources; s++ {
		d.srcStarts[s+1] += d.srcStarts[s]
	}
	d.srcArena = make([]FactVote, len(d.voteValues))
	srcNext := slices.Clone(d.srcStarts[:numSources])
	for f := 0; f < numFacts; f++ {
		for i := d.factStarts[f]; i < d.factStarts[f+1]; i++ {
			s := d.voteSources[i]
			d.srcArena[srcNext[s]] = FactVote{Fact: f, Vote: d.voteValues[i]}
			srcNext[s]++
		}
	}
	return d
}

// sortBySource stably sorts one fact's run of log positions by source, so
// re-votes on a pair stay in log order and the last write ends the pair's
// sub-run.
func (b *Builder) sortBySource(run []uint32) {
	if len(run) > insertionCutoff {
		slices.SortStableFunc(run, func(x, y uint32) int { return cmp.Compare(b.logSrc[x], b.logSrc[y]) })
		return
	}
	for i := 1; i < len(run); i++ {
		for j := i; j > 0 && b.logSrc[run[j]] < b.logSrc[run[j-1]]; j-- {
			run[j], run[j-1] = run[j-1], run[j]
		}
	}
}
