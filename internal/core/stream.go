package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"slices"
	"sync"

	"corroborate/internal/fault"
	"corroborate/internal/score"
	"corroborate/internal/truth"
)

// Stream is the online form of the incremental algorithm: votes arrive in
// batches (e.g. one crawl increment at a time), each batch is corroborated
// under the trust state accumulated from every previous batch, and the
// multi-value trust carries across batches. This is the natural production
// deployment of Definition 1 — the paper's algorithm already evaluates
// facts at distinct time points with the trust current at that point, so
// the only extension here is letting the caller, rather than the selector,
// define the batches' content while the selector still orders work inside
// each batch.
//
// Each batch is one macro time point: every fact group of the batch is
// corroborated under the trust at batch entry (Definition 1's σi(S) — all
// facts selected at ti are evaluated with the trust of ti), and all
// outcomes are absorbed afterwards in the deterministic group order. The
// decision function of a group is therefore a pure function of (votes,
// batch-entry trust), and the absorb order is a total order over the
// groups, so the outcome does not depend on the order groups are built or
// decided in.
//
// Concurrency contract: a Stream is safe for concurrent use. AddBatch,
// Trust, Decided, Batches, and Checkpoint serialize on an internal mutex;
// concurrent AddBatch calls are applied in lock-acquisition order, so
// determinism across runs is up to the caller's batch ordering. (Earlier
// versions documented Stream as not safe for concurrent use; the lock is
// new, the single-threaded behaviour is unchanged.)
//
// AddBatch is atomic: a rejected batch — whether refused by validation,
// cancelled through its context, or aborted by a contained group panic —
// leaves the stream untouched: no sources are interned, no trust moves,
// no facts are decided. The stream therefore always sits at a batch
// boundary, which is exactly the state Checkpoint snapshots; cancellation
// can never produce a half-absorbed, un-checkpointable trust state.
type Stream struct {
	// Config is applied to every batch; the zero value is the scale
	// profile, which suits open-ended streams.
	Config IncEstimate

	// symtab is the stream's source symbol table (truth.Interner): names
	// live here once, and every other structure — trust accumulators, vote
	// columns, checkpoints — moves dense uint32 IDs. Interning order defines
	// vote signatures, so the table is append-only except for the
	// atomic-batch rollback, which truncates the IDs a rejected batch
	// created before anything else saw them.
	mu       sync.Mutex
	symtab   *truth.Interner
	state    *trustState
	initDone bool

	// decided accumulates every fact this stream has corroborated.
	decided []StreamFact

	// decay is the per-batch trust-decay factor λ; 0 means disabled (the
	// default, and bit-identical to the pre-decay engine). See
	// SetTrustDecay.
	decay float64

	// checkpointSize is the length of the last envelope Checkpoint wrote;
	// it sizes the next encode buffer.
	checkpointSize int

	// panics is the fault-injection hook for the robustness battery; nil
	// (the default) costs one pointer check per decided group.
	panics *fault.Panics
}

// GroupPanicError reports a panic captured while deciding one fact group.
// The batch it interrupted is rejected atomically.
type GroupPanicError struct {
	// Signature is the vote signature of the group whose decision panicked.
	Signature string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery.
	Stack []byte
}

func (e *GroupPanicError) Error() string {
	return fmt.Sprintf("core: panic deciding fact group %q: %v", e.Signature, e.Value)
}

// InjectPanics installs a fault.Panics injector whose sites are keyed by
// fact-group vote signature; nil disarms. Tests use it to prove panic
// containment; production streams leave it unset.
func (st *Stream) InjectPanics(p *fault.Panics) {
	st.mu.Lock()
	st.panics = p
	st.mu.Unlock()
}

// StreamFact is one corroborated fact of a stream.
type StreamFact struct {
	// Name is the caller's fact identifier.
	Name string
	// Batch is the index of the batch that carried the fact.
	Batch int
	// Probability is the corroborated probability at evaluation time.
	Probability float64
	// Prediction is the Eq. 2 decision.
	Prediction truth.Label
}

// BatchVote is one vote of an incoming batch.
type BatchVote struct {
	Fact   string
	Source string
	Vote   truth.Vote
}

// NewStream returns an empty stream using the scale profile.
func NewStream() *Stream {
	return &Stream{Config: *NewScale(), symtab: truth.NewInterner()}
}

// SetTrustDecay enables exponential trust decay with per-batch factor
// lambda: before each batch's outcomes are absorbed, every source's
// accumulated credit and evaluation mass are scaled by lambda, so evidence
// from k batches ago carries weight lambda^k and a drifting source's stale
// reputation washes out instead of dominating forever. Because credit and
// mass scale together, decay never changes the decisions of the batch it
// ages past — only the weight of history against the next batch — which
// keeps decisions a pure function of (votes, batch-entry trust) and
// preserves the rollback contract unchanged.
//
// lambda must lie in [0, 1]: values in (0, 1) enable decay, while 0 and 1
// both mean "no decay" (1 is the identity scale; 0 is the conventional
// off switch) and leave the stream bit-identical to the pre-decay engine.
// The factor is part of the stream's identity — it must be configured
// before the first batch and is recorded in checkpoints, so a restored
// stream continues with the decay it was built with.
func (st *Stream) SetTrustDecay(lambda float64) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if math.IsNaN(lambda) || lambda < 0 || lambda > 1 {
		return fmt.Errorf("core: trust decay %v out of [0, 1]", lambda)
	}
	if st.initDone {
		return fmt.Errorf("core: trust decay must be configured before the first batch")
	}
	//lint:ignore floatexact 1 is the exact identity-scale sentinel; values near 1 are legitimate slow decay factors and must not be swallowed
	if lambda == 1 {
		lambda = 0 // identity scale: normalize to the canonical off value
	}
	st.decay = lambda
	return nil
}

// TrustDecay reports the configured per-batch decay factor, 0 if disabled.
func (st *Stream) TrustDecay() float64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.decay
}

// Trust returns the current trust of every source seen so far, keyed by
// source name.
func (st *Stream) Trust() map[string]float64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make(map[string]float64, st.symtab.Len())
	for i := 0; i < st.symtab.Len(); i++ {
		out[st.symtab.Name(uint32(i))] = st.state.trust(i)
	}
	return out
}

// Decided returns every fact corroborated so far, in evaluation order. The
// returned slice is a point-in-time snapshot sharing its backing array with
// the stream; callers must not modify it.
func (st *Stream) Decided() []StreamFact {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.decided
}

// Batches returns how many batches have been processed.
func (st *Stream) Batches() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.batchesLocked()
}

func (st *Stream) batchesLocked() int {
	if len(st.decided) == 0 {
		return 0
	}
	return st.decided[len(st.decided)-1].Batch + 1
}

// AddBatch corroborates one batch of votes under the trust accumulated
// from all earlier batches and folds the outcomes back in. Facts are
// grouped by vote signature, decided under the batch-entry trust, and
// absorbed negative-side-first, like one macro time point of the
// incremental algorithm. It returns the batch's corroborated facts in
// evaluation order.
func (st *Stream) AddBatch(votes []BatchVote) ([]StreamFact, error) {
	return st.AddBatchContext(context.Background(), votes)
}

// AddBatchContext is AddBatch under a context: cancellation or deadline
// expiry rejects the batch atomically — the stream stays at the previous
// batch boundary, valid and checkpointable — and returns an error wrapping
// ctx.Err(). The context is consulted before corroboration starts, between
// group decisions, and once more before outcomes are absorbed; absorption
// itself always runs to completion so no partial trust update can exist.
func (st *Stream) AddBatchContext(ctx context.Context, votes []BatchVote) ([]StreamFact, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.addBatchLocked(ctx, votes)
}

// addBatchLocked is the batch pipeline: validate, number the batch's facts
// and intern its sources, lay out every fact's posting list, group facts by
// posting list, decide every group under the frozen batch-entry trust, then
// absorb the outcomes in a total order that does not depend on the groups'
// input order, so every floating-point accumulation is deterministic.
//
// Validation rejects empty batches, votes carrying an unknown truth value
// (anything but T/F), and duplicate (fact, source) votes — two statements
// by one source about one fact would silently shadow each other in the
// vote matrix. The error names the first offending vote in input order.
//
// Failures after interning (a rejected vote, cancellation, a group panic)
// roll back the source interning they caused, restoring the stream
// bit-for-bit to its pre-batch state.
func (st *Stream) addBatchLocked(ctx context.Context, votes []BatchVote) ([]StreamFact, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: batch rejected: %w", err)
	}
	if len(votes) == 0 {
		return nil, fmt.Errorf("core: empty batch")
	}
	bad := 0
	for bad < len(votes) && votes[bad].Vote.Valid() && votes[bad].Vote != truth.Absent {
		bad++
	}
	// Snapshot for rollback: everything the pipeline mutates before the
	// point of no return is the symbol table and the trust-state arrays.
	preSources, preInit := st.symtab.Len(), st.initDone

	// Number the batch's facts in order of first appearance. Only the votes
	// before the first bad one count: a duplicate whose second vote comes
	// later would be reported after the bad vote. A fact's votes usually
	// arrive together, so a repeat of the previous vote's fact skips the
	// lookup, and the number of such runs bounds the number of facts.
	runs := 0
	for i := range bad {
		if i == 0 || votes[i].Fact != votes[i-1].Fact {
			runs++
		}
	}
	factOf := make(map[string]uint32, runs)
	names := make([]string, runs)
	factIDs := make([]uint32, bad)
	var fact uint32
	for i, v := range votes[:bad] {
		if i == 0 || v.Fact != votes[i-1].Fact {
			id, ok := factOf[v.Fact]
			if !ok {
				id = uint32(len(factOf))
				factOf[v.Fact] = id
				names[id] = v.Fact
			}
			fact = id
		}
		factIDs[i] = fact
	}
	names = names[:len(factOf)]
	starts, arena, dup := st.postingLists(votes[:bad], factIDs, len(names))
	if dup {
		st.rollbackBatch(preSources, preInit)
		v := votes[firstDuplicate(votes, factIDs)]
		return nil, fmt.Errorf("core: duplicate vote on %q by %q in batch", v.Fact, v.Source)
	}
	if bad < len(votes) {
		st.rollbackBatch(preSources, preInit)
		v := votes[bad]
		return nil, fmt.Errorf("core: batch vote on %q by %q carries unknown truth value %v", v.Fact, v.Source, v.Vote)
	}

	init := st.Config.InitialTrust
	if init == 0 {
		init = 0.9
	}
	if !st.initDone {
		st.state = newTrustState(0, init)
		if st.decay != 0 {
			st.state.enableDecay(st.decay)
		}
		st.initDone = true
	}
	// Grow the trust state for newly seen sources.
	for len(st.state.credit) < st.symtab.Len() {
		st.state.credit = append(st.state.credit, 0)
		st.state.count = append(st.state.count, 0)
		if st.state.fcount != nil {
			st.state.fcount = append(st.state.fcount, 0)
		}
	}

	groups := groupPostings(len(names), func(f int) []truth.SourceVote {
		return arena[starts[f]:starts[f+1]]
	}, hashPostings)
	trust := st.state.vector()
	raw, final, err := st.decideGroups(ctx, groups, trust)
	if err == nil {
		// Point of no return: beyond this check the outcomes are absorbed
		// unconditionally, landing the stream on the next batch boundary.
		err = ctx.Err()
	}
	if err != nil {
		st.rollbackBatch(preSources, preInit)
		if _, isPanic := err.(*GroupPanicError); !isPanic {
			err = fmt.Errorf("core: batch cancelled: %w", err)
		}
		return nil, err
	}

	// Past the point of no return: age prior batches' evidence before this
	// batch's outcomes are absorbed. Decay scales credit and mass together,
	// so the trust the groups were decided under is unchanged — it only
	// rebalances history against the absorption below — and running it
	// after the rollback window keeps batch rejection a pure truncation.
	st.state.applyDecay()

	batch := st.batchesLocked()
	out := make([]StreamFact, 0, len(names))
	for _, g := range absorbOrder(groups, raw) {
		p := final[g.ord]
		facts := g.take(g.size())
		st.state.absorb(g.votes, outcome(p, st.Config.SoftAbsorb), len(facts))
		for _, f := range facts {
			out = append(out, StreamFact{
				Name:        names[f],
				Batch:       batch,
				Probability: p,
				Prediction:  truth.LabelOf(p, truth.Threshold),
			})
		}
	}
	st.decided = append(st.decided, out...)
	return out, nil
}

// postingLists interns the votes' sources into the symbol table and lays
// out every batch fact's posting list — its votes as (source ID, vote)
// pairs, ascending by source — in one CSR arena: fact f's list is
// arena[starts[f]:starts[f+1]]. A counting sort of the votes by fact places
// each fact's votes in input order, interning sources in input order on
// the way, and an insertion sort by source finishes each list. Two votes of
// one fact by one source end up adjacent; dup reports whether any exist.
func (st *Stream) postingLists(votes []BatchVote, factIDs []uint32, numFacts int) (starts []uint32, arena []truth.SourceVote, dup bool) {
	// Count into starts[f+2] so that after the prefix sum starts[f+1] is
	// fact f's first slot; scattering advances it to f's end, which is
	// where fact f+1 starts.
	starts = make([]uint32, numFacts+2)
	for _, f := range factIDs {
		starts[f+2]++
	}
	for f := 2; f < len(starts); f++ {
		starts[f] += starts[f-1]
	}
	arena = make([]truth.SourceVote, len(factIDs))
	for i, f := range factIDs {
		arena[starts[f+1]] = truth.SourceVote{Source: int(st.symtab.Intern(votes[i].Source)), Vote: votes[i].Vote}
		starts[f+1]++
	}
	starts = starts[:numFacts+1]
	for f := range numFacts {
		list := arena[starts[f]:starts[f+1]]
		if len(list) > truth.InsertionSortCutoff {
			slices.SortFunc(list, func(x, y truth.SourceVote) int { return cmp.Compare(x.Source, y.Source) })
		} else {
			for i := 1; i < len(list); i++ {
				for j := i; j > 0 && list[j].Source < list[j-1].Source; j-- {
					list[j], list[j-1] = list[j-1], list[j]
				}
			}
		}
		for i := 1; i < len(list); i++ {
			dup = dup || list[i].Source == list[i-1].Source
		}
	}
	return starts, arena, dup
}

// firstDuplicate returns the position of the first vote that repeats the
// (fact, source) pair of an earlier one — the vote a left-to-right scan
// with a seen-set stops at — or len(factIDs) if every pair is distinct,
// where factIDs[i] is vote i's batch fact ID. It runs only on a batch
// postingLists has found a duplicate in, to name the offending vote.
func firstDuplicate(votes []BatchVote, factIDs []uint32) int {
	type pair struct {
		fact   uint32
		source string
	}
	seen := make(map[pair]struct{}, len(factIDs))
	for i, f := range factIDs {
		k := pair{f, votes[i].Source}
		if _, ok := seen[k]; ok {
			return i
		}
		seen[k] = struct{}{}
	}
	return len(factIDs)
}

// absorbOrder returns the batch's groups in absorb order: confident
// negatives first, by ascending raw probability, then positives by
// descending size — one macro time point of the scale profile over the
// batch's groups. The ranking uses the groups' raw probabilities under the
// batch-entry trust; protection adjustments only affect the decided value.
// Ties break by signature order, which makes the order total. groups must
// be in ordinal order.
//
// The sort runs on precomputed, pointer-free keys: rank is a negative's
// probability bits (order-preserving for non-negative floats) or, above
// every such value, a positive's size complement, and sig is the group's
// postingKey. Only groups equal on both compare their posting lists.
func absorbOrder(groups []*group, raw []float64) []*group {
	type keyed struct {
		rank, sig uint64
		ord       int
	}
	keys := make([]keyed, len(groups))
	for i, g := range groups {
		rank := math.MaxUint64 - uint64(g.size())
		if p := raw[g.ord]; p <= truth.Threshold {
			rank = 0
			if p > 0 { // +0 and -0 tie
				rank = math.Float64bits(p)
			}
		}
		keys[i] = keyed{rank, postingKey(g.votes), g.ord}
	}
	slices.SortFunc(keys, func(x, y keyed) int {
		if c := cmp.Compare(x.rank, y.rank); c != 0 {
			return c
		}
		if c := cmp.Compare(x.sig, y.sig); c != 0 {
			return c
		}
		return comparePostings(groups[x.ord].votes, groups[y.ord].votes)
	})
	order := make([]*group, len(keys))
	for i, k := range keys {
		order[i] = groups[k.ord]
	}
	return order
}

// decideGroup corroborates one group under the frozen batch-entry trust.
// It returns the raw Eq. 5 probability (the ordering key) and the decided
// probability after the scale profile's protections. The function is pure
// in (g, trust) — it never reads mutable stream state.
func (st *Stream) decideGroup(g *group, trust []float64) (raw, final float64) {
	if st.panics != nil {
		st.panics.Fire(g.signature())
	}
	p := score.Corrob(g.votes, trust)
	raw, final = p, p
	if st.Config.Strategy == SelectScale || st.Config.Strategy == SelectHeu {
		// Backed-by-positive protection and strict tie handling, as
		// in the scale profile's batch rounds.
		if p <= truth.Threshold && !g.conflicted() && g.backedByPositive(trust) {
			final = truth.Threshold // confirmed by a positive backer
			//lint:ignore floatexact the scale profile defines a conflicted group at exactly the threshold as undecided; an epsilon band would flip near-threshold decisions
		} else if p == truth.Threshold && g.conflicted() {
			final = nextBelowThreshold
		}
	}
	return raw, final
}

// decideGroups decides every group of a batch under the frozen batch-entry
// trust, filling raw and final decided probabilities by group ordinal.
// Cancellation aborts between groups and returns ctx.Err(). A panic — one
// injected by the fault battery or thrown by a real bug — is recovered
// into a typed *GroupPanicError naming the group, and the caller rejects
// the batch atomically.
func (st *Stream) decideGroups(ctx context.Context, groups []*group, trust []float64) (raw, final []float64, err error) {
	var g *group
	defer func() {
		if v := recover(); v != nil {
			raw, final, err = nil, nil, &GroupPanicError{Signature: g.signature(), Value: v, Stack: debug.Stack()}
		}
	}()
	raw, final = make([]float64, len(groups)), make([]float64, len(groups))
	for i := range groups {
		g = groups[i]
		if i&255 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		raw[g.ord], final[g.ord] = st.decideGroup(g, trust)
	}
	return raw, final, nil
}

// rollbackBatch undoes the interning side effects of a failed batch,
// restoring the symbol table and trust-state arrays to their pre-batch
// shape. No trust values moved (absorption never ran), so truncation is a
// complete undo.
func (st *Stream) rollbackBatch(preSources int, preInit bool) {
	st.symtab.Truncate(preSources)
	if !preInit {
		st.state = nil
		st.initDone = false
		return
	}
	st.state.credit = st.state.credit[:preSources]
	st.state.count = st.state.count[:preSources]
	if st.state.fcount != nil {
		st.state.fcount = st.state.fcount[:preSources]
	}
}
