package core

import (
	"corroborate/internal/score"
	"corroborate/internal/truth"
)

// sourceIndex is the inverted source → fact-group index: for every source,
// the ordinals (group.ord) of the groups whose posting list
// contains it, ascending. It is built once per run and never changes —
// groups are exhausted, not restructured. The index is what makes the ∆H
// ranking incremental: a candidate's hypothetical evaluation only moves the
// trust of the sources on its own posting list, so only groups sharing a
// source with the candidate can change probability; for every other group
// the before/after entropy terms of Eq. 9 cancel exactly and can be skipped
// without changing the sum (adding a +0.0 term is a floating-point no-op).
type sourceIndex [][]int32

// buildSourceIndex inverts the group posting lists.
func buildSourceIndex(groups []*group, sources int) sourceIndex {
	counts := make([]int, sources)
	for _, g := range groups {
		for _, sv := range g.votes {
			counts[sv.Source]++
		}
	}
	idx := make(sourceIndex, sources)
	for s, n := range counts {
		idx[s] = make([]int32, 0, n)
	}
	// Groups are visited in ordinal order, so each posting list comes out
	// ascending without a sort.
	for _, g := range groups {
		for _, sv := range g.votes {
			idx[sv.Source] = append(idx[sv.Source], int32(g.ord))
		}
	}
	return idx
}

// rankScratch is the scratch space of the ∆H scorer.
type rankScratch struct {
	trust []float64 // projected trust vector (len == sources)
	lists [][]int32 // posting-list heads for the neighbor merge
	nbrs  []int32   // merged neighbor ordinals (uncached fallback)
}

// engine is the incremental realization of IncEstimate's hot path. It keeps
//
//   - trust: the materialized trust vector σi(S), refreshed in place once
//     per mutation batch instead of allocated at every read;
//   - probs: one cached corroborated probability per group, recomputed
//     exactly (full posting list, original order) only for groups containing
//     a source whose trust moved since the last sync — found via the
//     inverted index. The cache never drifts: a cached value is always
//     bit-identical to a fresh g.prob(trust);
//   - baseH: the per-round entropy baseline H(prob(FG)) shared by every ∆H
//     candidate of the round, instead of recomputed per candidate.
//
// All cached values are exact, so the engine's output is byte-identical to
// the reference implementation (see equiv_test.go).
type engine struct {
	cfg    *IncEstimate
	state  *trustState
	result *truth.Result

	groups []*group // ordinal order, never reordered
	live   []*group // compacted working set (ascending ordinals)
	idx    sourceIndex

	trust []float64 // cached σi(S)
	probs []float64 // cached Corrob per ordinal, synced to trust
	baseH []float64 // H(probs[ord]) under the round's trust (pos-side overlay patched in place)

	afterTrust []float64 // reused buffer for the post-negative trust vector

	// nbrCache[ord] is the ascending, deduplicated list of ordinals of the
	// groups sharing at least one source with groups[ord] — the only groups
	// whose Eq. 9 terms can be non-zero when ord is the ∆H candidate. Group
	// membership never changes, so lists are built once (lazily, on a
	// candidate's first ranking) and reused for the rest of the run.
	// nbrBudget bounds the cache's total entries: densely co-listed worlds
	// (one source in every group) would otherwise cost O(groups²) memory;
	// past the budget candidates fall back to merging on the fly.
	nbrCache  [][]int32
	nbrBudget int

	dirtyMark []bool
	dirtyOrds []int32

	// hStale[ord] marks a cached probability whose entropy baseline has
	// not been refreshed yet; syncBaseline only recomputes H for marked
	// ordinals instead of scanning every live group each round.
	hStale []bool

	// Lazy-greedy ∆H pair cache (see lazypq.go). colGen[ord] is bumped
	// every time an absorbed group shares a source with ord — the only
	// events that can move any cached after-entropy term involving ord as
	// the Eq. 9 column. pairRows holds the per-candidate cached terms,
	// stamped with the colGen they were computed under; pairBudget bounds
	// the cache's total entries. overlayMark/overlayEpoch tag the columns
	// whose positive-side baseline diverges from the round baseline (the
	// neighbors of the selected negative group), which must never be
	// served from — or stored into — the round-base cache.
	colGen       []uint32
	pairRows     []*pairRow
	pairBudget   int
	overlayMark  []uint32
	overlayEpoch uint32

	// rowKeyCache/rowKeyExact memoize each candidate's last heap key — its
	// exact signed score, or a sound stale bound. Either stays valid until a
	// column in the row's neighbor list advances its generation; noteAbsorb
	// pushes that event to the affected rows through rowStale (rows sharing
	// a source with a bumped column == the column's own neighbor list), so
	// serving a key is O(1) and the per-round ranking cost is proportional
	// to the rows the last absorbs actually touched, not the candidate
	// count. scoreCacheOK drops for the rest of the run if a bumped column
	// has no cached neighbor list (the affected rows cannot be enumerated);
	// keys then fall back to the per-term scan. rowOverlayMark tags the rows
	// whose key the positive-side overlay can shift; posServeOK guards the
	// epochs where an overlay column's rows cannot be enumerated.
	rowKeyCache    []float64
	rowKeyExact    []bool
	rowStale       []bool
	scoreCacheOK   bool
	rowOverlayMark []uint32
	posServeOK     bool

	// srcDirty accumulates the sources whose credit/count moved since the
	// last syncTrust (fed by noteAbsorb); the sync recomputes trust only for
	// those. allSrcDirty forces the full scan (anchor refreshes move every
	// source).
	srcDirtyMark []bool
	srcDirty     []int32
	allSrcDirty  bool

	// sizeF mirrors each group's remaining size as a float64, refreshed by
	// noteAbsorb after every real absorption — the ranking scans read it
	// instead of dereferencing the group structs. savedTrust holds the few
	// base-trust entries a refresh temporarily overwrites for its in-place
	// projection; posSavedCredit/posSavedCount and posSavedOrds/posSavedH
	// hold what the positive-side ranking patches into the real state and
	// the round baseline, restored bitwise after the ranking.
	sizeF          []float64
	savedTrust     []float64
	posSavedCredit []float64
	posSavedCount  []int
	posSavedOrds   []int32
	posSavedH      []float64

	anchorCredit []float64 // reused accumulators for refreshAnchors
	anchorCount  []float64

	seq     rankScratch   // scratch for sequential scoring
	heapBuf candidateHeap // reused backing array for the lazy ranking heap
}

func newEngine(cfg *IncEstimate, d *truth.Dataset, state *trustState, groups []*group, result *truth.Result) *engine {
	sources := d.NumSources()
	eng := &engine{
		cfg:         cfg,
		state:       state,
		result:      result,
		groups:      groups,
		live:        append(make([]*group, 0, len(groups)), groups...),
		idx:         buildSourceIndex(groups, sources),
		trust:       make([]float64, sources),
		probs:       make([]float64, len(groups)),
		baseH:       make([]float64, len(groups)),
		dirtyMark:   make([]bool, len(groups)),
		hStale:      make([]bool, len(groups)),
		nbrCache:    make([][]int32, len(groups)),
		nbrBudget:   defaultNbrBudget,
		colGen:      make([]uint32, len(groups)),
		pairRows:    make([]*pairRow, len(groups)),
		pairBudget:  defaultPairBudget,
		overlayMark: make([]uint32, len(groups)),

		rowKeyCache:    make([]float64, len(groups)),
		rowKeyExact:    make([]bool, len(groups)),
		rowStale:       make([]bool, len(groups)),
		scoreCacheOK:   true,
		rowOverlayMark: make([]uint32, len(groups)),
		srcDirtyMark:   make([]bool, sources),
		sizeF:          make([]float64, len(groups)),
	}
	eng.state.vectorInto(eng.trust)
	for _, g := range groups {
		eng.probs[g.ord] = g.prob(eng.trust)
		eng.hStale[g.ord] = true
		eng.rowStale[g.ord] = true
		eng.sizeF[g.ord] = float64(g.size())
		// Generation 0 in a pair-row stamp means "never computed", so the
		// live generations start at 1.
		eng.colGen[g.ord] = 1
	}
	eng.seq = rankScratch{trust: make([]float64, sources)}
	if cfg.AnchoredTrust {
		eng.anchorCredit = make([]float64, sources)
		eng.anchorCount = make([]float64, sources)
	}
	eng.afterTrust = make([]float64, sources)
	return eng
}

// mergeNeighbors appends to dst the ascending, deduplicated union of the
// inverted posting lists of g's sources — the ordinals of every group that
// shares a source with g. The per-source lists are already ascending, so a
// k-way merge (k = |posting list|, small) replaces a per-candidate sort.
func (eng *engine) mergeNeighbors(g *group, scratch *rankScratch, dst []int32) []int32 {
	lists := scratch.lists[:0]
	for _, sv := range g.votes {
		if l := eng.idx[sv.Source]; len(l) > 0 {
			lists = append(lists, l)
		}
	}
	for len(lists) > 0 {
		min := lists[0][0]
		for _, l := range lists[1:] {
			if l[0] < min {
				min = l[0]
			}
		}
		dst = append(dst, min)
		out := lists[:0]
		for _, l := range lists {
			if l[0] == min {
				l = l[1:]
			}
			if len(l) > 0 {
				out = append(out, l)
			}
		}
		lists = out
	}
	scratch.lists = lists[:0]
	return dst
}

// ensureNeighbors builds and caches g's neighbor list if the budget allows.
// Called sequentially (before any parallel fan-out), so the cache is
// read-only while workers run.
func (eng *engine) ensureNeighbors(g *group) {
	if eng.nbrCache[g.ord] != nil || eng.nbrBudget <= 0 {
		return
	}
	bound := 0
	for _, sv := range g.votes {
		bound += len(eng.idx[sv.Source])
	}
	if bound > eng.nbrBudget {
		return
	}
	nbrs := eng.mergeNeighbors(g, &eng.seq, make([]int32, 0, bound))
	eng.nbrBudget -= len(nbrs)
	eng.nbrCache[g.ord] = nbrs
}

// neighbors returns g's neighbor ordinals, from the cache when available,
// merging into the scratch buffer otherwise. Both paths produce the same
// ascending sequence, keeping the Eq. 9 accumulation order fixed.
func (eng *engine) neighbors(g *group, scratch *rankScratch) []int32 {
	if nbrs := eng.nbrCache[g.ord]; nbrs != nil {
		return nbrs
	}
	scratch.nbrs = eng.mergeNeighbors(g, scratch, scratch.nbrs[:0])
	return scratch.nbrs
}

// syncTrust refreshes the cached trust vector from the state and recomputes
// the cached probability of every group containing a source whose trust
// moved. The scan is sparse: only sources whose credit/count changed since
// the last sync (marked by noteAbsorb) are re-derived; every other source's
// trust is a pure function of unchanged inputs and is bitwise current.
func (eng *engine) syncTrust() {
	if eng.allSrcDirty {
		eng.allSrcDirty = false
		for _, s := range eng.srcDirty {
			eng.srcDirtyMark[s] = false
		}
		eng.srcDirty = eng.srcDirty[:0]
		for s, old := range eng.trust {
			eng.syncSource(s, old)
		}
	} else {
		for _, s := range eng.srcDirty {
			eng.srcDirtyMark[s] = false
			eng.syncSource(int(s), eng.trust[s])
		}
		eng.srcDirty = eng.srcDirty[:0]
	}
	for _, ord := range eng.dirtyOrds {
		eng.dirtyMark[ord] = false
		g := eng.groups[ord]
		if g.size() > 0 {
			eng.probs[ord] = g.prob(eng.trust)
			eng.hStale[ord] = true
		}
	}
	eng.dirtyOrds = eng.dirtyOrds[:0]
}

// syncSource folds one source's current trust into the cached vector,
// flagging the groups on its posting list when it moved.
func (eng *engine) syncSource(s int, old float64) {
	nt := eng.state.trust(s)
	//lint:ignore floatexact change detection on a cached copy of the same computation; an epsilon would skip real sub-epsilon trust moves and break bit-identity with the reference
	if nt == old {
		return
	}
	eng.trust[s] = nt
	for _, ord := range eng.idx[s] {
		if !eng.dirtyMark[ord] {
			eng.dirtyMark[ord] = true
			eng.dirtyOrds = append(eng.dirtyOrds, ord)
		}
	}
}

// noteAbsorb records that g's outcome was absorbed into the real trust
// state: every group sharing a source with g — including g itself — may now
// have a different probability, entropy baseline, or projected-trust
// contribution, so their column generations advance and any pair-cache term
// stamped with an older generation becomes refutable-stale (see lazypq.go
// for the staleness invariant). The bump is pushed one hop further to the
// cached heap keys: every row whose neighbor list contains a bumped column
// (== the column's own neighbor list, co-listing is symmetric) is marked
// stale; if that list is not cached the affected rows cannot be enumerated
// and key caching is disabled for the rest of the run. g's own sources are
// queued for the next sparse trust sync. Hypothetical absorptions into
// cloned states (the positive-side ranking) are never noted.
func (eng *engine) noteAbsorb(g *group) {
	eng.sizeF[g.ord] = float64(g.size())
	for _, sv := range g.votes {
		if !eng.srcDirtyMark[sv.Source] {
			eng.srcDirtyMark[sv.Source] = true
			eng.srcDirty = append(eng.srcDirty, int32(sv.Source))
		}
	}
	for _, ord := range eng.neighbors(g, &eng.seq) {
		eng.colGen[ord]++
		rows := eng.nbrCache[ord]
		if rows == nil {
			eng.scoreCacheOK = false
			continue
		}
		for _, r := range rows {
			eng.rowStale[r] = true
		}
	}
}

// compact drops exhausted groups from the live set, preserving order.
func (eng *engine) compact() {
	eng.live = compact(eng.live)
}

// evaluate corroborates n facts from group g at its cached probability and
// absorbs the outcome (engine counterpart of the reference evaluate).
func (eng *engine) evaluate(g *group, n int) []int {
	p := eng.probs[g.ord]
	facts := g.take(n)
	for _, f := range facts {
		eng.result.FactProb[f] = p
	}
	eng.state.absorb(g.votes, outcome(p, eng.cfg.SoftAbsorb), len(facts))
	eng.noteAbsorb(g)
	return facts
}

// evaluateBatch corroborates every fact of every group in the batch under
// the cached probabilities of the current time point (all probabilities are
// fixed before any outcome is absorbed, matching the paper's semantics).
func (eng *engine) evaluateBatch(side []*group) []int {
	total := 0
	for _, g := range side {
		total += g.size()
	}
	all := make([]int, 0, total)
	for _, g := range side {
		p := eng.probs[g.ord]
		facts := g.take(g.size())
		for _, f := range facts {
			eng.result.FactProb[f] = p
		}
		eng.state.absorb(g.votes, outcome(p, eng.cfg.SoftAbsorb), len(facts))
		eng.noteAbsorb(g)
		all = append(all, facts...)
	}
	return all
}

// evaluateAll corroborates every remaining fact in one sweep (MaxRounds
// safety valve).
func (eng *engine) evaluateAll(run *Run) {
	liveOnly := make([]*group, 0, len(eng.live))
	for _, g := range eng.live {
		if g.size() > 0 {
			liveOnly = append(liveOnly, g)
		}
	}
	all := eng.evaluateBatch(liveOnly)
	if len(all) > 0 {
		eng.syncTrust()
		run.Trajectory = append(run.Trajectory, TimePoint{
			Trust:     append([]float64(nil), eng.trust...),
			Evaluated: all,
		})
	}
}

// refreshAnchors recomputes the undecided-mass anchors from the live
// groups' cached probabilities (synced to the previous round's trust).
func (eng *engine) refreshAnchors() {
	credit, count := eng.anchorCredit, eng.anchorCount
	for s := range credit {
		credit[s], count[s] = 0, 0
	}
	for _, g := range eng.live {
		if g.size() == 0 {
			continue
		}
		p := eng.probs[g.ord]
		n := float64(g.size())
		for _, sv := range g.votes {
			credit[sv.Source] += n * score.SourceCredit(sv.Vote, p)
			count[sv.Source] += n
		}
	}
	for s := range credit {
		eng.state.setAnchors(s, credit[s], count[s])
	}
	// Anchors feed both the trust vector and projectInto for every source,
	// so no cached pair term, heap key, or trust entry survives an anchor
	// refresh: advance every column generation, stale every row, and force
	// the next trust sync to rescan all sources. Anchored runs keep the
	// lazy ranking correct but forgo its caching benefit.
	for i := range eng.colGen {
		eng.colGen[i]++
		eng.rowStale[i] = true
	}
	eng.allSrcDirty = true
}
