package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	driver "corroborate/internal/engine"
	"corroborate/internal/entropy"
	"corroborate/internal/invariant"
	"corroborate/internal/score"
	"corroborate/internal/truth"
)

// Selector identifies a fact-selection strategy for IncEstimate.
type Selector int

const (
	// SelectHeu is IncEstHeu (Algorithm 2): at each time point, pick the
	// positive and the negative fact group with the highest ∆H(F̄) score
	// and evaluate the same number of facts from each.
	SelectHeu Selector = iota
	// SelectPS is IncEstPS: always evaluate the whole fact group with the
	// highest probability. Included as the paper's ablation of the
	// entropy-driven heuristic.
	SelectPS
	// SelectScale is the scale-stabilized realization of IncEstHeu for
	// datasets orders of magnitude larger than their fact-group count. It
	// keeps Algorithm 1's incremental structure and Algorithm 2's balanced
	// two-sided rounds, but replaces the per-group ∆H ranking — which the
	// EXPERIMENTS.md ablations show destabilizes the trust estimates at
	// crawl scale — with three rules each grounded in the paper's own
	// arguments: the most confidently false group is selected on the
	// negative side, the largest group on the positive side (so every
	// source's affirmative evidence flows at its natural rate), and an
	// affirmative-only fact backed by at least one positive source is
	// never projected corrupt (§2.3's round-3 argument). Combine with
	// DeferBand (NewScale does) to hold maximum-entropy unconflicted
	// groups back until the trust estimates mature.
	SelectScale
	// SelectHybrid is an experimental selector: confident negative pick,
	// entropy-ranked positive pick. Ablation only.
	SelectHybrid
)

// String returns the paper's name for the strategy.
func (s Selector) String() string {
	switch s {
	case SelectHeu:
		return "IncEstHeu"
	case SelectPS:
		return "IncEstPS"
	case SelectScale:
		return "IncEstScale"
	case SelectHybrid:
		return "IncEstHybrid"
	default:
		return fmt.Sprintf("Selector(%d)", int(s))
	}
}

// parseSelector inverts Selector.String; it is the checkpoint codec's hook
// for serializing strategies by name instead of brittle integer codes.
func parseSelector(s string) (Selector, error) {
	switch s {
	case "IncEstHeu":
		return SelectHeu, nil
	case "IncEstPS":
		return SelectPS, nil
	case "IncEstScale":
		return SelectScale, nil
	case "IncEstHybrid":
		return SelectHybrid, nil
	default:
		return 0, fmt.Errorf("core: unknown selector %q", s)
	}
}

// IncEstimate is the incremental corroboration algorithm (Algorithm 1).
// The zero value is ready to use and runs IncEstHeu with the paper's
// defaults.
type IncEstimate struct {
	// Strategy picks the fact-selection heuristic (default SelectHeu).
	Strategy Selector
	// InitialTrust is σ0(S), the default trust each source starts with and
	// falls back to while it has no evaluated facts; 0 means the paper's
	// default of 0.9. The paper observes (§6.1.1) that any default above
	// 0.5 yields the same corroboration result.
	InitialTrust float64
	// MaxRounds bounds the number of time points as a safety valve;
	// 0 means no artificial bound (the algorithm always terminates because
	// every round evaluates at least one fact).
	MaxRounds int
	// CandidateCap, when positive, restricts the ∆H ranking to the cap
	// largest groups per side. It is an optional performance knob for very
	// wide datasets; 0 (the default) ranks every group exactly as in the
	// paper.
	CandidateCap int
	// FullGroups disables the paper's balanced truncation (Algorithm 2
	// line 7, n = min of the two group sizes) and evaluates both selected
	// groups entirely. An ablation knob: truncation guards against the
	// larger side dominating the trust update, at the cost of many more
	// time points on datasets with small conflicted groups.
	FullGroups bool
	// FlipDeltaH ranks groups by the largest entropy DECREASE of the
	// remaining facts (information gain) instead of the largest increase.
	// Ablation knob for the sign ambiguity in Eq. 9.
	FlipDeltaH bool
	// SoftAbsorb makes Update_Trust absorb the raw corroborated
	// probability of an evaluated fact instead of its Eq. 2 normalization
	// (the paper's walk-through uses hard 0/1 outcomes; soft absorption is
	// an ablation that bounds trust overshoot on large noisy datasets).
	SoftAbsorb bool
	// AnchoredTrust blends each source's trust between the hard credits of
	// its decided facts and its still-undecided facts taken at their
	// current corroborated probabilities (lagged one round). Definition 1's
	// literal reading — trust over decided facts only — reproduces the
	// paper's worked example exactly but lets a biased early subset pin a
	// source at 0 or 1; anchoring keeps every source's trust consistent
	// with its full posting list while still letting conflict-exposed
	// sources spiral down through their own stale mass. Recommended for
	// datasets orders of magnitude larger than the number of fact groups.
	AnchoredTrust bool
	// DeferBand defers maximum-entropy affirmative-only negative groups: a
	// group from F* (T votes only) on the negative side is only eligible
	// for selection when its probability is at most 0.5 - DeferBand;
	// affirmative-only groups inside the band wait until the trust
	// estimates have matured (they are re-partitioned every round and
	// decided either after leaving the band or in the final sweep). Groups
	// carrying an F vote are always decidable: explicit conflict is the
	// only grounded negative signal, and acting on it early is what
	// bootstraps the multi-value trust (the paper's r12). This
	// operationalizes the paper's entropy principle — keep high-entropy
	// unconflicted facts undecided as long as possible. 0 disables
	// deferral (the literal Algorithm 2).
	DeferBand float64
	// reference forces the retained naive implementation instead of the
	// incremental ∆H engine. The two are equivalence-tested to produce
	// byte-identical output (equiv_test.go); the knob exists only so the
	// tests can run both paths, which is why it is unexported.
	reference bool
}

// TimePoint records one round of the incremental algorithm for trajectory
// analysis (Figure 2 of the paper).
type TimePoint struct {
	// Trust is σi(S) after absorbing this round's evaluations.
	Trust []float64
	// Evaluated lists the fact indices corroborated at this time point.
	Evaluated []int
}

// Run is the detailed output of IncEstimate: the standard result plus the
// full multi-value trust trajectory.
type Run struct {
	*truth.Result
	// Trajectory has one entry per time point, in evaluation order.
	Trajectory []TimePoint
}

// Name implements truth.Method.
func (e *IncEstimate) Name() string { return e.Strategy.String() }

// Run implements truth.Method.
func (e *IncEstimate) Run(d *truth.Dataset) (*truth.Result, error) {
	run, err := e.RunDetailed(d)
	if err != nil {
		return nil, err
	}
	return run.Result, nil
}

// RunContext is Run under a context: cancellation or deadline expiry is
// checked at every round boundary (time point) and aborts the run with an
// error wrapping ctx.Err(). Rounds are never interrupted mid-flight, so a
// cancelled run has absorbed either all or none of any round's outcomes.
func (e *IncEstimate) RunContext(ctx context.Context, d *truth.Dataset) (*truth.Result, error) {
	run, err := e.RunDetailedContext(ctx, d)
	if err != nil {
		return nil, err
	}
	return run.Result, nil
}

// RunWith implements driver.Runner: Options.MaxIter overrides MaxRounds
// (the safety valve that sweeps everything left in one final round; an
// explicit zero sweeps immediately under the initial trust), and an
// Observer sees one Round per time point.
func (e *IncEstimate) RunWith(ctx context.Context, d *truth.Dataset, opts driver.Options) (*truth.Result, error) {
	run, err := e.RunDetailedWith(ctx, d, opts)
	if err != nil {
		return nil, err
	}
	return run.Result, nil
}

// RunDetailed executes the algorithm and returns the result together with
// the trust trajectory of every time point.
func (e *IncEstimate) RunDetailed(d *truth.Dataset) (*Run, error) {
	return e.RunDetailedContext(context.Background(), d)
}

// RunDetailedContext is RunDetailed under a context, with the same
// round-boundary cancellation contract as RunContext.
func (e *IncEstimate) RunDetailedContext(ctx context.Context, d *truth.Dataset) (*Run, error) {
	return e.RunDetailedWith(ctx, d, driver.Options{})
}

// RunDetailedWith is RunDetailedContext under the shared run options.
func (e *IncEstimate) RunDetailedWith(ctx context.Context, d *truth.Dataset, opts driver.Options) (*Run, error) {
	if e.Strategy != SelectHeu && e.Strategy != SelectPS && e.Strategy != SelectScale && e.Strategy != SelectHybrid {
		return nil, fmt.Errorf("core: unknown selector %d", int(e.Strategy))
	}
	init := e.InitialTrust
	if init == 0 {
		init = 0.9
	}
	if init < 0 || init > 1 {
		return nil, fmt.Errorf("core: initial trust %v out of [0, 1]", init)
	}
	if e.reference {
		// The semantic reference keeps its verbatim pre-runtime loop; the
		// equivalence suite runs it only with default options.
		return e.runReference(ctx, d, init)
	}
	return e.runEngine(ctx, d, init, opts)
}

// cancelledAt renders a round-boundary cancellation, preserving ctx.Err()
// for errors.Is.
func cancelledAt(ctx context.Context, round, remaining int) error {
	return fmt.Errorf("core: corroboration cancelled at round %d with %d facts remaining: %w",
		round, remaining, ctx.Err())
}

// runEngine is the incremental realization of Algorithm 1: identical
// round structure to runReference, with every trust-vector read, group
// probability, and ∆H entropy term served from the engine's exact caches
// (see index.go and deltah.go). The round loop runs on the shared driver:
// one Step per time point, cancellation at round boundaries, MaxRounds
// overridable through Options.MaxIter.
func (e *IncEstimate) runEngine(ctx context.Context, d *truth.Dataset, init float64, opts driver.Options) (*Run, error) {
	groups := sortBySignature(buildGroups(d))
	state := newTrustState(d.NumSources(), init)
	if e.AnchoredTrust {
		state.enableAnchors()
	}
	result := truth.NewResult(e.Name(), d)
	run := &Run{Result: result}
	eng := newEngine(e, d, state, groups, result)

	cfg := opts.Resolve(ctx, driver.Defaults{MaxIter: e.MaxRounds})
	// The MaxRounds cap is not a hard stop: reaching it triggers the
	// final evaluate-everything sweep, which must itself run as a round.
	// So the valve lives inside the Step and the driver runs uncapped,
	// terminating through the Step's done signal.
	sweepAt, hasSweep := cfg.MaxIter, cfg.Capped
	runCfg := cfg
	runCfg.MaxIter, runCfg.Capped = 0, false

	remaining := d.NumFacts()
	if remaining > 0 {
		_, err := driver.Iterate(runCfg, func(round int) (float64, bool, error) {
			eng.syncTrust()
			if e.AnchoredTrust {
				// Anchors use the cached probabilities under the previous
				// round's trust, then move every source's trust — sync again.
				eng.refreshAnchors()
				eng.syncTrust()
			}
			if hasSweep && round >= sweepAt {
				eng.evaluateAll(run)
				remaining = 0
				return driver.NoDelta, true, nil
			}
			var evaluated []int
			switch e.Strategy {
			case SelectPS:
				evaluated = eng.stepPS()
			default:
				evaluated = eng.stepBalanced()
			}
			if len(evaluated) == 0 {
				return 0, false, fmt.Errorf("core: round %d selected no facts with %d remaining", round, remaining)
			}
			remaining -= len(evaluated)
			eng.compact()
			eng.syncTrust()
			run.Trajectory = append(run.Trajectory, TimePoint{
				Trust:     append([]float64(nil), eng.trust...),
				Evaluated: evaluated,
			})
			return driver.NoDelta, remaining == 0, nil
		})
		if err != nil {
			var c *driver.Cancelled
			if errors.As(err, &c) {
				return nil, fmt.Errorf("core: corroboration cancelled at round %d with %d facts remaining: %w",
					c.Round, remaining, c.Err)
			}
			return nil, err
		}
	}

	if e.AnchoredTrust {
		// Every fact is decided: the final trust is the hard average over
		// each source's full posting list.
		eng.refreshAnchors()
	}
	result.Trust = state.vector()
	invariant.TrustNormalized("IncEstimate trust", result.Trust)
	result.Iterations = len(run.Trajectory)
	result.Finalize()
	return run, nil
}

// stepBalanced is the engine counterpart of the reference stepBalanced: one
// time point of Algorithm 2 served from the cached probabilities.
func (eng *engine) stepBalanced() []int {
	e := eng.cfg
	if e.Strategy == SelectHeu || e.Strategy == SelectHybrid {
		eng.syncBaseline()
	}
	var pos, neg []*group
	deferred := 0
	for _, g := range eng.live {
		if g.size() == 0 {
			continue
		}
		p := eng.probs[g.ord]
		switch {
		case p > truth.Threshold:
			pos = append(pos, g)
		case e.Strategy == SelectScale && !g.conflicted() && g.backedByPositive(eng.trust):
			pos = append(pos, g)
		case e.DeferBand > 0 && p > truth.Threshold-e.DeferBand && !g.conflicted():
			deferred++
		default:
			neg = append(neg, g)
		}
	}
	if len(pos) == 0 && len(neg) == 0 {
		var all []*group
		for _, g := range eng.live {
			if g.size() > 0 {
				all = append(all, g)
			}
		}
		return eng.evaluateBatch(all)
	}
	if len(pos) == 0 || len(neg) == 0 {
		side := pos
		if len(pos) == 0 {
			side = neg
		}
		if deferred == 0 {
			return eng.evaluateBatch(side)
		}
		var g *group
		switch {
		case e.Strategy == SelectScale && len(pos) > 0:
			g = eng.extreme(side, true)
		case e.Strategy == SelectScale:
			g = eng.extreme(side, false)
		default:
			g = eng.rankLazy(side, nil, eng.state, eng.trust, eng.baseH, e.sign(), false)
		}
		return eng.evaluate(g, g.size())
	}
	var fgNeg, fgPos *group
	if e.Strategy == SelectScale {
		fgNeg = eng.extreme(neg, false)
		fgPos = largest(pos)
	} else if e.Strategy == SelectHybrid {
		fgNeg = eng.extreme(neg, false)
		fgPos = eng.rankPositive(pos, fgNeg)
	} else {
		pos = e.capCandidates(pos)
		neg = e.capCandidates(neg)
		fgNeg = eng.rankLazy(neg, nil, eng.state, eng.trust, eng.baseH, e.sign(), false)
		fgPos = eng.rankPositive(pos, fgNeg)
	}
	probNeg := eng.probs[fgNeg.ord]
	probPos := eng.probs[fgPos.ord]
	if e.Strategy == SelectScale && probNeg >= truth.Threshold {
		probNeg = nextBelowThreshold
	}

	n := fgPos.size()
	if fgNeg.size() < n {
		n = fgNeg.size()
	}
	if e.FullGroups {
		if fgNeg.size() > n {
			n = fgNeg.size()
		}
	}
	factsNeg := fgNeg.take(n)
	factsPos := fgPos.take(n)
	for _, f := range factsNeg {
		eng.result.FactProb[f] = probNeg
	}
	for _, f := range factsPos {
		eng.result.FactProb[f] = probPos
	}
	eng.state.absorb(fgNeg.votes, outcome(probNeg, e.SoftAbsorb), n)
	eng.noteAbsorb(fgNeg)
	eng.state.absorb(fgPos.votes, outcome(probPos, e.SoftAbsorb), n)
	eng.noteAbsorb(fgPos)
	out := make([]int, 0, len(factsNeg)+len(factsPos))
	out = append(out, factsNeg...)
	return append(out, factsPos...)
}

// stepPS is the engine counterpart of the reference stepPS.
func (eng *engine) stepPS() []int {
	var best *group
	bestProb := -1.0
	for _, g := range eng.live {
		if g.size() == 0 {
			continue
		}
		p := eng.probs[g.ord]
		if p > bestProb ||
			//lint:ignore floatexact tie-break must match the reference bit-for-bit; the byte-identical equivalence contract forbids an epsilon here
			(p == bestProb && (g.size() > best.size() ||
				(g.size() == best.size() && g.signature < best.signature))) {
			best, bestProb = g, p
		}
	}
	if best == nil {
		return nil
	}
	return eng.evaluate(best, best.size())
}

// runReference is the pre-engine implementation, retained verbatim as the
// semantic reference: the equivalence suite asserts the engine produces
// byte-identical Result and Trajectory output on every strategy and knob.
func (e *IncEstimate) runReference(ctx context.Context, d *truth.Dataset, init float64) (*Run, error) {
	groups := sortBySignature(buildGroups(d))
	state := newTrustState(d.NumSources(), init)
	if e.AnchoredTrust {
		state.enableAnchors()
	}
	result := truth.NewResult(e.Name(), d)
	run := &Run{Result: result}
	scratch := make([]float64, d.NumSources())
	prevTrust := score.Fill(make([]float64, d.NumSources()), init)

	remaining := d.NumFacts()
	round := 0
	for remaining > 0 {
		if ctx.Err() != nil {
			return nil, cancelledAt(ctx, round, remaining)
		}
		if e.AnchoredTrust {
			refreshAnchors(state, groups, prevTrust)
		}
		if e.MaxRounds > 0 && round >= e.MaxRounds {
			// Safety valve: corroborate everything left in one sweep.
			e.evaluateAll(d, groups, state, result, run)
			break
		}
		var evaluated []int
		switch e.Strategy {
		case SelectPS:
			evaluated = e.stepPS(groups, state, result)
		default:
			evaluated = e.stepBalanced(groups, state, result, scratch)
		}
		if len(evaluated) == 0 {
			// All groups empty but counter out of sync would be a bug;
			// guard against livelock.
			return nil, fmt.Errorf("core: round %d selected no facts with %d remaining", round, remaining)
		}
		remaining -= len(evaluated)
		groups = compact(groups)
		prevTrust = state.vector()
		run.Trajectory = append(run.Trajectory, TimePoint{
			Trust:     prevTrust,
			Evaluated: evaluated,
		})
		round++
	}

	if e.AnchoredTrust {
		// Every fact is decided: the final trust is the hard average over
		// each source's full posting list.
		refreshAnchors(state, nil, prevTrust)
	}
	result.Trust = state.vector()
	invariant.TrustNormalized("IncEstimate reference trust", result.Trust)
	result.Iterations = len(run.Trajectory)
	result.Finalize()
	return run, nil
}

// evaluate corroborates n facts taken from group g under the current trust,
// stores their probabilities, absorbs the normalized outcome into the trust
// state, and returns the evaluated fact indices.
func evaluate(g *group, n int, state *trustState, result *truth.Result, soft bool) []int {
	p := g.prob(state.vector())
	invariant.Prob01("evaluated group probability", p)
	facts := g.take(n)
	for _, f := range facts {
		result.FactProb[f] = p
	}
	state.absorb(g.votes, outcome(p, soft), len(facts))
	return facts
}

// outcome converts a corroborated probability into the value absorbed by
// the trust update: the Eq. 2 normalization by default, or the raw
// probability under soft absorption.
func outcome(p float64, soft bool) float64 {
	if soft {
		return p
	}
	return score.Normalize(p)
}

// evaluateBatch corroborates every fact of every group in the batch under
// the single trust vector σi(S) of the current time point — probabilities
// are computed for all groups before any outcome is absorbed, matching the
// paper's semantics that all facts in Fi are evaluated with σi(S).
func evaluateBatch(side []*group, trust []float64, state *trustState, result *truth.Result, soft bool) []int {
	probs := make([]float64, len(side))
	for i, g := range side {
		probs[i] = g.prob(trust)
	}
	var all []int
	for i, g := range side {
		facts := g.take(g.size())
		for _, f := range facts {
			result.FactProb[f] = probs[i]
		}
		state.absorb(g.votes, outcome(probs[i], soft), len(facts))
		all = append(all, facts...)
	}
	return all
}

// stepBalanced is one time point of Algorithm 2 (and of the SelectScale
// ablation, which differs only in how each side is ranked).
func (e *IncEstimate) stepBalanced(groups []*group, state *trustState, result *truth.Result, scratch []float64) []int {
	trust := state.vector()
	var pos, neg []*group
	deferred := 0
	for _, g := range groups {
		if g.size() == 0 {
			continue
		}
		// Algorithm 2 line 3 partitions strictly: σ(FG) > 0.5 is the
		// positive part, everything else (including probability exactly
		// 0.5) the negative part. Note the asymmetry with the decision
		// rule of Eq. 2, which resolves 0.5 to true: a 0.5 group competes
		// on the negative side but, once selected, corroborates true.
		// This is what lets the motivating example's r6 (probability 0.5
		// under the initial trust) be deferred instead of eagerly
		// confirmed, and later uncovered as false.
		p := g.prob(trust)
		switch {
		case p > truth.Threshold:
			pos = append(pos, g)
		case e.Strategy == SelectScale && !g.conflicted() && g.backedByPositive(trust):
			// Scale profile: an affirmative-only fact backed by at least
			// one positive source is projected valid regardless of its
			// averaged probability — the paper's own round-3 argument
			// ("each restaurant is backed by at least one of the good
			// sources"). Only facts backed exclusively by negative
			// sources are candidates for rejection.
			pos = append(pos, g)
		case e.DeferBand > 0 && p > truth.Threshold-e.DeferBand && !g.conflicted():
			deferred++
		default:
			neg = append(neg, g)
		}
	}
	// Special case (§5.1): when every remaining group is projected to the
	// same side, evaluate all of them at once — this is the paper's final
	// round in the Figure 1 walk-through. Deferred-band groups only join
	// the sweep once no decidable group is left on either side.
	if len(pos) == 0 && len(neg) == 0 {
		var all []*group
		for _, g := range groups {
			if g.size() > 0 {
				all = append(all, g)
			}
		}
		return evaluateBatch(all, trust, state, result, e.SoftAbsorb)
	}
	if len(pos) == 0 || len(neg) == 0 {
		side := pos
		if len(pos) == 0 {
			side = neg
		}
		// Evaluate one side-group per time point while deferred groups
		// remain (their probabilities move as trust evolves); without any
		// deferred groups the whole side can be swept at once.
		if deferred == 0 {
			return evaluateBatch(side, trust, state, result, e.SoftAbsorb)
		}
		var g *group
		switch {
		case e.Strategy == SelectScale && len(pos) > 0:
			g = extremeProb(side, trust, true)
		case e.Strategy == SelectScale:
			g = extremeProb(side, trust, false)
		default:
			g = argmaxDeltaH(side, groups, state, trust, scratch, e.sign())
		}
		return evaluate(g, g.size(), state, result, e.SoftAbsorb)
	}
	var fgNeg, fgPos *group
	if e.Strategy == SelectScale {
		// Confident negative first; the LARGEST positive group second, so
		// every source's affirmative evidence keeps flowing at its
		// natural rate while conflict-exposed sources dip on the negative
		// stream. (Ranking positives by backing breadth instead was
		// evaluated and rejected: it protects a lone source's bulk
		// catalogue from premature confirmation, but it front-loads the
		// widest co-listed groups and freezes every source's trust near
		// its prior, flattening the synthetic sweeps — see EXPERIMENTS.md.)
		fgNeg = extremeProb(neg, trust, false)
		fgPos = largest(pos)
	} else if e.Strategy == SelectHybrid {
		fgNeg = extremeProb(neg, trust, false)
		afterNeg := state.clone()
		afterNeg.absorb(fgNeg.votes, score.Normalize(fgNeg.prob(trust)), fgNeg.size())
		afterNegTrust := afterNeg.vector()
		rest := make([]*group, 0, len(groups)-1)
		for _, g := range groups {
			if g != fgNeg {
				rest = append(rest, g)
			}
		}
		fgPos = argmaxDeltaHWithOutcome(pos, rest, afterNeg, afterNegTrust, trust, scratch, e.sign())
	} else {
		pos = e.capCandidates(pos)
		neg = e.capCandidates(neg)
		// Rank the negative side first, against the current state:
		// uncovering a projected-false group is what moves trust scores
		// away from their optimistic defaults. Outcomes used in the
		// projections are the Eq. 2 normalization of the group's
		// probability under σi(S).
		fgNeg = argmaxDeltaH(neg, groups, state, trust, scratch, e.sign())
		// Rank the positive side against the state as it will look once
		// the negative group's outcome is absorbed: the two selections of
		// a time point act jointly on the trust update, so scoring FG+
		// against the stale state would systematically prefer groups
		// whose sources the negative evaluation is about to discredit.
		afterNeg := state.clone()
		afterNeg.absorb(fgNeg.votes, score.Normalize(fgNeg.prob(trust)), fgNeg.size())
		afterNegTrust := afterNeg.vector()
		// The negative group is being evaluated this round, so it is no
		// longer part of F̄ for Eq. 9's sum over remaining groups.
		rest := make([]*group, 0, len(groups)-1)
		for _, g := range groups {
			if g != fgNeg {
				rest = append(rest, g)
			}
		}
		fgPos = argmaxDeltaHWithOutcome(pos, rest, afterNeg, afterNegTrust, trust, scratch, e.sign())
	}
	probNeg := fgNeg.prob(trust)
	probPos := fgPos.prob(trust)
	if e.Strategy == SelectScale && probNeg >= truth.Threshold {
		// Scale profile: a group selected from the negative side at
		// exactly the threshold is a tie (e.g. one CLOSED mark against one
		// stale listing under symmetric trust). Eq. 2's >= rule would
		// confirm it, crediting the laggard and zeroing the flagger — the
		// inverse of the evidence. Strict confirmation resolves threshold
		// ties on the negative stream to false, exactly how the paper's
		// walk-through treats r6 once it is selected as corrupt.
		probNeg = nextBelowThreshold
	}

	n := fgPos.size()
	if fgNeg.size() < n {
		n = fgNeg.size()
	}
	if e.FullGroups {
		if fgNeg.size() > n {
			n = fgNeg.size()
		}
	}
	// Both batches are corroborated under the same σi(S) (Definition 1:
	// all facts selected at ti are evaluated with the trust of ti).
	factsNeg := fgNeg.take(n)
	factsPos := fgPos.take(n)
	for _, f := range factsNeg {
		result.FactProb[f] = probNeg
	}
	for _, f := range factsPos {
		result.FactProb[f] = probPos
	}
	state.absorb(fgNeg.votes, outcome(probNeg, e.SoftAbsorb), n)
	state.absorb(fgPos.votes, outcome(probPos, e.SoftAbsorb), n)
	// take() returns slices aliasing the groups' backing arrays; appending
	// one to the other would overwrite the negative group's remaining
	// facts, so combine into a fresh slice.
	out := make([]int, 0, len(factsNeg)+len(factsPos))
	out = append(out, factsNeg...)
	return append(out, factsPos...)
}

// capCandidates optionally prunes a side to the cap largest groups.
func (e *IncEstimate) capCandidates(side []*group) []*group {
	if e.CandidateCap <= 0 || len(side) <= e.CandidateCap {
		return side
	}
	pruned := append([]*group(nil), side...)
	// Partial selection by size, stable on signature for determinism.
	for i := 0; i < e.CandidateCap; i++ {
		best := i
		for j := i + 1; j < len(pruned); j++ {
			if pruned[j].size() > pruned[best].size() ||
				(pruned[j].size() == pruned[best].size() && pruned[j].signature < pruned[best].signature) {
				best = j
			}
		}
		pruned[i], pruned[best] = pruned[best], pruned[i]
	}
	return pruned[:e.CandidateCap]
}

// argmaxDeltaH returns the candidate group with the highest ∆H(F̄) score
// (Eq. 9): the change in collective entropy of all *other* remaining groups
// if the candidate were evaluated under the current trust. Ties break
// toward the larger group, then the smaller signature, keeping runs
// deterministic.
func argmaxDeltaH(candidates, all []*group, state *trustState, trust []float64, scratch []float64, sign float64) *group {
	return argmaxDeltaHWithOutcome(candidates, all, state, trust, trust, scratch, sign)
}

// argmaxDeltaHWithOutcome ranks candidates by ∆H against the given base
// state/trust, but derives each candidate's hypothetical outcome from
// outcomeTrust (the trust of the round start). The distinction only matters
// for the positive-side ranking, which is scored against the state projected
// after the negative selection while keeping the outcomes of the round.
func argmaxDeltaHWithOutcome(candidates, all []*group, state *trustState, trust, outcomeTrust []float64, scratch []float64, sign float64) *group {
	if len(candidates) == 1 {
		return candidates[0]
	}
	var best *group
	bestScore := 0.0
	for _, g := range candidates {
		s := sign * deltaH(g, all, state, trust, outcomeTrust, scratch)
		if best == nil || s > bestScore ||
			//lint:ignore floatexact tie-break must match the reference bit-for-bit; the byte-identical equivalence contract forbids an epsilon here
			(s == bestScore && (g.size() > best.size() ||
				(g.size() == best.size() && g.signature < best.signature))) {
			best, bestScore = g, s
		}
	}
	return best
}

// deltaH computes Eq. 9 for one candidate group.
func deltaH(g *group, all []*group, state *trustState, trust, outcomeTrust []float64, scratch []float64) float64 {
	outcome := score.Normalize(g.prob(outcomeTrust))
	projected := state.project(g.votes, outcome, g.size(), scratch)
	var sum float64
	for _, other := range all {
		if other == g || other.size() == 0 {
			continue
		}
		before := entropy.H(other.prob(trust))
		after := entropy.H(other.prob(projected))
		sum += float64(other.size()) * (after - before)
	}
	invariant.Finite("∆H score", sum)
	return sum
}

// sign translates the FlipDeltaH knob into a ranking multiplier.
func (e *IncEstimate) sign() float64 {
	if e.FlipDeltaH {
		return -1
	}
	return 1
}

// largest returns the candidate with the most remaining facts, breaking
// ties toward the smaller signature.
func largest(candidates []*group) *group {
	var best *group
	for _, g := range candidates {
		if best == nil || g.size() > best.size() ||
			(g.size() == best.size() && g.signature < best.signature) {
			best = g
		}
	}
	return best
}

// nextBelowThreshold is the largest probability that still resolves to
// false under Eq. 2.
var nextBelowThreshold = math.Nextafter(truth.Threshold, 0)

// extremeProb returns the candidate with the highest (hi=true) or lowest
// probability under the given trust. Ties break toward the larger group,
// then the smaller signature.
func extremeProb(candidates []*group, trust []float64, hi bool) *group {
	var best *group
	var bestProb float64
	for _, g := range candidates {
		p := g.prob(trust)
		if !hi {
			p = -p
		}
		if best == nil || p > bestProb ||
			//lint:ignore floatexact tie-break must match the reference bit-for-bit; the byte-identical equivalence contract forbids an epsilon here
			(p == bestProb && (g.size() > best.size() ||
				(g.size() == best.size() && g.signature < best.signature))) {
			best, bestProb = g, p
		}
	}
	return best
}

// stepPS is one time point of the IncEstPS strategy: evaluate the whole
// group with the highest probability (ties to the larger group, then the
// smaller signature).
func (e *IncEstimate) stepPS(groups []*group, state *trustState, result *truth.Result) []int {
	trust := state.vector()
	var best *group
	bestProb := -1.0
	for _, g := range groups {
		if g.size() == 0 {
			continue
		}
		p := g.prob(trust)
		if p > bestProb ||
			//lint:ignore floatexact tie-break must match the reference bit-for-bit; the byte-identical equivalence contract forbids an epsilon here
			(p == bestProb && (g.size() > best.size() ||
				(g.size() == best.size() && g.signature < best.signature))) {
			best, bestProb = g, p
		}
	}
	if best == nil {
		return nil
	}
	return evaluate(best, best.size(), state, result, e.SoftAbsorb)
}

// evaluateAll corroborates every remaining fact in one sweep (used only by
// the MaxRounds safety valve).
func (e *IncEstimate) evaluateAll(d *truth.Dataset, groups []*group, state *trustState, result *truth.Result, run *Run) {
	live := make([]*group, 0, len(groups))
	for _, g := range groups {
		if g.size() > 0 {
			live = append(live, g)
		}
	}
	all := evaluateBatch(live, state.vector(), state, result, e.SoftAbsorb)
	if len(all) > 0 {
		run.Trajectory = append(run.Trajectory, TimePoint{Trust: state.vector(), Evaluated: all})
	}
}

// refreshAnchors recomputes the undecided-mass anchors from the remaining
// groups' corroborated probabilities under the previous round's trust.
func refreshAnchors(state *trustState, groups []*group, prevTrust []float64) {
	credit := make([]float64, len(prevTrust))
	count := make([]float64, len(prevTrust))
	for _, g := range groups {
		if g.size() == 0 {
			continue
		}
		p := g.prob(prevTrust)
		n := float64(g.size())
		for _, sv := range g.votes {
			credit[sv.Source] += n * score.SourceCredit(sv.Vote, p)
			count[sv.Source] += n
		}
	}
	for s := range credit {
		state.setAnchors(s, credit[s], count[s])
	}
}

// compact drops exhausted groups.
func compact(groups []*group) []*group {
	out := groups[:0]
	for _, g := range groups {
		if g.size() > 0 {
			out = append(out, g)
		}
	}
	return out
}

var (
	_ truth.Method  = (*IncEstimate)(nil)
	_ driver.Runner = (*IncEstimate)(nil)
)

// NewHeu returns an IncEstimate configured for the paper's main strategy.
func NewHeu() *IncEstimate { return &IncEstimate{Strategy: SelectHeu} }

// NewPS returns an IncEstimate configured for the greedy ablation strategy.
func NewPS() *IncEstimate { return &IncEstimate{Strategy: SelectPS} }

// NewScale returns an IncEstimate configured with the scale-stabilized
// profile: confident-first balanced selection with a maximum-entropy
// deferral band of 0.12.
func NewScale() *IncEstimate { return &IncEstimate{Strategy: SelectScale, DeferBand: 0.12} }
