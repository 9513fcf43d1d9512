package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"corroborate/internal/core"
	"corroborate/internal/engine"
	"corroborate/internal/pipeline"
	"corroborate/internal/truth"
)

// batch-crawl shape: a crawl-shaped world like BenchmarkIncEstimateLarge's
// 200k-fact tier — 4000 sources, facts drawn from 2000 voting patterns of
// 2–6 sources each, a sixth of the patterns conflicted — corroborated
// with IncEstHeu.
const (
	crawlSources  = 4000
	crawlFacts    = 200000
	crawlPatterns = 2000
	crawlSetups   = 3
	crawlSeqShare = 0.7 // share of the run spent on sequential runs; the rest measures capacity
)

// crawlShapeSeed fixes which patterns share sources. Drawn per seed, that
// overlap moved IncEstHeu between about 150 and 220 rounds, and the run
// time with it.
const crawlShapeSeed = 1

// buildCrawl builds the seeded crawl world through the public Builder.
// The voting patterns and their overlap are fixed — pattern p has
// 2 + p%5 voters, every sixth pattern is conflicted, each pattern carries
// the same number of facts — and the seed relabels the sources and deals
// the patterns out to the facts, so every seed gives another input of
// the same shape and runs on different seeds do comparable work.
func buildCrawl(seed int64) *truth.Dataset {
	shape := rand.New(rand.NewSource(crawlShapeSeed))
	rng := rand.New(rand.NewSource(seed))
	relabel := rng.Perm(crawlSources)
	type pvote struct {
		source int
		vote   truth.Vote
	}
	pool := make([][]pvote, crawlPatterns)
	for p := range pool {
		voters := 2 + p%5
		sig := make([]pvote, 0, voters)
		picked := make(map[int]bool, voters)
		for len(sig) < voters {
			s := relabel[shape.Intn(crawlSources)]
			if picked[s] {
				continue
			}
			picked[s] = true
			sig = append(sig, pvote{source: s, vote: truth.Affirm})
		}
		if p%6 == 0 {
			sig[0].vote = truth.Deny
		}
		pool[p] = sig
	}
	b := truth.NewBuilder()
	for s := 0; s < crawlSources; s++ {
		b.Source(fmt.Sprintf("s%04d", s))
	}
	order := rng.Perm(crawlFacts)
	for f := 0; f < crawlFacts; f++ {
		fi := b.Fact(fmt.Sprintf("f%06d", f))
		for _, pv := range pool[order[f]%crawlPatterns] {
			b.Vote(fi, pv.source, pv.vote)
		}
	}
	return b.Build()
}

// crawlRun is one timed IncEstHeu run.
type crawlRun struct {
	res    *truth.Result
	total  time.Duration
	rounds []time.Duration // per round; the first includes group build and cold ranking
	digest [32]byte
}

// corroborateCrawl runs IncEstHeu once, timing each round through the
// engine's Observer.
func corroborateCrawl(d *truth.Dataset) (crawlRun, error) {
	var run crawlRun
	start := time.Now()
	prev := start
	obs := func(engine.Round) {
		now := time.Now()
		run.rounds = append(run.rounds, now.Sub(prev))
		prev = now
	}
	res, err := core.NewHeu().RunWith(context.Background(), d, engine.Options{Observer: obs})
	if err != nil {
		return run, err
	}
	run.total = time.Since(start)
	if err := res.Check(d); err != nil {
		return run, err
	}
	run.res, run.digest = res, resultDigest(res)
	return run, nil
}

// crawlQueries is the read mix a batch result serves, every query a
// chain of the program's operators over its result and Dataset: the ten
// most probable facts, a 50-fact page at a given offset, and the first 50
// votes of one source (the first voter of the fact at the offset).
func crawlQueries(d *truth.Dataset, res *truth.Result, offset int) []func() int {
	byProb := func(a, b int) bool { return res.FactProb[a] > res.FactProb[b] }
	return []func() int{
		func() int {
			top, _ := pipeline.TopK(pipeline.Range(d.NumFacts()), 10, byProb)
			return len(top)
		},
		func() int {
			_, page := pipeline.Page(pipeline.Range(d.NumFacts()), offset, 50)
			return len(page)
		},
		func() int {
			_, votes := pipeline.Page(pipeline.FromSourceVotes(d, d.VotesOnFact(offset)[0].Source), 0, 50)
			return len(votes)
		},
	}
}

// crawlQueryRepeats is how many times the query mix runs after each
// sequential corroboration.
const crawlQueryRepeats = 3

func runBatchCrawl(cfg config) (*outcome, error) {
	var d *truth.Dataset
	var setups []float64
	for i := 0; i < crawlSetups; i++ {
		d = nil // let the previous world be collected
		runtime.GC()
		t0 := time.Now()
		d = buildCrawl(cfg.seed)
		setups = append(setups, time.Since(t0).Seconds())
	}
	runtime.GC()

	ar := newAllocReader()
	var runS, roundMs, firstMs, queryMs, rounds, allocs []float64
	var shapeMs [3][]float64 // query times by shape, in crawlQueries' order
	var digests [][32]byte
	_, _, gc0, cpu0 := ar.read()
	total := time.Duration(cfg.seconds) * time.Second
	seqDeadline := time.Now().Add(time.Duration(float64(total) * crawlSeqShare))
	for len(runS) == 0 || time.Now().Before(seqDeadline) {
		o0, _, _, _ := ar.read()
		run, err := corroborateCrawl(d)
		if err != nil {
			return nil, err
		}
		o1, _, _, _ := ar.read()
		allocs = append(allocs, o1-o0)
		runS = append(runS, run.total.Seconds())
		rounds = append(rounds, float64(len(run.rounds)))
		for i, r := range run.rounds {
			if i == 0 {
				firstMs = append(firstMs, ms(r))
			}
			roundMs = append(roundMs, ms(r))
		}
		digests = append(digests, run.digest)
		for i := 0; i < crawlQueryRepeats; i++ {
			offset := ((len(runS)*crawlQueryRepeats + i) * 7919) % (crawlFacts - 50)
			for k, q := range crawlQueries(d, run.res, offset) {
				t0 := time.Now()
				if q() == 0 {
					return nil, fmt.Errorf("batch-crawl query returned nothing")
				}
				took := ms(time.Since(t0))
				queryMs = append(queryMs, took)
				shapeMs[k] = append(shapeMs[k], took)
			}
		}
	}
	_, _, gc1, cpu1 := ar.read()

	// Capacity: one caller per CPU, each running IncEstHeu back to back on
	// the shared world until the window closes.
	capWindow := total - time.Duration(float64(total)*crawlSeqShare)
	capDone, capDigests, err := crawlCapacity(d, capWindow)
	if err != nil {
		return nil, err
	}
	digests = append(digests, capDigests...)

	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	seqTotal := sum(runS)
	out := &outcome{
		checkErr:  checkRepeatable(digests),
		attempted: len(digests),
		samples: map[string][]float64{
			"setup_s": setups, "run_s": runS, "round_ms": roundMs, "query_ms": queryMs,
		},
		info: map[string]any{
			"sources": crawlSources, "facts": crawlFacts, "patterns": crawlPatterns,
			"votes": d.NumVotes(), "sequential_runs": len(runS), "capacity_runs": capDone,
			"callers": runtime.NumCPU(),
		},
	}
	out.e2e = map[string]float64{
		"ingest_p50_ms":       quantile(roundMs, 0.5),
		"ingest_p95_ms":       quantile(roundMs, 0.95),
		"query_p50_ms":        meanOfMedians(shapeMs[:]...),
		"query_p95_ms":        quantile(queryMs, 0.95),
		"ingest_capacity_bps": ratio(float64(capDone), capWindow.Seconds()),
		"votes_per_s":         ratio(float64(d.NumVotes())*float64(len(runS)), seqTotal),
		"corroborate_s":       median(runS),
		"setup_s":             median(setups),
		"rss_mb":              rss,
	}
	if !cfg.trace {
		out.metrics = out.e2e
		return out, nil
	}
	later := laterRounds(roundMs, rounds)
	out.metrics = map[string]float64{
		"engine.rounds":              median(rounds),
		"engine.first_round_ms":      median(firstMs),
		"engine.round_ms.p50":        quantile(later, 0.5),
		"engine.round_ms.max":        maxOf(later),
		"core.incest.allocs_per_run": median(allocs),
		"truth.build_s":              median(setups),
		"runtime.gc_cpu_frac":        ratio(gc1-gc0, cpu1-cpu0),
		"error_frac":                 0,
		"ingest_p95_ms":              out.e2e["ingest_p95_ms"],
		"query_p95_ms":               out.e2e["query_p95_ms"],
	}
	return out, nil
}

// laterRounds drops each run's first round from the concatenated per-round
// times, given every run's round count.
func laterRounds(roundMs, rounds []float64) []float64 {
	var later []float64
	i := 0
	for _, n := range rounds {
		if n > 1 {
			later = append(later, roundMs[i+1:i+int(n)]...)
		}
		i += int(n)
	}
	return later
}

// crawlCapacity runs IncEstHeu closed-loop from one caller per CPU for the
// window and returns the runs completed inside it and every run's digest.
func crawlCapacity(d *truth.Dataset, window time.Duration) (int, [][32]byte, error) {
	var (
		mu       sync.Mutex
		done     int
		digests  [][32]byte
		firstErr error
	)
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				run, err := corroborateCrawl(d)
				end := time.Now()
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if err == nil {
					digests = append(digests, run.digest)
					if !end.After(deadline) {
						done++
					}
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	return done, digests, firstErr
}
