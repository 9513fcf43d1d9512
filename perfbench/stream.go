package main

import (
	"errors"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"corroborate/internal/core"
	"corroborate/internal/pipeline"
	"corroborate/internal/synth"
)

// stream-bulk shape: a seeded 12-source scenario of 20k-fact batches
// (about 144k votes each) pushed through an in-process ShardedStream with
// one shard per CPU and no sink. One pass is passBatches batches into a
// fresh stream; the run repeats passes until its time is up.
const (
	bulkFacts   = 20000
	bulkSources = 12
	passBatches = 10
	bulkSetups  = 3
)

// bulkInput is one set-up's product: the batches every pass replays.
type bulkInput struct {
	batches [][]core.BatchVote
	votes   int
}

// bulkSetup generates the scenario and converts it to stream input.
func bulkSetup(seed int64) (bulkInput, error) {
	w, err := synth.GenerateScenario(synth.ScenarioConfig{
		Batches:       passBatches,
		FactsPerBatch: bulkFacts,
		HonestSources: bulkSources,
		Seed:          seed,
	})
	if err != nil {
		return bulkInput{}, err
	}
	in := bulkInput{batches: make([][]core.BatchVote, len(w.Batches))}
	for i, b := range w.Batches {
		in.batches[i] = batchVotes(b)
		in.votes += len(b.Votes)
	}
	return in, nil
}

// allocReader reads the process's cumulative heap allocation counters.
type allocReader struct{ s []metrics.Sample }

func newAllocReader() *allocReader {
	return &allocReader{s: []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}}
}

// read returns cumulative allocated objects and bytes, GC CPU seconds and
// total CPU seconds.
func (a *allocReader) read() (objects, bytes, gcCPU, cpu float64) {
	metrics.Read(a.s)
	return float64(a.s[0].Value.Uint64()), float64(a.s[1].Value.Uint64()),
		a.s[2].Value.Float64(), a.s[3].Value.Float64()
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

var errNoFacts = errors.New("stream holds no decided facts")

// topFacts is the read the stream serves after each batch: a fresh
// snapshot and its ten most probable facts, the same operator chain the
// daemon's /query?top=10 runs.
func topFacts(st *core.ShardedStream) []core.StreamFact {
	snap := st.Snapshot()
	top, _ := pipeline.TopK(pipeline.FromFunc[core.StreamFact](snap.EachFact), 10,
		func(a, b core.StreamFact) bool { return a.Probability > b.Probability })
	return top
}

func runStreamBulk(cfg config) (*outcome, error) {
	var in bulkInput
	var setups []float64
	for i := 0; i < bulkSetups; i++ {
		in = bulkInput{} // let the previous set-up's input be collected
		runtime.GC()
		t0 := time.Now()
		var err error
		if in, err = bulkSetup(cfg.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	shards := runtime.NumCPU()
	runtime.GC()

	ar := newAllocReader()
	var addMs, queryMs, passS, allocsPerVote, bytesPerVote, snapMs []float64
	// Each pass's final state is kept only as a digest, so a pass's
	// stream is garbage once the next pass starts and the heap holds one
	// stream at a time.
	var passDigests [][32]byte
	var ckptMs, ckptBytes float64
	batches, votes := 0, 0
	addTotal := 0.0
	_, _, gc0, cpu0 := ar.read()
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for len(passS) == 0 || time.Now().Before(deadline) {
		st := core.NewShardedStream(shards)
		pass := 0.0
		for _, b := range in.batches {
			var o0, b0 float64
			if cfg.trace {
				o0, b0, _, _ = ar.read()
			}
			t0 := time.Now()
			if _, err := st.AddBatch(b); err != nil {
				return nil, err
			}
			d := time.Since(t0)
			if cfg.trace {
				o1, b1, _, _ := ar.read()
				allocsPerVote = append(allocsPerVote, ratio(o1-o0, float64(len(b))))
				bytesPerVote = append(bytesPerVote, ratio(b1-b0, float64(len(b))))
			}
			addMs = append(addMs, ms(d))
			pass += d.Seconds()
			batches++
			votes += len(b)

			t1 := time.Now()
			if len(topFacts(st)) == 0 {
				return nil, errNoFacts
			}
			queryMs = append(queryMs, ms(time.Since(t1)))
		}
		if cfg.trace {
			t2 := time.Now()
			_ = st.Snapshot()
			snapMs = append(snapMs, ms(time.Since(t2)))
			// Every pass ends in the same state, so one checkpoint of it
			// stands for all.
			if len(passS) == 0 {
				var cw countingWriter
				t3 := time.Now()
				if err := st.Checkpoint(&cw); err != nil {
					return nil, err
				}
				ckptMs, ckptBytes = ms(time.Since(t3)), float64(cw.n)
			}
		}
		passS = append(passS, pass)
		addTotal += pass
		passDigests = append(passDigests, corroborationDigest(fromSnapshot(st.Snapshot())))
	}
	_, _, gc1, cpu1 := ar.read()

	// The check, outside the measured window: the same batches through one
	// shard must give the same decided log and trust as every pass.
	seq := core.NewShardedStream(1)
	t0 := time.Now()
	for _, b := range in.batches {
		if _, err := seq.AddBatch(b); err != nil {
			return nil, err
		}
	}
	seqS := time.Since(t0).Seconds()

	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	out := &outcome{
		checkErr:  checkPasses(passDigests, corroborationDigest(fromSnapshot(seq.Snapshot()))),
		attempted: batches,
		samples: map[string][]float64{
			"setup_s": setups, "addbatch_ms": addMs, "query_ms": queryMs, "pass_s": passS,
		},
		info: map[string]any{
			"shards": shards, "facts_per_batch": bulkFacts, "sources": bulkSources,
			"batches_per_pass": passBatches, "votes_per_pass": in.votes, "passes": len(passS),
		},
	}
	out.e2e = map[string]float64{
		"ingest_p50_ms":       quantile(addMs, 0.5),
		"ingest_p95_ms":       quantile(addMs, 0.95),
		"query_p50_ms":        quantile(queryMs, 0.5),
		"query_p95_ms":        quantile(queryMs, 0.95),
		"ingest_capacity_bps": ratio(float64(batches), addTotal),
		"votes_per_s":         ratio(float64(votes), addTotal),
		"corroborate_s":       median(passS),
		"setup_s":             median(setups),
		"rss_mb":              rss,
	}
	if !cfg.trace {
		out.metrics = out.e2e
		return out, nil
	}

	out.metrics = map[string]float64{
		"core.stream.addbatch_ms.p50":  quantile(addMs, 0.5),
		"core.stream.addbatch_ms.max":  maxOf(addMs),
		"core.stream.snapshot_ms":      median(snapMs),
		"core.stream.allocs_per_vote":  median(allocsPerVote),
		"core.stream.bytes_per_vote":   median(bytesPerVote),
		"runtime.gc_cpu_frac":          ratio(gc1-gc0, cpu1-cpu0),
		"core.stream.seq_votes_per_s":  ratio(float64(in.votes), seqS),
		"core.stream.checkpoint_ms":    ckptMs,
		"core.stream.checkpoint_bytes": ckptBytes,
		"error_frac":                   0,
		"ingest_p95_ms":                out.e2e["ingest_p95_ms"],
		"query_p95_ms":                 out.e2e["query_p95_ms"],
	}
	return out, nil
}
