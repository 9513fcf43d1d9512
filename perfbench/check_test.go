package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"

	"corroborate/internal/core"
	"corroborate/internal/serve"
	"corroborate/internal/synth"
	"corroborate/internal/truth"
)

var (
	preloadOnce  sync.Once
	preloadWorld *synth.ScenarioWorld
	preloadBytes []byte
	preloadErr   error
)

// sharedPreload builds the seed-7 preload once for every test that needs it.
func sharedPreload(t *testing.T) (*synth.ScenarioWorld, []byte) {
	t.Helper()
	preloadOnce.Do(func() {
		if preloadWorld, preloadErr = serveScenario(7); preloadErr != nil {
			return
		}
		dir, err := os.MkdirTemp("", "perfbench-preload")
		if err != nil {
			preloadErr = err
			return
		}
		defer os.RemoveAll(dir)
		preloadBytes, preloadErr = writePreload(preloadWorld, filepath.Join(dir, "checkpoint.json"))
	})
	if preloadErr != nil {
		t.Fatal(preloadErr)
	}
	return preloadWorld, preloadBytes
}

// served renders a stream the way the daemon serves it, through the wire
// types and a JSON round trip.
func served(t *testing.T, st *core.ShardedStream) fullResult {
	t.Helper()
	snap := st.Snapshot()
	tr := serve.TrustResponse{Batches: snap.Batches}
	for _, name := range sortedKeys(snap.Trust) {
		tr.Sources = append(tr.Sources, serve.SourceTrustJSON{Source: name, Trust: snap.Trust[name]})
	}
	q := serve.QueryResponse{Batches: snap.Batches, Total: len(snap.Facts), Facts: make([]serve.FactJSON, len(snap.Facts))}
	for i, f := range snap.Facts {
		q.Facts[i] = serve.FactJSON{Fact: f.Name, Batch: f.Batch, Probability: f.Probability, Prediction: f.Prediction}
	}
	roundTrip(t, &tr)
	roundTrip(t, &q)
	return fullResult{batches: tr.Batches, trust: tr.Sources, facts: q.Facts}
}

func roundTrip(t *testing.T, v any) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatal(err)
	}
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestCheckServeRun plays the daemon: it restores the preload, applies
// three batches in a scrambled scenario order, and serves the result. The
// checker accepts the honest account and rejects each perturbation.
func TestCheckServeRun(t *testing.T) {
	world, preload := sharedPreload(t)
	daemon, err := core.RestoreShardedStream(bytes.NewReader(preload), 1)
	if err != nil {
		t.Fatal(err)
	}
	var acks []ack
	for k, i := range []int{preloadBatches + 1, preloadBatches, preloadBatches + 2} {
		if _, err := daemon.AddBatch(batchVotes(world.Batches[i])); err != nil {
			t.Fatal(err)
		}
		acks = append(acks, ack{scenario: i, batch: preloadBatches + k})
	}
	got := served(t, daemon)
	if err := checkServeRun(preload, world, acks, got); err != nil {
		t.Fatalf("honest run rejected: %v", err)
	}

	perturb := map[string]func(r *fullResult, a []ack){
		"trust bit": func(r *fullResult, _ []ack) {
			r.trust[3].Trust = math.Nextafter(r.trust[3].Trust, 2)
		},
		"fact probability": func(r *fullResult, _ []ack) {
			f := &r.facts[len(r.facts)-1]
			f.Probability = math.Nextafter(f.Probability, -1)
		},
		"fact order": func(r *fullResult, _ []ack) {
			n := len(r.facts)
			r.facts[n-1], r.facts[n-2] = r.facts[n-2], r.facts[n-1]
		},
		"missing fact": func(r *fullResult, _ []ack) { r.facts = r.facts[:len(r.facts)-1] },
		"ack order": func(_ *fullResult, a []ack) {
			a[0].scenario, a[1].scenario = a[1].scenario, a[0].scenario
		},
		"lost ack": func(_ *fullResult, a []ack) { a[2].batch++ },
	}
	for _, name := range []string{"trust bit", "fact probability", "fact order", "missing fact", "ack order", "lost ack"} {
		r := fullResult{batches: got.batches, trust: append([]serve.SourceTrustJSON(nil), got.trust...),
			facts: append([]serve.FactJSON(nil), got.facts...)}
		a := append([]ack(nil), acks...)
		perturb[name](&r, a)
		if err := checkServeRun(preload, world, a, r); err == nil {
			t.Errorf("%s: perturbed run accepted", name)
		}
	}
}

// TestStreamCheckRejectsPerturbation: the sharded stream agrees with the
// one-shard run, and both the comparison and the per-pass digest check
// catch a one-bit change.
func TestStreamCheckRejectsPerturbation(t *testing.T) {
	w, err := synth.GenerateScenario(synth.ScenarioConfig{Batches: 3, FactsPerBatch: 300, HonestSources: bulkSources, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sharded, seq := core.NewShardedStream(4), core.NewShardedStream(1)
	for _, b := range w.Batches {
		for _, st := range []*core.ShardedStream{sharded, seq} {
			if _, err := st.AddBatch(batchVotes(b)); err != nil {
				t.Fatal(err)
			}
		}
	}
	got, want := fromSnapshot(sharded.Snapshot()), fromSnapshot(seq.Snapshot())
	if err := diffCorroboration(got, want); err != nil {
		t.Fatalf("sharded run differs from the one-shard run: %v", err)
	}
	oneShard := corroborationDigest(want)
	if err := checkPasses([][32]byte{corroborationDigest(got), corroborationDigest(got)}, oneShard); err != nil {
		t.Fatalf("sharded passes differ from the one-shard run: %v", err)
	}
	facts := append([]core.StreamFact(nil), got.facts...)
	facts[10].Prediction = -facts[10].Prediction
	flipped := corroboration{batches: got.batches, facts: facts, trust: got.trust}
	if diffCorroboration(flipped, want) == nil {
		t.Error("flipped prediction accepted")
	}
	if checkPasses([][32]byte{corroborationDigest(got), corroborationDigest(flipped)}, oneShard) == nil {
		t.Error("pass with a flipped prediction accepted")
	}
	trust := make(map[string]float64, len(got.trust))
	for k, v := range got.trust {
		trust[k] = v
	}
	name := sortedKeys(trust)[0]
	trust[name] = math.Nextafter(trust[name], 0)
	nudged := corroboration{batches: got.batches, facts: got.facts, trust: trust}
	if diffCorroboration(nudged, want) == nil {
		t.Error("perturbed trust accepted")
	}
	if checkPasses([][32]byte{corroborationDigest(nudged)}, oneShard) == nil {
		t.Error("pass with perturbed trust accepted")
	}
}

// TestCrawlCheckRejectsPerturbation: repeated IncEstHeu runs agree, and a
// result one ulp off in one probability or one trust changes the digest.
func TestCrawlCheckRejectsPerturbation(t *testing.T) {
	d := truth.MotivatingExample()
	var digests [][32]byte
	var last *truth.Result
	for i := 0; i < 3; i++ {
		res, err := core.NewHeu().Run(d)
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, resultDigest(res))
		last = res
	}
	if err := checkRepeatable(digests); err != nil {
		t.Fatalf("repeated runs disagree: %v", err)
	}
	last.FactProb[0] = math.Nextafter(last.FactProb[0], 1)
	if checkRepeatable(append(digests, resultDigest(last))) == nil {
		t.Error("perturbed probability accepted")
	}
	last.FactProb[0] = math.Nextafter(last.FactProb[0], 0)
	last.Trust[1] = math.Nextafter(last.Trust[1], 0)
	if checkRepeatable(append(digests, resultDigest(last))) == nil {
		t.Error("perturbed trust accepted")
	}
}

// TestCrawlSeedsShareShape: the same seed builds the same world, and
// another seed builds another input of the same shape — the sources are
// relabeled, but the multiset of per-source vote counts is unchanged.
func TestCrawlSeedsShareShape(t *testing.T) {
	degrees := func(d *truth.Dataset) []int {
		out := make([]int, d.NumSources())
		for s := range out {
			out[s] = len(d.VotesBySource(s))
		}
		return out
	}
	a, again, b := degrees(buildCrawl(3)), degrees(buildCrawl(3)), degrees(buildCrawl(4))
	if !slices.Equal(a, again) {
		t.Fatal("same seed, different worlds")
	}
	if slices.Equal(a, b) {
		t.Error("seeds 3 and 4 gave the same source labels")
	}
	slices.Sort(a)
	slices.Sort(b)
	if !slices.Equal(a, b) {
		t.Error("seeds 3 and 4 gave worlds of different shape")
	}
}
