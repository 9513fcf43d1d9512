package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"corroborate/internal/core"
)

// TestPreloadDeterministic: the same seed gives byte-identical checkpoint
// bytes, and the checkpoint restores to exactly preloadBatches batches.
func TestPreloadDeterministic(t *testing.T) {
	_, first := sharedPreload(t)
	world, err := serveScenario(7)
	if err != nil {
		t.Fatal(err)
	}
	second, err := writePreload(world, filepath.Join(t.TempDir(), "checkpoint.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("same seed, different checkpoint bytes (%d vs %d bytes)", len(first), len(second))
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "checkpoint.json")
	if err := os.WriteFile(path, first, 0o644); err != nil {
		t.Fatal(err)
	}
	st, report, err := core.NewCheckpointSink(path).Restore(1)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Resumed || st.Batches() != preloadBatches {
		t.Fatalf("restore: resumed=%v batches=%d, want %d", report.Resumed, st.Batches(), preloadBatches)
	}
	// A fact nobody voted on is never decided.
	voted := make(map[string]bool)
	for _, b := range world.Batches[:preloadBatches] {
		for _, v := range b.Votes {
			voted[v.Fact] = true
		}
	}
	if got := len(st.Snapshot().Facts); got != len(voted) {
		t.Fatalf("restored %d decided facts, want %d", got, len(voted))
	}
}

// TestMeasuredBatchesContinueTheScenario: the batches sent during a run
// come after the preload and never reuse a preloaded fact name.
func TestMeasuredBatchesContinueTheScenario(t *testing.T) {
	world, _ := sharedPreload(t)
	seen := make(map[string]bool)
	for i, b := range world.Batches {
		for _, f := range b.Facts {
			if seen[f] {
				t.Fatalf("batch %d repeats fact %q", i, f)
			}
			seen[f] = true
		}
	}
	if len(world.Batches) != scenarioBatches {
		t.Fatalf("%d scenario batches, want %d", len(world.Batches), scenarioBatches)
	}
}

// TestSpecsMatchBenchmarkJSON keeps the metric lists the command prints in
// step with BENCHMARK.json at the repository root.
func TestSpecsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command has %d", len(bench.Workloads), len(workloads))
	}
	if len(bench.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the command %d", len(bench.EndToEnd), len(endToEnd))
	}
	for i, m := range bench.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %s/%s, command %s/%s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(bench.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the command %d", len(bench.PerLayer), len(perLayer))
	}
	for i, m := range bench.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s/%s, command %s/%s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestResultLineRequiresEveryEndToEndMetric: an untraced run that missed a
// metric is an error, and a traced run reports a bypassed layer as 0.
func TestResultLineRequiresEveryEndToEndMetric(t *testing.T) {
	out := &outcome{attempted: 1, metrics: map[string]float64{"setup_s": 1}}
	if _, err := resultLine(out, endToEnd, false); err == nil {
		t.Fatal("untraced result with missing metrics accepted")
	}
	line, err := resultLine(out, perLayer, true)
	if err != nil {
		t.Fatal(err)
	}
	var res resultJSON
	if err := json.Unmarshal(line, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(perLayer) || !res.Correct {
		t.Fatalf("traced result %s", line)
	}
}
