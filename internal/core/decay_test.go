package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"corroborate/internal/synth"
	"corroborate/internal/truth"
)

// scenarioBatches renders a synth adversarial scenario into stream batches.
func scenarioBatches(t testing.TB, cfg synth.ScenarioConfig) [][]BatchVote {
	t.Helper()
	w, err := synth.GenerateScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	batches := make([][]BatchVote, 0, len(w.Batches))
	for _, b := range w.Batches {
		votes := make([]BatchVote, 0, len(b.Votes))
		for _, v := range b.Votes {
			votes = append(votes, BatchVote{Fact: v.Fact, Source: v.Source, Vote: v.Vote})
		}
		batches = append(batches, votes)
	}
	return batches
}

// driftScenario is a drift-heavy world the decay differential tests share:
// flipping and decaying sources plus churn, where decay actually matters.
func driftScenario() synth.ScenarioConfig {
	return synth.ScenarioConfig{
		Batches: 6, FactsPerBatch: 80, HonestSources: 8,
		Blocs:     []synth.BlocConfig{{Sources: 2, Strength: 0.25}},
		Drift:     synth.DriftConfig{DecaySources: 2, Decay: 0.7, FlipSources: 1, FlipAt: 3},
		ChurnRate: 0.15,
		Seed:      41,
	}
}

func TestSetTrustDecayValidation(t *testing.T) {
	st := NewStream()
	for _, bad := range []float64{math.NaN(), -0.1, 1.5, math.Inf(1)} {
		if err := st.SetTrustDecay(bad); err == nil {
			t.Errorf("SetTrustDecay(%v) must fail", bad)
		}
	}
	// Both off switches normalize to the canonical zero.
	for _, off := range []float64{0, 1} {
		if err := st.SetTrustDecay(off); err != nil {
			t.Fatalf("SetTrustDecay(%v): %v", off, err)
		}
		if got := st.TrustDecay(); got != 0 {
			t.Errorf("TrustDecay() after SetTrustDecay(%v) = %v, want 0", off, got)
		}
	}
	if err := st.SetTrustDecay(0.9); err != nil {
		t.Fatal(err)
	}
	if got := st.TrustDecay(); got != 0.9 {
		t.Errorf("TrustDecay() = %v, want 0.9", got)
	}
	// Once a batch has run the factor is frozen.
	if _, err := st.AddBatch([]BatchVote{{Fact: "f", Source: "s", Vote: truth.Affirm}}); err != nil {
		t.Fatal(err)
	}
	if err := st.SetTrustDecay(0.5); err == nil {
		t.Error("SetTrustDecay after a batch must fail")
	}
	if got := st.TrustDecay(); got != 0.9 {
		t.Errorf("failed SetTrustDecay moved the factor to %v", got)
	}
}

// TestDecayDisabledMatchesGolden: a stream constructed through the decay
// API with the off value remains byte-identical to the pre-decay engine —
// the same fixtures TestStreamGolden locks.
func TestDecayDisabledMatchesGolden(t *testing.T) {
	for _, cfg := range streamGoldenConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			st := NewStream()
			if err := st.SetTrustDecay(0); err != nil {
				t.Fatal(err)
			}
			feed(t, st, splitByFact(randomDataset(cfg.seed, cfg.sources, cfg.facts), cfg.parts))
			want, err := os.ReadFile(filepath.Join("testdata", "golden", "stream_"+cfg.name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			if got := renderStreamState(st); got != string(want) {
				t.Error("decay-disabled stream diverged from the pre-decay golden fixture")
			}
		})
	}
}

// TestDecayChangesTrajectory: enabling decay on a multi-batch stream must
// actually change the outcome (otherwise the option is a no-op and the
// byte-identity tests above prove nothing).
func TestDecayChangesTrajectory(t *testing.T) {
	batches := scenarioBatches(t, driftScenario())
	plain, decayed := NewStream(), NewStream()
	if err := decayed.SetTrustDecay(0.5); err != nil {
		t.Fatal(err)
	}
	feed(t, plain, batches)
	feed(t, decayed, batches)
	pt, dt := plain.Trust(), decayed.Trust()
	moved := false
	for name, tr := range pt {
		if dt[name] != tr {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("decay 0.5 over a drift-heavy 6-batch stream left every trust value bit-identical")
	}
}

// TestDecayShardDifferential: with decay enabled, ShardedStream output is
// byte-identical across shard counts {1, 4, 7} and to the sequential
// stream.
func TestDecayShardDifferential(t *testing.T) {
	for _, lambda := range []float64{0.5, 0.9} {
		batches := scenarioBatches(t, driftScenario())
		ref := NewStream()
		if err := ref.SetTrustDecay(lambda); err != nil {
			t.Fatal(err)
		}
		feed(t, ref, batches)
		for _, shards := range []int{1, 4, 7} {
			ss := NewShardedStream(shards)
			if err := ss.SetTrustDecay(lambda); err != nil {
				t.Fatal(err)
			}
			feed(t, ss, batches)
			requireStreamsIdentical(t, fmt.Sprintf("λ=%v shards=%d", lambda, shards), ss, ref)
		}
	}
}

// TestDecayCheckpointRoundTrip: a decayed stream checkpoints and restores
// mid-history with byte-identical continuation, the re-encode is a fixed
// point, and the decay factor survives the trip.
func TestDecayCheckpointRoundTrip(t *testing.T) {
	batches := scenarioBatches(t, driftScenario())
	full := NewStream()
	if err := full.SetTrustDecay(0.8); err != nil {
		t.Fatal(err)
	}
	feed(t, full, batches[:3])

	var buf bytes.Buffer
	if err := full.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	snapshot := append([]byte(nil), buf.Bytes()...)
	restored, err := RestoreStream(bytes.NewReader(snapshot))
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.TrustDecay(); got != 0.8 {
		t.Fatalf("restored decay = %v, want 0.8", got)
	}
	var again bytes.Buffer
	if err := restored.Checkpoint(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshot, again.Bytes()) {
		t.Fatal("re-encode of a restored decayed checkpoint is not a fixed point")
	}
	// Continue both and compare bit-for-bit — restoring into a sharded
	// stream too, since checkpoints are shard-agnostic.
	sharded, err := RestoreShardedStream(bytes.NewReader(snapshot), 4)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, full, batches[3:])
	feed(t, restored, batches[3:])
	feed(t, sharded, batches[3:])
	requireStreamsIdentical(t, "restored", restored, full)
	requireStreamsIdentical(t, "restored-sharded", sharded, full)
}

// TestDecayCheckpointRejectsInconsistentMass: the strict decoder refuses
// checkpoints whose decay fields are internally inconsistent.
func TestDecayCheckpointRejectsInconsistentMass(t *testing.T) {
	st := NewStream()
	if err := st.SetTrustDecay(0.8); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddBatch([]BatchVote{
		{Fact: "a", Source: "s1", Vote: truth.Affirm},
		{Fact: "a", Source: "s2", Vote: truth.Affirm},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddBatch([]BatchVote{{Fact: "b", Source: "s1", Vote: truth.Affirm}}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	// Re-seal each tampered state under a fresh valid checksum, so the
	// semantic validator (not the CRC) is what must reject it.
	forge := func(t *testing.T, old, new string) []byte {
		t.Helper()
		var env checkpointEnvelope
		if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
			t.Fatal(err)
		}
		state := strings.ReplaceAll(string(env.State), old, new)
		if state == string(env.State) {
			t.Fatalf("mutation %q did not apply; state is %s", old, env.State)
		}
		env.State = json.RawMessage(state)
		env.Checksum = fmt.Sprintf("%08x", crc32.ChecksumIEEE(env.State))
		out, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	mutations := []struct {
		name string
		old  string
		new  string
	}{
		{"decay above 1", `"trust_decay":0.8`, `"trust_decay":1.8`},
		{"negative decay", `"trust_decay":0.8`, `"trust_decay":-0.8`},
		{"NaN-smuggling decay", `"trust_decay":0.8`, `"trust_decay":1e999`},
		{"mass above count", `"count_f":1.8`, `"count_f":3.5`},
		{"negative mass", `"count_f":1.8`, `"count_f":-1`},
		{"orphan mass", `"trust_decay":0.8,`, ``},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			if _, err := RestoreStream(bytes.NewReader(forge(t, m.old, m.new))); err == nil {
				t.Fatal("mutated checkpoint must be rejected")
			}
		})
	}
}

// TestDecayTrustBounds: decayed trust stays a probability no matter how
// long the stream runs, and an idle source's trust is unchanged by decay
// (ratios are preserved).
func TestDecayTrustBounds(t *testing.T) {
	batches := scenarioBatches(t, synth.ScenarioConfig{
		Batches: 10, FactsPerBatch: 40, HonestSources: 6,
		Drift: synth.DriftConfig{FlipSources: 2, FlipAt: 5},
		Seed:  3,
	})
	st := NewStream()
	if err := st.SetTrustDecay(0.6); err != nil {
		t.Fatal(err)
	}
	feed(t, st, batches)
	for name, tr := range st.Trust() {
		if math.IsNaN(tr) || tr < 0 || tr > 1 {
			t.Fatalf("trust[%s] = %v escaped [0, 1] under decay", name, tr)
		}
	}
}

// TestDecayRecoversFromFlip: the point of decay — after a source flips
// from reliable to adversarial, the decayed stream's trust in it falls
// well below the undecayed stream's, which is still dominated by the
// pre-flip history.
func TestDecayRecoversFromFlip(t *testing.T) {
	batches := scenarioBatches(t, synth.ScenarioConfig{
		Batches: 12, FactsPerBatch: 100, HonestSources: 6,
		Drift: synth.DriftConfig{FlipSources: 1, FlipAt: 6},
		Seed:  23,
	})
	plain, decayed := NewStream(), NewStream()
	if err := decayed.SetTrustDecay(0.5); err != nil {
		t.Fatal(err)
	}
	feed(t, plain, batches)
	feed(t, decayed, batches)
	flipper := "honest00"
	pt, dt := plain.Trust()[flipper], decayed.Trust()[flipper]
	if !(dt < pt-0.05) {
		t.Errorf("after 6 post-flip batches, decayed trust %v is not clearly below undecayed %v", dt, pt)
	}
}
