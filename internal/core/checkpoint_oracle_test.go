package core

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"unicode/utf8"

	"corroborate/internal/truth"
)

// encodeName splits a name into the canonical field pair of the oracle's
// structs: valid UTF-8 in Name, anything else base64 in NameB64.
func encodeName(name string) (plain, b64 string) {
	if utf8.ValidString(name) {
		return name, ""
	}
	return "", base64.StdEncoding.EncodeToString([]byte(name))
}

// oracleCheckpoint is the reflection-based checkpoint encoder the
// append-based writer replaced, kept only as the test oracle: it builds
// the checkpointState value tree, marshals it with encoding/json, and
// marshals the envelope around it. Production must write the same bytes
// and fail on the same states.
func oracleCheckpoint(st *Stream) ([]byte, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	cs := checkpointState{
		Config: checkpointConfig{
			Strategy:      st.Config.Strategy.String(),
			InitialTrust:  st.Config.InitialTrust,
			MaxRounds:     st.Config.MaxRounds,
			CandidateCap:  st.Config.CandidateCap,
			FullGroups:    st.Config.FullGroups,
			FlipDeltaH:    st.Config.FlipDeltaH,
			SoftAbsorb:    st.Config.SoftAbsorb,
			AnchoredTrust: st.Config.AnchoredTrust,
			DeferBand:     st.Config.DeferBand,
		},
	}
	if st.initDone {
		cs.DefaultTrust = st.state.defaultTrust
	}
	cs.TrustDecay = st.decay
	for i := 0; i < st.symtab.Len(); i++ {
		plain, b64 := encodeName(st.symtab.Name(uint32(i)))
		src := checkpointSource{
			Name:    plain,
			NameB64: b64,
			Credit:  st.state.credit[i],
			Count:   st.state.count[i],
		}
		if st.state.fcount != nil {
			src.CountF = st.state.fcount[i]
		}
		cs.Sources = append(cs.Sources, src)
	}
	for _, sf := range st.decided {
		plain, b64 := encodeName(sf.Name)
		cs.Decided = append(cs.Decided, checkpointFact{
			Name:        plain,
			NameB64:     b64,
			Batch:       sf.Batch,
			Probability: sf.Probability,
			Prediction:  sf.Prediction,
		})
	}
	payload, err := json.Marshal(cs)
	if err != nil {
		return nil, fmt.Errorf("core: encoding checkpoint state: %w", err)
	}
	env := checkpointEnvelope{
		Format:   checkpointFormat,
		Version:  checkpointVersion,
		Checksum: fmt.Sprintf("%08x", crc32.ChecksumIEEE(payload)),
		State:    payload,
	}
	out, err := json.Marshal(env)
	if err != nil {
		return nil, fmt.Errorf("core: encoding checkpoint envelope: %w", err)
	}
	return append(out, '\n'), nil
}

// requireOracleBytes asserts Checkpoint and the oracle agree on st: the
// same bytes, or both an error with nothing written.
func requireOracleBytes(t *testing.T, label string, st *Stream) {
	t.Helper()
	want, werr := oracleCheckpoint(st)
	var got bytes.Buffer
	err := st.Checkpoint(&got)
	if (err == nil) != (werr == nil) {
		t.Fatalf("%s: Checkpoint error %v, oracle error %v", label, err, werr)
	}
	if err != nil {
		if got.Len() != 0 {
			t.Fatalf("%s: failed Checkpoint still wrote %d bytes", label, got.Len())
		}
		return
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("%s: checkpoint bytes differ from the encoding/json oracle\n--- got ---\n%s--- oracle ---\n%s", label, got.Bytes(), want)
	}
}

func TestCheckpointMatchesOracle(t *testing.T) {
	for _, tc := range checkpointGoldenCases {
		requireOracleBytes(t, tc.name, tc.build(t))
	}
	// A long history at several checkpoints, re-encoded through a warm
	// buffer each time.
	st := NewStream()
	for i, b := range splitByFact(randomDataset(31, 8, 400), 20) {
		if _, err := st.AddBatch(b); err != nil {
			t.Fatal(err)
		}
		requireOracleBytes(t, fmt.Sprintf("batch %d", i), st)
	}
}

// TestCheckpointUnsupportedValues keeps encoding/json's failure modes: a
// NaN or infinite float or an invalid label fails Checkpoint and Save
// instead of writing unparseable JSON or Label(5), and the previous
// checkpoint file stays in place.
func TestCheckpointUnsupportedValues(t *testing.T) {
	cases := []struct {
		name   string
		poison func(st *Stream)
	}{
		{"NaN credit", func(st *Stream) { st.state.credit[1] = math.NaN() }},
		{"+Inf probability", func(st *Stream) { st.decided[2].Probability = math.Inf(1) }},
		{"-Inf decayed mass", func(st *Stream) { st.state.fcount[0] = math.Inf(-1) }},
		{"NaN config", func(st *Stream) { st.Config.DeferBand = math.NaN() }},
		{"invalid label", func(st *Stream) { st.decided[0].Prediction = truth.Label(5) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := NewStream()
			if err := st.SetTrustDecay(0.9); err != nil {
				t.Fatal(err)
			}
			feed(t, st, splitByFact(randomDataset(3, 4, 20), 2))
			sink := NewCheckpointSink(filepath.Join(t.TempDir(), "state.json"))
			sink.MaxRetries = -1
			if err := sink.Save(st); err != nil {
				t.Fatal(err)
			}
			before, err := os.ReadFile(sink.Path)
			if err != nil {
				t.Fatal(err)
			}
			tc.poison(st)
			requireOracleBytes(t, tc.name, st)
			if err := st.Checkpoint(io.Discard); err == nil {
				t.Fatal("Checkpoint accepted an unsupported value")
			}
			if err := sink.Save(st); err == nil {
				t.Fatal("Save accepted an unsupported value")
			}
			if after, err := os.ReadFile(sink.Path); err != nil || !bytes.Equal(after, before) {
				t.Fatalf("a failed Save replaced the previous checkpoint (read error %v)", err)
			}
		})
	}
}

// TestCheckpointConcurrent checkpoints one stream from several goroutines
// while batches land; under -race it proves the encode, which runs under
// the stream lock, and the write to w, which does not, share nothing.
func TestCheckpointConcurrent(t *testing.T) {
	st := NewStream()
	batches := splitByFact(randomDataset(9, 6, 120), 12)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				var buf bytes.Buffer
				if err := st.Checkpoint(&buf); err != nil {
					errs <- err
					return
				}
				if _, err := RestoreStream(&buf); err != nil {
					errs <- fmt.Errorf("concurrent checkpoint does not restore: %w", err)
					return
				}
			}
		}()
	}
	feed(t, st, batches)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	requireOracleBytes(t, "after concurrent checkpoints", st)
}

// TestCheckpointEncodeAllocCeiling: the encoder writes into one buffer
// sized from the previous envelope, so allocations per Checkpoint stay a
// small constant however large the state grows (the reflection encoder
// allocated per fact and per source).
func TestCheckpointEncodeAllocCeiling(t *testing.T) {
	allocs := func(batches int) float64 {
		st := NewStream()
		feed(t, st, serveShapeBatches(batches))
		if err := st.Checkpoint(io.Discard); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if err := st.Checkpoint(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(10), allocs(400)
	const ceiling = 2
	if small > ceiling || large > ceiling {
		t.Fatalf("allocs per Checkpoint: %.1f at 10 batches, %.1f at 400; ceiling %d at any size", small, large, ceiling)
	}
}

// FuzzCheckpointOracle: for random stream states — random worlds and
// batch splits, with or without decay, arbitrary source and fact names,
// and arbitrary float bits planted in a credit, a decayed mass and a
// probability —
// Checkpoint writes exactly the oracle's bytes, or fails exactly when the
// oracle fails.
func FuzzCheckpointOracle(f *testing.F) {
	f.Add(uint64(1), uint8(5), uint8(40), uint8(3), false, "src", "fact", math.Float64bits(0.5), math.Float64bits(0.25))
	f.Add(uint64(2), uint8(8), uint8(90), uint8(5), true, "<a&b>", "line\xe2\x80\xa8", math.Float64bits(1e-7), math.Float64bits(5e-324))
	f.Add(uint64(3), uint8(3), uint8(10), uint8(1), false, "bad\xff", "\x00\x1f\"\\", math.Float64bits(math.NaN()), math.Float64bits(1))
	f.Add(uint64(4), uint8(1), uint8(1), uint8(1), true, "", "", math.Float64bits(0), math.Float64bits(0.25))
	f.Add(uint64(5), uint8(4), uint8(30), uint8(2), false, "s", "f", math.Float64bits(0.5), math.Float64bits(math.Inf(-1)))
	f.Fuzz(func(t *testing.T, seed uint64, sources, facts, parts uint8, decay bool, source, fact string, creditBits, probBits uint64) {
		st := NewStream()
		if decay {
			if err := st.SetTrustDecay(0.8); err != nil {
				t.Fatal(err)
			}
		}
		d := randomDataset(seed, 1+int(sources)%10, 1+int(facts)%80)
		for _, b := range splitByFact(d, 1+int(parts)%6) {
			if _, err := st.AddBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := st.AddBatch([]BatchVote{{Fact: fact, Source: source, Vote: truth.Affirm}}); err != nil {
			t.Fatal(err)
		}
		requireOracleBytes(t, "live state", st)
		st.mu.Lock()
		src := int(seed % uint64(len(st.state.credit)))
		st.state.credit[src] = math.Float64frombits(creditBits)
		if st.state.fcount != nil {
			// Decayed mass may underflow to 0, which omits count_f.
			st.state.fcount[(src+1)%len(st.state.fcount)] = math.Float64frombits(creditBits)
		}
		st.decided[int(seed%uint64(len(st.decided)))].Probability = math.Float64frombits(probBits)
		st.mu.Unlock()
		requireOracleBytes(t, "planted floats", st)
	})
}
