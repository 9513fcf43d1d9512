package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"corroborate/internal/truth"
)

// checkpointGoldenCases are the stream states whose checkpoint envelopes
// are pinned byte for byte under testdata/golden/checkpoint_*.json. They
// cover every branch of the encoder: omitted and present optional fields,
// the decay accumulator, both halves of the canonical name pair, the
// string escapes, and the 'e'-form float cutoffs.
var checkpointGoldenCases = []struct {
	name  string
	build func(t *testing.T) *Stream
}{
	{"empty", func(t *testing.T) *Stream { return NewStream() }},
	{"default", func(t *testing.T) *Stream {
		st := NewStream()
		feed(t, st, splitByFact(randomDataset(7, 5, 60), 3))
		return st
	}},
	{"allconfig", func(t *testing.T) *Stream {
		st := NewStream()
		st.Config = IncEstimate{
			Strategy:      SelectHeu,
			InitialTrust:  0.8,
			MaxRounds:     7,
			CandidateCap:  3,
			FullGroups:    true,
			FlipDeltaH:    true,
			SoftAbsorb:    true,
			AnchoredTrust: true,
			DeferBand:     0.05,
		}
		feed(t, st, splitByFact(randomDataset(23, 4, 30), 2))
		return st
	}},
	{"decay", func(t *testing.T) *Stream {
		st := NewStream()
		if err := st.SetTrustDecay(0.85); err != nil {
			t.Fatal(err)
		}
		feed(t, st, splitByFact(randomDataset(101, 6, 80), 4))
		return st
	}},
	{"names", func(t *testing.T) *Stream {
		st := NewStream()
		feed(t, st, [][]BatchVote{{
			{Fact: "<b>&amp;</b>", Source: "q\"uote\\back", Vote: truth.Affirm},
			{Fact: "<b>&amp;</b>", Source: "bad\xff\xfe", Vote: truth.Affirm},
			{Fact: "ctl\x00\x01\x1f\x7f\b\f\n\r\t", Source: "line\u2028para\u2029", Vote: truth.Affirm},
			{Fact: "ctl\x00\x01\x1f\x7f\b\f\n\r\t", Source: "<a&b>", Vote: truth.Deny},
			{Fact: "rep\ufffdlace", Source: "<a&b>", Vote: truth.Affirm},
			{Fact: "trunc\xc3", Source: "bad\xff\xfe", Vote: truth.Affirm},
			{Fact: "\u00fcn\u00ef\u00a9\u00f8d\u00e9 \u65e5\u672c", Source: "line\u2028para\u2029", Vote: truth.Affirm},
		}})
		return st
	}},
	{"floats", func(t *testing.T) *Stream {
		st := NewStream()
		feed(t, st, splitByFact(randomDataset(5, 7, 14), 2))
		credits := []float64{0, 1, 5e-324, 2.2250738585072014e-308, 1e-7, 9.99999e-7, 1e-6}
		for i := range st.state.credit {
			st.state.credit[i] = credits[i%len(credits)]
		}
		probs := []float64{0, 1, 1e-9, 1.5e-10, 4.9e-324, 0.5, 1e-6, 3.0000000000000004e-7, 0.30000000000000004}
		for i := range st.decided {
			p := probs[i%len(probs)]
			st.decided[i].Probability = p
			st.decided[i].Prediction = truth.LabelOf(p, truth.Threshold)
		}
		return st
	}},
}

// TestCheckpointGolden pins checkpoint bytes: each case's envelope must
// equal its committed fixture exactly, and each fixture must restore and
// re-encode to itself. The fixtures were written by the reflection-based
// encoder (encoding/json) that the append-based writer replaced, so this is
// also the proof that the swap changed no byte. Regenerate with
// `go test ./internal/core -run TestCheckpointGolden -update` only after a
// deliberate format change.
func TestCheckpointGolden(t *testing.T) {
	for _, tc := range checkpointGoldenCases {
		t.Run(tc.name, func(t *testing.T) {
			got := checkpointBytes(t, tc.build(t))
			path := filepath.Join("testdata", "golden", "checkpoint_"+tc.name+".json")
			if *updateStreamGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden fixture (run with -update to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("checkpoint bytes diverged from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
			restored, err := RestoreStream(bytes.NewReader(want))
			if err != nil {
				t.Fatalf("golden fixture does not restore: %v", err)
			}
			if again := checkpointBytes(t, restored); !bytes.Equal(again, want) {
				t.Fatalf("golden fixture is not a re-encode fixed point:\n%s", again)
			}
		})
	}
}

// TestCheckpointGoldenFloatForms guards the floats fixture against a
// silent loss of coverage: the 'e' form (with a cleaned exponent), the
// subnormals and both unit-interval ends must all appear in it.
func TestCheckpointGoldenFloatForms(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "golden", "checkpoint_floats.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"credit":5e-324`, `"credit":2.2250738585072014e-308`, `"credit":1e-7`,
		`"credit":9.99999e-7`, `"credit":0.000001`, `"credit":0,`, `"credit":1,`,
		`"probability":1e-9,`, `"probability":1.5e-10,`, `"probability":5e-324,`,
		`"probability":0,`, `"probability":1,`, `"probability":0.30000000000000004,`,
	} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("floats fixture lacks %s", want)
		}
	}
}
