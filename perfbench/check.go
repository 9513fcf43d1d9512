package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"corroborate/internal/core"
	"corroborate/internal/truth"
)

// corroboration is a stream's observable output: its batch count, its
// decided-fact log in evaluation order and the trust of every source.
type corroboration struct {
	batches int
	facts   []core.StreamFact
	trust   map[string]float64
}

func fromSnapshot(s core.StreamSnapshot) corroboration {
	return corroboration{batches: s.Batches, facts: s.Facts, trust: s.Trust}
}

func fromServed(r fullResult) (corroboration, error) {
	c := corroboration{batches: r.batches, trust: make(map[string]float64, len(r.trust))}
	for _, s := range r.trust {
		if _, dup := c.trust[s.Source]; dup {
			return c, fmt.Errorf("source %q listed twice in /trust", s.Source)
		}
		c.trust[s.Source] = s.Trust
	}
	c.facts = make([]core.StreamFact, len(r.facts))
	for i, f := range r.facts {
		c.facts[i] = core.StreamFact{Name: f.Fact, Batch: f.Batch, Probability: f.Probability, Prediction: f.Prediction}
	}
	return c, nil
}

// compareServed checks the daemon's served result against the reference
// stream's state.
func compareServed(ref *core.Stream, got fullResult) error {
	c, err := fromServed(got)
	if err != nil {
		return err
	}
	return diffCorroboration(c, fromSnapshot(ref.Snapshot()))
}

// diffCorroboration reports the first difference between two outputs;
// probabilities and trust must match bit for bit.
func diffCorroboration(got, want corroboration) error {
	if got.batches != want.batches {
		return fmt.Errorf("%d batches, want %d", got.batches, want.batches)
	}
	if len(got.facts) != len(want.facts) {
		return fmt.Errorf("%d decided facts, want %d", len(got.facts), len(want.facts))
	}
	for i, g := range got.facts {
		w := want.facts[i]
		if g.Name != w.Name || g.Batch != w.Batch || g.Prediction != w.Prediction ||
			math.Float64bits(g.Probability) != math.Float64bits(w.Probability) {
			return fmt.Errorf("decided fact %d is %+v, want %+v", i, g, w)
		}
	}
	if len(got.trust) != len(want.trust) {
		return fmt.Errorf("trust for %d sources, want %d", len(got.trust), len(want.trust))
	}
	names := make([]string, 0, len(want.trust))
	for name := range want.trust {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g, ok := got.trust[name]
		if !ok {
			return fmt.Errorf("no trust for source %q", name)
		}
		if w := want.trust[name]; math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Errorf("trust of %q is %v, want %v", name, g, w)
		}
	}
	return nil
}

// corroborationDigest hashes a stream's output — batch count, decided-fact
// log in order and trust by source name — bit for bit.
func corroborationDigest(c corroboration) [32]byte {
	h := sha256.New()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	putString := func(s string) {
		put(uint64(len(s)))
		h.Write([]byte(s))
	}
	put(uint64(c.batches))
	put(uint64(len(c.facts)))
	for _, f := range c.facts {
		putString(f.Name)
		put(uint64(int64(f.Batch)))
		put(uint64(int64(f.Prediction)))
		put(math.Float64bits(f.Probability))
	}
	names := make([]string, 0, len(c.trust))
	for name := range c.trust {
		names = append(names, name)
	}
	sort.Strings(names)
	put(uint64(len(names)))
	for _, name := range names {
		putString(name)
		put(math.Float64bits(c.trust[name]))
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// checkPasses requires every sharded pass's output digest to equal the
// one-shard run's.
func checkPasses(passes [][32]byte, seq [32]byte) error {
	for i, d := range passes {
		if d != seq {
			return fmt.Errorf("pass %d's decided log and trust digest %x differs from the one-shard run's %x", i, d[:8], seq[:8])
		}
	}
	return nil
}

// resultDigest hashes a batch result's predictions, probabilities and
// trust, bit for bit.
func resultDigest(r *truth.Result) [32]byte {
	h := sha256.New()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	put(uint64(len(r.FactProb)))
	for i, p := range r.FactProb {
		put(math.Float64bits(p))
		put(uint64(int64(r.Predictions[i])))
	}
	put(uint64(len(r.Trust)))
	for _, t := range r.Trust {
		put(math.Float64bits(t))
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// checkRepeatable requires every repetition's digest to equal the first.
func checkRepeatable(digests [][32]byte) error {
	for i, d := range digests {
		if d != digests[0] {
			return fmt.Errorf("repetition %d's prediction and trust digest %x differs from the first's %x", i, d[:8], digests[0][:8])
		}
	}
	return nil
}
