package core

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"

	"corroborate/internal/synth"
	"corroborate/internal/truth"
)

func TestStreamBasics(t *testing.T) {
	st := NewStream()
	if st.Batches() != 0 {
		t.Fatal("fresh stream should have 0 batches")
	}
	out, err := st.AddBatch([]BatchVote{
		{Fact: "a", Source: "s1", Vote: truth.Affirm},
		{Fact: "a", Source: "s2", Vote: truth.Affirm},
		{Fact: "b", Source: "s1", Vote: truth.Affirm},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("batch decided %d facts, want 2", len(out))
	}
	for _, f := range out {
		if f.Prediction != truth.True {
			t.Errorf("fact %s predicted %v, want true", f.Name, f.Prediction)
		}
		if f.Batch != 0 {
			t.Errorf("fact %s batch = %d, want 0", f.Name, f.Batch)
		}
	}
	if st.Batches() != 1 {
		t.Errorf("Batches = %d, want 1", st.Batches())
	}
	tr := st.Trust()
	if tr["s1"] != 1 || tr["s2"] != 1 {
		t.Errorf("trust = %v, want all 1 after affirmed-true batch", tr)
	}
}

func TestStreamRejectsBadInput(t *testing.T) {
	st := NewStream()
	if _, err := st.AddBatch(nil); err == nil {
		t.Error("empty batch must be rejected")
	}
	if _, err := st.AddBatch([]BatchVote{{Fact: "x", Source: "s", Vote: truth.Absent}}); err == nil {
		t.Error("absent vote must be rejected")
	}
}

// TestStreamCarriesTrustAcrossBatches is the point of the API: a source
// exposed in batch 1 is distrusted in batch 2.
func TestStreamCarriesTrustAcrossBatches(t *testing.T) {
	st := NewStream()
	// Batch 1: the flagger denies three facts the laggard affirms, and
	// the flagger's own facts are corroborated by a third source.
	var batch1 []BatchVote
	for _, f := range []string{"x1", "x2", "x3"} {
		batch1 = append(batch1,
			BatchVote{Fact: f, Source: "flagger", Vote: truth.Deny},
			BatchVote{Fact: f, Source: "laggard", Vote: truth.Affirm},
		)
	}
	for _, f := range []string{"g1", "g2", "g3"} {
		batch1 = append(batch1,
			BatchVote{Fact: f, Source: "flagger", Vote: truth.Affirm},
			BatchVote{Fact: f, Source: "other", Vote: truth.Affirm},
		)
	}
	if _, err := st.AddBatch(batch1); err != nil {
		t.Fatal(err)
	}
	tr := st.Trust()
	if tr["laggard"] >= 0.5 {
		t.Fatalf("laggard trust = %v after exposure, want < 0.5", tr["laggard"])
	}
	if tr["flagger"] <= tr["laggard"] {
		t.Fatalf("flagger (%v) must out-trust laggard (%v)", tr["flagger"], tr["laggard"])
	}

	// Batch 2: solo affirmations from each source. The laggard's should be
	// rejected, the flagger's confirmed — with no conflict in this batch
	// at all, the verdicts come purely from carried-over trust.
	out, err := st.AddBatch([]BatchVote{
		{Fact: "solo-laggard", Source: "laggard", Vote: truth.Affirm},
		{Fact: "solo-flagger", Source: "flagger", Vote: truth.Affirm},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]truth.Label{}
	for _, f := range out {
		got[f.Name] = f.Prediction
	}
	if got["solo-laggard"] != truth.False {
		t.Errorf("solo-laggard = %v, want false (carried trust)", got["solo-laggard"])
	}
	if got["solo-flagger"] != truth.True {
		t.Errorf("solo-flagger = %v, want true", got["solo-flagger"])
	}
	if st.Batches() != 2 {
		t.Errorf("Batches = %d, want 2", st.Batches())
	}
	if len(st.Decided()) != 8 {
		t.Errorf("Decided holds %d facts, want 8", len(st.Decided()))
	}
}

func TestStreamNewSourcesGetDefaultTrust(t *testing.T) {
	st := NewStream()
	if _, err := st.AddBatch([]BatchVote{
		{Fact: "a", Source: "old", Vote: truth.Affirm},
	}); err != nil {
		t.Fatal(err)
	}
	out, err := st.AddBatch([]BatchVote{
		{Fact: "b", Source: "newcomer", Vote: truth.Affirm},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Prediction != truth.True {
		t.Error("a newcomer's affirmation starts at the default trust and confirms")
	}
	if tr := st.Trust()["newcomer"]; tr != 1 {
		t.Errorf("newcomer trust = %v after one confirmed fact", tr)
	}
}

func TestStreamBackedProtectionInBatch(t *testing.T) {
	st := NewStream()
	// Crash a laggard in batch 1.
	var batch []BatchVote
	for _, f := range []string{"x1", "x2", "x3", "x4"} {
		batch = append(batch,
			BatchVote{Fact: f, Source: "flagger", Vote: truth.Deny},
			BatchVote{Fact: f, Source: "laggard", Vote: truth.Affirm})
	}
	for _, f := range []string{"g1", "g2"} {
		batch = append(batch, BatchVote{Fact: f, Source: "flagger", Vote: truth.Affirm})
	}
	if _, err := st.AddBatch(batch); err != nil {
		t.Fatal(err)
	}
	// Batch 2: a fact backed by BOTH the crashed laggard and the healthy
	// flagger must be confirmed (backed-by-positive), not dragged under.
	out, err := st.AddBatch([]BatchVote{
		{Fact: "mixed", Source: "laggard", Vote: truth.Affirm},
		{Fact: "mixed", Source: "flagger", Vote: truth.Affirm},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Prediction != truth.True {
		t.Errorf("mixed fact = %v (p=%v), want true", out[0].Prediction, out[0].Probability)
	}
}

func TestStreamDeterministic(t *testing.T) {
	mk := func() []StreamFact {
		st := NewStream()
		st.AddBatch([]BatchVote{
			{Fact: "a", Source: "s1", Vote: truth.Affirm},
			{Fact: "b", Source: "s2", Vote: truth.Deny},
			{Fact: "b", Source: "s3", Vote: truth.Affirm},
			{Fact: "c", Source: "s1", Vote: truth.Affirm},
			{Fact: "c", Source: "s3", Vote: truth.Affirm},
		})
		st.AddBatch([]BatchVote{
			{Fact: "d", Source: "s3", Vote: truth.Affirm},
			{Fact: "e", Source: "s2", Vote: truth.Affirm},
		})
		return st.Decided()
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatal("stream runs differ in length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("stream runs diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestStreamAddBatchErrorPaths: every rejection mode names the offending
// vote, and a rejected batch is fully atomic — nothing is interned, no
// trust moves, no facts are decided.
func TestStreamAddBatchErrorPaths(t *testing.T) {
	st := NewStream()
	if _, err := st.AddBatch([]BatchVote{
		{Fact: "base", Source: "s1", Vote: truth.Affirm},
	}); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		votes []BatchVote
		want  string
	}{
		{"empty", nil, "core: empty batch"},
		{"absent vote", []BatchVote{
			{Fact: "x", Source: "newbie", Vote: truth.Absent},
		}, `core: batch vote on "x" by "newbie" carries unknown truth value -`},
		{"invalid vote", []BatchVote{
			{Fact: "x", Source: "newbie", Vote: truth.Vote(9)},
		}, `core: batch vote on "x" by "newbie" carries unknown truth value Vote(9)`},
		{"duplicate vote", []BatchVote{
			{Fact: "x", Source: "newbie", Vote: truth.Affirm},
			{Fact: "x", Source: "newbie", Vote: truth.Deny},
		}, `core: duplicate vote on "x" by "newbie" in batch`},
		{"duplicate after valid prefix", []BatchVote{
			{Fact: "x", Source: "other-newbie", Vote: truth.Affirm},
			{Fact: "y", Source: "newbie", Vote: truth.Affirm},
			{Fact: "y", Source: "newbie", Vote: truth.Affirm},
		}, `core: duplicate vote on "y" by "newbie" in batch`},
		{"duplicate before invalid vote", []BatchVote{
			{Fact: "x", Source: "newbie", Vote: truth.Affirm},
			{Fact: "y", Source: "s1", Vote: truth.Affirm},
			{Fact: "x", Source: "newbie", Vote: truth.Deny},
			{Fact: "z", Source: "s1", Vote: truth.Vote(-4)},
		}, `core: duplicate vote on "x" by "newbie" in batch`},
		{"invalid vote before duplicate", []BatchVote{
			{Fact: "x", Source: "newbie", Vote: truth.Affirm},
			{Fact: "z", Source: "s1", Vote: truth.Vote(7)},
			{Fact: "x", Source: "newbie", Vote: truth.Deny},
		}, `core: batch vote on "z" by "s1" carries unknown truth value Vote(7)`},
		{"absent vote after duplicate", []BatchVote{
			{Fact: "y", Source: "s1", Vote: truth.Affirm},
			{Fact: "x", Source: "newbie", Vote: truth.Affirm},
			{Fact: "y", Source: "s1", Vote: truth.Deny},
			{Fact: "x", Source: "newbie", Vote: truth.Deny},
			{Fact: "w", Source: "newbie", Vote: truth.Absent},
		}, `core: duplicate vote on "y" by "s1" in batch`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := st.AddBatch(tc.votes)
			if err == nil {
				t.Fatalf("batch accepted, want %q error", tc.want)
			}
			if err.Error() != tc.want {
				t.Fatalf("error %q, want %q", err, tc.want)
			}
			if oerr := validateBatch(tc.votes); oerr == nil || oerr.Error() != tc.want {
				t.Fatalf("oracle error %v, want %q", oerr, tc.want)
			}
			// Atomicity: the failed batch left no trace, not even interned
			// source names from the valid prefix of the batch.
			if st.Batches() != 1 || len(st.Decided()) != 1 {
				t.Fatalf("rejected batch mutated the stream: %d batches, %d decided",
					st.Batches(), len(st.Decided()))
			}
			tr := st.Trust()
			if len(tr) != 1 {
				t.Fatalf("rejected batch interned sources: %v", tr)
			}
		})
	}

	// The stream keeps working after rejections.
	if _, err := st.AddBatch([]BatchVote{
		{Fact: "after", Source: "s1", Vote: truth.Affirm},
	}); err != nil {
		t.Fatalf("valid batch after rejections: %v", err)
	}
	if st.Batches() != 2 {
		t.Fatalf("Batches = %d, want 2", st.Batches())
	}
}

// TestStreamConcurrentUse drives AddBatch, Trust, Decided, and Checkpoint
// from concurrent goroutines; under -race this proves the documented
// concurrency contract. Batches use disjoint fact names, so every fact must
// be decided exactly once regardless of interleaving.
func TestStreamConcurrentUse(t *testing.T) {
	st := NewStream()
	const writers, batchesPer = 4, 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batchesPer; b++ {
				fact := fmt.Sprintf("w%d-b%d", w, b)
				if _, err := st.AddBatch([]BatchVote{
					{Fact: fact, Source: "s1", Vote: truth.Affirm},
					{Fact: fact, Source: fmt.Sprintf("src-%d", w), Vote: truth.Affirm},
				}); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 16; i++ {
			for range st.Trust() {
			}
			_ = st.Decided()
			if err := st.Checkpoint(io.Discard); err != nil {
				t.Errorf("concurrent checkpoint: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	if got := st.Batches(); got != writers*batchesPer {
		t.Fatalf("Batches = %d, want %d", got, writers*batchesPer)
	}
	seen := make(map[string]bool)
	for _, sf := range st.Decided() {
		if seen[sf.Name] {
			t.Fatalf("fact %s decided twice", sf.Name)
		}
		seen[sf.Name] = true
	}
	if len(seen) != writers*batchesPer {
		t.Fatalf("decided %d facts, want %d", len(seen), writers*batchesPer)
	}
}

// TestAddBatchBytesPerVoteCeiling pins the batch pipeline's garbage: one
// fixed 2k-fact, 12-source batch into a fresh stream must allocate at most
// bytesPerVoteCeiling heap bytes per vote, averaged over a few runs. It
// measured 300 before the pipeline moved to interned IDs, 157 after, and
// 69 (also under -race) once batches stopped building a truth.Dataset and
// signature strings; BenchmarkStreamBulk then allocated 125,572,344 B and
// 1,351 allocs per op (was 241,794,144 B and 176,095). The ceiling leaves
// about 25% headroom.
func TestAddBatchBytesPerVoteCeiling(t *testing.T) {
	const bytesPerVoteCeiling = 87
	votes := scenarioBatches(t, synth.ScenarioConfig{
		Batches: 1, FactsPerBatch: 2000, HonestSources: 12, Seed: 1,
	})[0]
	const runs = 5
	n := float64(runs * len(votes))
	if n == 0 {
		t.Fatal("scenario produced an empty batch")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := NewStream().AddBatch(votes); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perVote := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%d votes: %.1f bytes per vote", len(votes), perVote)
	if perVote > bytesPerVoteCeiling {
		t.Fatalf("AddBatch allocates %.1f bytes per vote, ceiling %d", perVote, bytesPerVoteCeiling)
	}
}

// TestPostingListsSortsEveryLength lays out facts of 0 to 40 votes, with
// sources in shuffled order, so both of postingLists' per-fact sorts run
// (insertion sort up to truth.InsertionSortCutoff votes, slices.SortFunc
// beyond), and checks every list against a map of the votes, sorted by
// source. A repeated (fact, source) pair sets dup.
func TestPostingListsSortsEveryLength(t *testing.T) {
	const numFacts = 41
	state := uint64(7)
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state>>33) % n
	}
	var votes []BatchVote
	var factIDs []uint32
	for f := 0; f < numFacts; f++ {
		srcs := make([]int, f)
		for i := range srcs {
			srcs[i] = i
		}
		for i := len(srcs) - 1; i > 0; i-- {
			j := next(i + 1)
			srcs[i], srcs[j] = srcs[j], srcs[i]
		}
		for _, s := range srcs {
			vote := truth.Affirm
			if next(3) == 0 {
				vote = truth.Deny
			}
			votes = append(votes, BatchVote{Fact: fmt.Sprintf("f%d", f), Source: fmt.Sprintf("s%d", s), Vote: vote})
			factIDs = append(factIDs, uint32(f))
		}
	}
	// Interleave the facts' votes: the counting sort must regroup them.
	for i := len(votes) - 1; i > 0; i-- {
		j := next(i + 1)
		votes[i], votes[j] = votes[j], votes[i]
		factIDs[i], factIDs[j] = factIDs[j], factIDs[i]
	}

	st := NewStream()
	starts, arena, dup := st.postingLists(votes, factIDs, numFacts)
	if dup {
		t.Fatal("dup reported on distinct (fact, source) pairs")
	}
	want := make([]map[int]truth.Vote, numFacts)
	for i, v := range votes {
		if want[factIDs[i]] == nil {
			want[factIDs[i]] = make(map[int]truth.Vote)
		}
		id, _ := st.symtab.Lookup(v.Source)
		want[factIDs[i]][int(id)] = v.Vote
	}
	for f := 0; f < numFacts; f++ {
		list := arena[starts[f]:starts[f+1]]
		if len(list) != len(want[f]) {
			t.Fatalf("fact %d: %d votes, want %d", f, len(list), len(want[f]))
		}
		for i, sv := range list {
			if i > 0 && sv.Source <= list[i-1].Source {
				t.Fatalf("fact %d: sources not ascending at %d: %v", f, i, list)
			}
			if v, ok := want[f][sv.Source]; !ok || v != sv.Vote {
				t.Fatalf("fact %d: vote (%d, %v) not in the batch", f, sv.Source, sv.Vote)
			}
		}
	}

	votes = append(votes, votes[len(votes)/2])
	factIDs = append(factIDs, factIDs[len(factIDs)/2])
	if _, _, dup := NewStream().postingLists(votes, factIDs, numFacts); !dup {
		t.Fatal("repeated (fact, source) pair not reported")
	}
}
