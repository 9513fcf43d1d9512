package core

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"corroborate/internal/fault"
	"corroborate/internal/truth"
)

// firstBatchSignatures reproduces the group signatures addBatchLocked
// derives for a FRESH stream's first batch (sources interned in vote
// order), so tests can arm panic sites on real signatures.
func firstBatchSignatures(votes []BatchVote) []string {
	b := truth.NewBuilder()
	seen := make(map[string]int)
	for _, v := range votes {
		idx, ok := seen[v.Source]
		if !ok {
			idx = b.Source(v.Source)
			seen[v.Source] = idx
		}
		b.Vote(b.Fact(v.Fact), idx, v.Vote)
	}
	var sigs []string
	for _, g := range buildGroups(b.Build()) {
		sigs = append(sigs, g.signature())
	}
	return sigs
}

// TestPersistentPanicSurfacesTypedError: a panic deciding one group of a
// sharded stream's batch reaches the caller as a *GroupPanicError after
// firing once, and the stream is untouched, down to sources the failed
// batch tried to intern.
func TestPersistentPanicSurfacesTypedError(t *testing.T) {
	d := randomDataset(5, 5, 80)
	batches := splitByFact(d, 2)

	ref := NewStream()
	feed(t, ref, batches[:1])

	ss := NewShardedStream(4)
	feed(t, ss, batches[:1])
	preTrust := ss.Trust()
	preDecided := len(ss.Decided())
	var preCk bytes.Buffer
	if err := ss.Checkpoint(&preCk); err != nil {
		t.Fatal(err)
	}

	sigs := firstBatchSignatures(batches[1])
	panics := fault.NewPanics()
	panics.Arm(sigs[0], -1) // deterministic bug: would panic every time
	ss.InjectPanics(panics)

	_, err := ss.AddBatch(batches[1])
	var gp *GroupPanicError
	if !errors.As(err, &gp) {
		t.Fatalf("AddBatch error = %v, want *GroupPanicError", err)
	}
	if gp.Signature != sigs[0] {
		t.Errorf("panic signature = %q, want %q", gp.Signature, sigs[0])
	}
	if _, ok := gp.Value.(fault.Injected); !ok {
		t.Errorf("panic value = %#v, want fault.Injected", gp.Value)
	}
	if len(gp.Stack) == 0 {
		t.Error("panic stack not captured")
	}
	if got := panics.Fired(sigs[0]); got != 1 {
		t.Errorf("site fired %d times, want 1 (no retry)", got)
	}

	// Atomicity: the failed batch left no trace.
	if got := len(ss.Decided()); got != preDecided {
		t.Fatalf("decided %d facts after failed batch, want %d", got, preDecided)
	}
	gotTrust := ss.Trust()
	if len(gotTrust) != len(preTrust) {
		t.Fatalf("failed batch interned sources: %d trust entries, want %d", len(gotTrust), len(preTrust))
	}
	for name, tr := range preTrust {
		if gotTrust[name] != tr {
			t.Fatalf("trust[%s] moved to %v from %v on a failed batch", name, gotTrust[name], tr)
		}
	}
	var postCk bytes.Buffer
	if err := ss.Checkpoint(&postCk); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(preCk.Bytes(), postCk.Bytes()) {
		t.Fatal("checkpoint bytes changed across a failed batch")
	}

	// Disarm and replay: the stream continues exactly where it stood.
	ss.InjectPanics(nil)
	feed(t, ss, batches[1:])
	feed(t, ref, batches[1:])
	requireStreamsIdentical(t, "post-recovery continuation", ss, ref)
}

// TestSequentialStreamPanicIsTypedAndAtomic: a panicking decision rejects
// the batch with the typed error, atomically.
func TestSequentialStreamPanicIsTypedAndAtomic(t *testing.T) {
	d := randomDataset(9, 4, 30)
	votes := batchVotesOf(d)
	sigs := firstBatchSignatures(votes)
	panics := fault.NewPanics()
	panics.Arm(sigs[0], 1)

	st := NewStream()
	st.InjectPanics(panics)
	_, err := st.AddBatch(votes)
	var gp *GroupPanicError
	if !errors.As(err, &gp) {
		t.Fatalf("AddBatch error = %v, want *GroupPanicError", err)
	}
	if st.Batches() != 0 || len(st.Decided()) != 0 || len(st.Trust()) != 0 {
		t.Fatal("failed first batch left state behind")
	}
	// The injected panic is spent; the retry succeeds and matches a clean run.
	out, err := st.AddBatch(votes)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewStream()
	refOut, err := ref.AddBatch(votes)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(refOut) {
		t.Fatalf("retry decided %d facts, want %d", len(out), len(refOut))
	}
	requireStreamsIdentical(t, "retry after spent panic", st, ref)
}

// countdownCtx reports cancellation after its Err has been consulted n
// times; Done/Deadline/Value delegate to Background. It gives tests a
// deterministic mid-pipeline cancellation point without goroutine timing.
type countdownCtx struct {
	context.Context
	remaining atomic.Int64
}

func newCountdownCtx(allow int) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.remaining.Store(int64(allow))
	return c
}

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func TestAddBatchContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st := NewStream()
	if _, err := st.AddBatchContext(ctx, batchVotesOf(randomDataset(2, 3, 10))); !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if st.Batches() != 0 || len(st.Trust()) != 0 {
		t.Fatal("cancelled batch left state behind")
	}
}

// TestAddBatchContextMidBatchCancellation: cancellation striking between
// group decisions rejects the batch atomically; the stream remains at the
// previous batch boundary, checkpointable, and continues byte-identically
// once the pressure is gone.
func TestAddBatchContextMidBatchCancellation(t *testing.T) {
	d := randomDataset(11, 6, 150)
	batches := splitByFact(d, 3)

	ref := NewShardedStream(4)
	feed(t, ref, batches)

	ss := NewShardedStream(4)
	feed(t, ss, batches[:1])
	var preCk bytes.Buffer
	if err := ss.Checkpoint(&preCk); err != nil {
		t.Fatal(err)
	}

	// Allow exactly the entry check, then cancel: the decide loop and the
	// point-of-no-return check both see a dead context.
	ctx := newCountdownCtx(1)
	if _, err := ss.AddBatchContext(ctx, batches[1]); !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	var postCk bytes.Buffer
	if err := ss.Checkpoint(&postCk); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(preCk.Bytes(), postCk.Bytes()) {
		t.Fatal("cancelled batch changed checkpoint bytes")
	}

	// The checkpoint taken at the cancellation boundary restores and both
	// copies replay the remaining batches to the reference state.
	restored, err := RestoreShardedStream(bytes.NewReader(postCk.Bytes()), 4)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, ss, batches[1:])
	feed(t, restored, batches[1:])
	requireStreamsIdentical(t, "continue after cancel", ss, ref)
	requireStreamsIdentical(t, "restored after cancel", restored, ref)
}

func TestRunContextCancellation(t *testing.T) {
	d := randomDataset(21, 6, 200)
	e := &IncEstimate{Strategy: SelectHeu}
	for _, tc := range []struct {
		name        string
		runDetailed func(context.Context) (*Run, error)
	}{
		{"engine", func(ctx context.Context) (*Run, error) { return e.RunDetailedContext(ctx, d) }},
		{"reference", func(ctx context.Context) (*Run, error) { return referenceRun(ctx, e, d) }},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := tc.runDetailed(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: pre-cancelled error = %v, want context.Canceled", tc.name, err)
		}

		// Cancel at a later round boundary: the loop checks once per round.
		if _, err := tc.runDetailed(newCountdownCtx(2)); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: mid-run error = %v, want context.Canceled", tc.name, err)
		}

		// An unpressured context changes nothing.
		run, err := tc.runDetailed(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		base, err := e.RunDetailed(d)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(run.Trajectory) != len(base.Trajectory) {
			t.Fatalf("%s: context run took %d rounds, plain run %d",
				tc.name, len(run.Trajectory), len(base.Trajectory))
		}
	}

	// The public RunContext entry point keeps the same contract.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.RunContext(ctx, d); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext: pre-cancelled error = %v, want context.Canceled", err)
	}
	if _, err := e.RunContext(newCountdownCtx(2), d); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext: mid-run error = %v, want context.Canceled", err)
	}
	res, err := e.RunContext(context.Background(), d)
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	plain, err := e.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, plain) {
		t.Fatal("RunContext under an unpressured context differs from Run")
	}
}
