package servetrace_test

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"corroborate/internal/fault"
	"corroborate/internal/serve"
	"corroborate/perfbench/servetrace"
)

func get(t *testing.T, url string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode >= 300 {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
}

// TestSplitTilesHandlerTime wires the recorder into a real serving layer
// the way tracedcorrod does, sends ingests and queries, and checks that
// the phases of every acknowledged ingest add up to its handler time.
func TestSplitTilesHandlerTime(t *testing.T) {
	rec := servetrace.NewRecorder()
	srv, _, err := serve.New(serve.Config{Tenants: []serve.WorldConfig{{
		Name:           "t",
		CheckpointPath: filepath.Join(t.TempDir(), "checkpoint.json"),
		FS:             rec.FS(fault.OS()),
		Gate:           rec.Gate(func() int { return 0 }),
	}}})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(rec.Handler(srv.Handler()))
	defer hs.Close()

	get(t, hs.URL+servetrace.MarkPath+"?name=start")
	const batches = 5
	for b := 0; b < batches; b++ {
		body := fmt.Sprintf(`{"votes":[{"fact":"f%d","source":"a","vote":"T"},{"fact":"f%d","source":"b","vote":"F"}]}`, b, b)
		resp, err := http.Post(hs.URL+"/v1/tenants/t/ingest", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %d: %d", b, resp.StatusCode)
		}
	}
	get(t, hs.URL+"/v1/tenants/t/query?top=2")
	get(t, hs.URL+"/v1/tenants/t/trust")
	get(t, hs.URL+servetrace.MarkPath+"?name=end")
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}

	split, err := servetrace.Analyze(rec.Trace(), "start", "end")
	if err != nil {
		t.Fatal(err)
	}
	if len(split.Handler) != batches || len(split.Query) != 2 {
		t.Fatalf("%d acknowledged ingests and %d queries, want %d and 2", len(split.Handler), len(split.Query), batches)
	}
	if split.Fsyncs != 2*batches {
		t.Errorf("%d fsyncs for %d acknowledged ingests, want 2 each", split.Fsyncs, batches)
	}
	for i, h := range split.Handler {
		phases := []float64{split.Admit[i], split.Apply[i], split.Encode[i], split.Fsync[i], split.Rename[i], split.Publish[i]}
		total := 0.0
		for _, p := range phases {
			if p < 0 {
				t.Errorf("ingest %d has a negative phase: %v", i, phases)
			}
			total += p
		}
		if math.Abs(total-h) > 1e-6 {
			t.Errorf("ingest %d: phases sum to %.6fms, handler took %.6fms", i, total, h)
		}
		if split.CheckpointBytes[i] <= 0 || split.BodyBytes[i] <= 0 {
			t.Errorf("ingest %d: checkpoint %v bytes, body %v bytes", i, split.CheckpointBytes[i], split.BodyBytes[i])
		}
		if i > 0 && split.CheckpointBytes[i] <= split.CheckpointBytes[i-1] {
			t.Errorf("checkpoint did not grow from ingest %d to %d", i-1, i)
		}
	}

	if _, err := servetrace.Analyze(rec.Trace(), "start", "missing"); err == nil {
		t.Error("Analyze accepted an unknown mark")
	}
}
