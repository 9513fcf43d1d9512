// Package servetrace records where the time of a served request goes,
// from outside the serving layer: a wrapper around the daemon's HTTP
// handler, a timing wrapper around the checkpoint filesystem, and a gate
// stamp taken when the tenant consumer dequeues a job. All three hook into
// public injection points (serve.Server.Handler, serve.WorldConfig.FS and
// serve.WorldConfig.Gate), so the daemon code under test is unchanged.
//
// The recorder keeps every span in memory; Trace copies them out for the
// benchmark to analyse after the daemon exits.
package servetrace

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"corroborate/internal/fault"
)

// Event kinds of the consumer-side log, in the order one acknowledged
// ingest produces them.
const (
	EvGate     = "gate"     // consumer dequeued a job (N = jobs still queued)
	EvCreate   = "create"   // checkpoint temp file creation starts
	EvSync0    = "sync0"    // temp file fsync starts (N = bytes written to it)
	EvSync1    = "sync1"    // ... and ends
	EvSyncDir0 = "syncdir0" // directory fsync starts
	EvSyncDir1 = "syncdir1" // ... and ends
)

// MarkPath is the endpoint the handler wrapper answers itself:
// MarkPath?name=X records a runtime/metrics reading named X.
const MarkPath = "/perfbench/mark"

// Event is one timestamped point of the consumer-side log. T is
// nanoseconds since the recorder started.
type Event struct {
	Kind string `json:"kind"`
	T    int64  `json:"t"`
	N    int64  `json:"n,omitempty"`
}

// Request is one HTTP request seen by the handler wrapper.
type Request struct {
	Kind      string `json:"kind"` // ingest, query, trust or other
	Start     int64  `json:"start"`
	End       int64  `json:"end"`
	Status    int    `json:"status"`
	Batch     int    `json:"batch"` // acknowledged batch index (ingest 200 only), else -1
	BodyBytes int64  `json:"body_bytes"`
}

// Mark is a runtime/metrics reading taken when the load generator asks
// for one, bracketing a measured phase.
type Mark struct {
	Name       string  `json:"name"`
	T          int64   `json:"t"`
	GCCPU      float64 `json:"gc_cpu_seconds"`
	TotalCPU   float64 `json:"total_cpu_seconds"`
	AllocBytes uint64  `json:"alloc_bytes"`
}

// Trace is everything one daemon process recorded.
type Trace struct {
	// StartBatches is how many batches the tenant held once restored.
	StartBatches int `json:"start_batches"`
	// RestoreNS is how long serve.New took, checkpoint restore included.
	RestoreNS int64     `json:"restore_ns"`
	Events    []Event   `json:"events"`
	Requests  []Request `json:"requests"`
	Marks     []Mark    `json:"marks"`
}

// Recorder collects one daemon's spans. Its methods are safe for
// concurrent use.
type Recorder struct {
	base time.Time
	mu   sync.Mutex
	tr   Trace
}

// NewRecorder starts a recorder; all times are offsets from now.
func NewRecorder() *Recorder { return &Recorder{base: time.Now()} }

func (r *Recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *Recorder) event(kind string, t, n int64) {
	r.mu.Lock()
	r.tr.Events = append(r.tr.Events, Event{Kind: kind, T: t, N: n})
	r.mu.Unlock()
}

// SetRestore records the restore time and the restored batch count.
func (r *Recorder) SetRestore(d time.Duration, batches int) {
	r.mu.Lock()
	r.tr.RestoreNS, r.tr.StartBatches = int64(d), batches
	r.mu.Unlock()
}

// Trace returns a copy of everything recorded so far.
func (r *Recorder) Trace() Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.tr
	t.Events = append([]Event(nil), t.Events...)
	t.Requests = append([]Request(nil), t.Requests...)
	t.Marks = append([]Mark(nil), t.Marks...)
	return t
}

// Gate returns a serve.WorldConfig.Gate hook that stamps each dequeue.
// depth reports the jobs still queued; it may return -1 while the world
// is not yet known.
func (r *Recorder) Gate(depth func() int) func() {
	return func() { r.event(EvGate, r.now(), int64(depth())) }
}

// FS wraps a checkpoint filesystem with span stamps around the calls the
// crash-consistency protocol makes on every save.
func (r *Recorder) FS(inner fault.FS) fault.FS { return &timedFS{r: r, inner: inner} }

type timedFS struct {
	r     *Recorder
	inner fault.FS
}

func (t *timedFS) CreateTemp(dir, pattern string) (fault.File, error) {
	t.r.event(EvCreate, t.r.now(), 0)
	f, err := t.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, r: t.r}, nil
}

func (t *timedFS) Open(name string) (fault.File, error) { return t.inner.Open(name) }

func (t *timedFS) Rename(oldpath, newpath string) error { return t.inner.Rename(oldpath, newpath) }

func (t *timedFS) Remove(name string) error { return t.inner.Remove(name) }

func (t *timedFS) SyncDir(dir string) error {
	t.r.event(EvSyncDir0, t.r.now(), 0)
	err := t.inner.SyncDir(dir)
	t.r.event(EvSyncDir1, t.r.now(), 0)
	return err
}

// timedFile counts the bytes written to a checkpoint temp file and
// stamps its fsync.
type timedFile struct {
	fault.File
	r       *Recorder
	written int64
}

func (f *timedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.written += int64(n)
	return n, err
}

func (f *timedFile) Sync() error {
	f.r.event(EvSync0, f.r.now(), f.written)
	err := f.File.Sync()
	f.r.event(EvSync1, f.r.now(), 0)
	return err
}

// Handler wraps the daemon's handler: it times every request, keeps the
// acknowledged batch index of each ingest, and answers MarkPath?name=X
// itself with a runtime/metrics reading.
func (r *Recorder) Handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == MarkPath {
			r.mark(req.URL.Query().Get("name"))
			w.WriteHeader(http.StatusNoContent)
			return
		}
		kind := requestKind(req.URL.Path)
		body := &countingBody{ReadCloser: req.Body}
		req.Body = body
		cw := &captureWriter{ResponseWriter: w, status: http.StatusOK, keep: kind == "ingest"}
		start := r.now()
		next.ServeHTTP(cw, req)
		end := r.now()
		rec := Request{Kind: kind, Start: start, End: end, Status: cw.status, Batch: -1, BodyBytes: body.n}
		if kind == "ingest" && cw.status == http.StatusOK {
			var ack struct {
				Batch int `json:"batch"`
			}
			if json.Unmarshal(cw.buf.Bytes(), &ack) == nil {
				rec.Batch = ack.Batch
			}
		}
		r.mu.Lock()
		r.tr.Requests = append(r.tr.Requests, rec)
		r.mu.Unlock()
	})
}

func requestKind(path string) string {
	switch {
	case strings.HasSuffix(path, "/ingest"):
		return "ingest"
	case strings.HasSuffix(path, "/query"):
		return "query"
	case strings.HasSuffix(path, "/trust"):
		return "trust"
	}
	return "other"
}

var markMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func (r *Recorder) mark(name string) {
	samples := make([]metrics.Sample, len(markMetrics))
	for i, m := range markMetrics {
		samples[i].Name = m
	}
	metrics.Read(samples)
	m := Mark{Name: name, T: r.now()}
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		m.GCCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		m.TotalCPU = samples[1].Value.Float64()
	}
	if samples[2].Value.Kind() == metrics.KindUint64 {
		m.AllocBytes = samples[2].Value.Uint64()
	}
	r.mu.Lock()
	r.tr.Marks = append(r.tr.Marks, m)
	r.mu.Unlock()
}

type countingBody struct {
	io.ReadCloser
	n int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

// captureWriter remembers the status and, when keep is set, a copy of the
// body.
type captureWriter struct {
	http.ResponseWriter
	status int
	keep   bool
	buf    bytes.Buffer
}

func (c *captureWriter) WriteHeader(status int) {
	c.status = status
	c.ResponseWriter.WriteHeader(status)
}

func (c *captureWriter) Write(p []byte) (int, error) {
	if c.keep {
		c.buf.Write(p)
	}
	return c.ResponseWriter.Write(p)
}
