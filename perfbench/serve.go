package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"corroborate/internal/core"
	"corroborate/internal/serve"
	"corroborate/internal/synth"
	"corroborate/perfbench/servetrace"
)

// serve-longlived load shape. The open-loop ingest rate is fixed at about
// half the closed-loop capacity corrod showed on this workload under
// neighbour load when the benchmark was written (README.md). The query
// mix runs beside it at half the ingest rate, the read:write ratio of
// cmd/loadgen's defaults (-query-qps 25 beside -qps 50), and cycles
// evenly through top=10, a limit=50 page and /trust, as loadgen
// alternates evenly between its page and /trust reads. Each query goes
// out at its own point of the ingest cycle (see queryPhase).
const (
	serveTenant     = "bench"
	serveIngestRate = 6.0                   // batches per second
	serveQueryRate  = serveIngestRate * 0.5 // queries per second
	serveOpenShare  = 0.7                   // share of the run spent in the open loop
	serveSetups     = 5                     // daemon starts per run; setup_s is their median
	serveFullReads  = 60                    // full result reads per run; corroborate_s is their median
	serveReadPage   = 5000
	clientTimeout   = 30 * time.Second
)

// ack is one acknowledged ingest: the scenario batch sent and the batch
// index the daemon reported for it.
type ack struct {
	scenario, batch int
}

// serveLoad is the state shared by the load generator's senders.
type serveLoad struct {
	world     *synth.ScenarioWorld
	base      string
	mu        sync.Mutex
	acks      []ack
	queryBody [][]byte // /query answers, decoded only after the open loop
}

func runServeLonglived(cfg config) (*outcome, error) {
	dir, err := workDir(cfg)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := refuseMemoryFS(dir); err != nil {
		return nil, err
	}
	world, err := serveScenario(cfg.seed)
	if err != nil {
		return nil, err
	}
	dataDir := filepath.Join(dir, "data")
	if err := os.MkdirAll(filepath.Join(dataDir, serveTenant), 0o755); err != nil {
		return nil, err
	}
	preload, err := writePreload(world, filepath.Join(dataDir, serveTenant, "checkpoint.json"))
	if err != nil {
		return nil, err
	}

	bin := filepath.Join(cfg.bin, "corrod")
	if cfg.trace {
		bin = filepath.Join(cfg.bin, "tracedcorrod")
	}
	args := func(i int) []string {
		a := []string{"-addr", "127.0.0.1:0", "-addr-file", filepath.Join(dir, "addr"),
			"-data", dataDir, "-tenants", serveTenant}
		if cfg.trace {
			a = append(a, "-trace-out", filepath.Join(dir, fmt.Sprintf("trace-%d.json", i)))
		}
		return a
	}

	// Set-up: start the daemon several times on the preload; each start
	// restores the checkpoint. The last one stays up for the load. The
	// others are killed, not drained: a daemon may not yet handle SIGTERM
	// when /readyz first answers, and nothing was written since the
	// restore, so the next start restores the same checkpoint.
	var setups []float64
	var d *daemon
	for i := 0; i < serveSetups; i++ {
		var took time.Duration
		d, took, err = startDaemon(bin, args(i), filepath.Join(dir, "addr"), filepath.Join(dir, fmt.Sprintf("daemon-%d.log", i)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if i < serveSetups-1 {
			d.kill()
		}
	}
	defer d.kill()

	load := &serveLoad{world: world, base: d.base}
	clients := newClients(runtime.NumCPU(), clientTimeout)
	defer closeClients(clients)
	ctx := context.Background()
	mark := func(name string) error {
		if !cfg.trace {
			return nil
		}
		return load.get(ctx, clients[0], servetrace.MarkPath+"?name="+name, http.StatusNoContent, nil)
	}

	total := time.Duration(cfg.seconds) * time.Second
	openDur := time.Duration(float64(total) * serveOpenShare)
	ingestShots, queryShots := load.openLoopShots(openDur, cfg.seed)
	// Queries get a connection of their own, as an independent reader
	// would have; ingests get the rest (all of them on a 1-CPU machine).
	queryClients, ingestClients := clients[:1], clients[1:]
	if len(ingestClients) == 0 {
		ingestClients = clients
	}
	if err := mark("load-start"); err != nil {
		return nil, err
	}
	var queryResults []shotResult
	queriesDone := make(chan struct{})
	go func() {
		defer close(queriesDone)
		queryResults = runOpenLoop(ctx, queryShots, queryClients)
	}()
	results := runOpenLoop(ctx, ingestShots, ingestClients)
	<-queriesDone
	results = append(results, queryResults...)
	queryHits, err := load.queryHits()
	if err != nil {
		return nil, err
	}
	if err := mark("open-end"); err != nil {
		return nil, err
	}
	openIngests := len(ingestShots)
	closedDur := total - openDur
	closedDone, closedVotes, closedErrs := runClosedLoop(ctx, closedDur, clients,
		func(ctx context.Context, c *http.Client, n int) (int, error) {
			i := preloadBatches + openIngests + n
			if i >= len(world.Batches) {
				return 0, fmt.Errorf("scenario exhausted at batch %d", i)
			}
			return len(world.Batches[i].Votes), load.ingest(ctx, c, i)
		})
	if err := mark("load-end"); err != nil {
		return nil, err
	}

	// The full corroborated result, read back several times: its median
	// read time is corroborate_s. The first read is decoded and checked;
	// the tenant is idle, so every later read must return the same bytes.
	first, err := load.readAll(ctx, clients[0])
	if err != nil {
		return nil, err
	}
	reads := []float64{first.took.Seconds()}
	var rereadErr error
	for i := 1; i < serveFullReads; i++ {
		bodies, took, err := load.reread(ctx, clients[0], first.paths)
		if err != nil {
			return nil, err
		}
		reads = append(reads, took.Seconds())
		if rereadErr == nil && !slices.EqualFunc(bodies, first.bodies, bytes.Equal) {
			rereadErr = fmt.Errorf("read %d of the idle tenant differs from the first", i)
		}
	}
	rss, err := peakRSSMB(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, err
	}

	out := &outcome{
		samples: map[string][]float64{"setup_s": setups, "full_read_s": reads},
		info: map[string]any{
			"preload_batches": preloadBatches, "checkpoint_bytes": len(preload),
			"ingest_rate": serveIngestRate, "query_rate": serveQueryRate,
			"open_seconds": openDur.Seconds(), "closed_seconds": closedDur.Seconds(),
			"clients": len(clients), "acked": len(load.acks),
		},
	}
	var ingestLat, queryLat, late []float64
	shapeLat := map[string][]float64{}
	for _, r := range results {
		out.attempted++
		if r.err != nil {
			out.failed++
			continue
		}
		late = append(late, ms(r.late()))
		if r.kind == "ingest" {
			ingestLat = append(ingestLat, ms(r.latency()))
		} else {
			queryLat = append(queryLat, ms(r.latency()))
			shapeLat[r.kind] = append(shapeLat[r.kind], ms(r.latency()))
		}
	}
	for _, err := range closedErrs {
		out.attempted++
		if err != nil {
			out.failed++
		}
	}
	out.samples["ingest_ms"], out.samples["query_ms"], out.samples["gen_late_ms"] = ingestLat, queryLat, late
	capacity := ratio(float64(closedDone), closedDur.Seconds())
	out.e2e = map[string]float64{
		"ingest_p50_ms":       quantile(ingestLat, 0.5),
		"ingest_p95_ms":       quantile(ingestLat, 0.95),
		"query_p50_ms":        meanOfMedians(shapeLat["top"], shapeLat["page"], shapeLat["trust"]),
		"query_p95_ms":        quantile(queryLat, 0.95),
		"ingest_capacity_bps": capacity,
		"votes_per_s":         ratio(float64(closedVotes), closedDur.Seconds()),
		"corroborate_s":       median(reads),
		"setup_s":             median(setups),
		"rss_mb":              rss,
	}
	out.checkErr = checkServeRun(preload, world, load.acks, first.result)
	if out.checkErr == nil {
		out.checkErr = rereadErr
	}
	if len(ingestLat) == 0 || len(shapeLat["top"]) == 0 || len(shapeLat["page"]) == 0 || len(shapeLat["trust"]) == 0 || closedDone == 0 {
		return nil, fmt.Errorf("no successful ingest or query to time (%d failed of %d)", out.failed, out.attempted)
	}

	if !cfg.trace {
		out.metrics = out.e2e
		return out, nil
	}
	layers, err := serveLayers(dir, queryHits, out)
	if err != nil {
		return nil, err
	}
	out.metrics = layers
	return out, nil
}

// serveLayers turns the traced daemons' recordings into the per-layer
// split of the open-loop phase.
func serveLayers(dir string, queryHits []float64, out *outcome) (map[string]float64, error) {
	var restores []float64
	var last servetrace.Trace
	for i := 0; i < serveSetups; i++ {
		data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("trace-%d.json", i)))
		if err != nil {
			return nil, err
		}
		var tr servetrace.Trace
		if err := json.Unmarshal(data, &tr); err != nil {
			return nil, fmt.Errorf("decoding trace %d: %w", i, err)
		}
		restores = append(restores, time.Duration(tr.RestoreNS).Seconds())
		last = tr
	}
	split, err := servetrace.Analyze(last, "load-start", "open-end")
	if err != nil {
		return nil, err
	}
	acks := float64(len(split.Handler))
	out.samples["trace.handler_ms"] = split.Handler
	out.samples["trace.admit_ms"] = split.Admit
	out.samples["trace.apply_ms"] = split.Apply
	out.samples["trace.encode_ms"] = split.Encode
	out.samples["trace.fsync_ms"] = split.Fsync
	out.samples["trace.rename_ms"] = split.Rename
	out.samples["trace.publish_ms"] = split.Publish
	out.samples["trace.restore_s"] = restores
	return map[string]float64{
		"serve.admit_ms.p50":       quantile(split.Admit, 0.5),
		"serve.admit_ms.p95":       quantile(split.Admit, 0.95),
		"serve.queue_depth_p95":    quantile(split.QueueDepth, 0.95),
		"core.stream.apply_ms":     median(split.Apply),
		"core.sink.encode_ms":      median(split.Encode),
		"core.sink.fsync_ms":       median(split.Fsync),
		"core.sink.rename_ms":      median(split.Rename),
		"core.sink.bytes_per_ack":  ratio(sum(split.CheckpointBytes), acks),
		"core.sink.write_amp":      ratio(sum(split.CheckpointBytes), sum(split.BodyBytes)),
		"core.sink.fsyncs_per_ack": ratio(float64(split.Fsyncs), acks),
		"serve.publish_ms":         median(split.Publish),
		"serve.handler_ms":         median(split.Handler),
		"serve.query_ms.p50":       quantile(split.Query, 0.5),
		"serve.query_ms.p95":       quantile(split.Query, 0.95),
		"serve.query_facts":        ratio(sum(queryHits), float64(len(queryHits))),
		"runtime.gc_cpu_frac":      split.GCCPUFrac,
		"runtime.alloc_mb_per_ack": ratio(split.AllocBytes/(1<<20), acks),
		"core.sink.restore_s":      median(restores),
		"error_frac":               ratio(float64(out.failed), float64(out.attempted)),
		"gen_late_ms.p95":          quantile(out.samples["gen_late_ms"], 0.95),
		"gen_late_ms.max":          maxOf(out.samples["gen_late_ms"]),
		"ingest_p95_ms":            out.e2e["ingest_p95_ms"],
		"query_p95_ms":             out.e2e["query_p95_ms"],
	}, nil
}

// openLoopShots schedules the open loop: ingests at serveIngestRate
// continuing the scenario after the preload, and the query mix at
// serveQueryRate, each in due order.
func (l *serveLoad) openLoopShots(d time.Duration, seed int64) (ingests, queries []shot) {
	nIngest := int(d.Seconds() * serveIngestRate)
	for k := 0; k < nIngest; k++ {
		i := preloadBatches + k
		ingests = append(ingests, shot{
			due:  time.Duration(float64(k) / serveIngestRate * float64(time.Second)),
			kind: "ingest",
			send: func(ctx context.Context, c *http.Client) error { return l.ingest(ctx, c, i) },
		})
	}
	nQuery := int(d.Seconds() * serveQueryRate)
	prefix := "/v1/tenants/" + serveTenant
	// Page offsets are spread over the preloaded log by a fixed
	// multiplicative step, so every seed reads the same mix of depths.
	step := uint64(seed)*2654435761 + 40503
	for j := 0; j < nQuery; j++ {
		var path, kind string
		switch j % 3 {
		case 0:
			path, kind = prefix+"/query?top=10", "top"
		case 1:
			off := (uint64(j) * step) % uint64(preloadBatches*serveFacts-50)
			path, kind = prefix+"/query?offset="+strconv.FormatUint(off, 10)+"&limit=50", "page"
		default:
			path, kind = prefix+"/trust", "trust"
		}
		queries = append(queries, shot{
			due:  time.Duration((float64(j) + queryPhase(seed, j)) / serveQueryRate * float64(time.Second)),
			kind: kind,
			send: func(ctx context.Context, c *http.Client) error {
				data, err := l.fetch(ctx, c, path, http.StatusOK)
				if err != nil || kind == "trust" {
					return err
				}
				l.mu.Lock()
				l.queryBody = append(l.queryBody, data)
				l.mu.Unlock()
				return nil
			},
		})
	}
	return ingests, queries
}

// queryPhase is where in its 1/serveQueryRate slot query j goes out, as a
// share of the slot. The two loops run at fixed rates whose periods divide
// each other, so one fixed phase would send every query at the same point
// of the ingest cycle (at mid-slot, together with an ingest, so each read
// raced that ingest's checkpoint encode). Stepping the phase by the golden
// ratio from a seeded start spreads the queries evenly over the ingest
// cycle, as readers that do not know the writer's schedule arrive, and
// every seed gets the same even spread.
func queryPhase(seed int64, j int) float64 {
	const golden, plastic = 0.6180339887498949, 0.7548776662466927
	x := float64(seed)*plastic + float64(j)*golden
	return x - math.Floor(x)
}

// queryHits decodes the /query answers of the open loop and returns the
// facts each one held.
func (l *serveLoad) queryHits() ([]float64, error) {
	hits := make([]float64, 0, len(l.queryBody))
	for _, data := range l.queryBody {
		var resp struct {
			Facts []json.RawMessage `json:"facts"`
		}
		if err := decode("/query", data, &resp); err != nil {
			return nil, err
		}
		hits = append(hits, float64(len(resp.Facts)))
	}
	return hits, nil
}

// ingest posts scenario batch i and records the acknowledged batch index.
// Anything but 200 (429, 503 and 504 included) is an error.
func (l *serveLoad) ingest(ctx context.Context, c *http.Client, i int) error {
	b := l.world.Batches[i]
	req := serve.IngestRequest{Votes: make([]serve.VoteJSON, len(b.Votes))}
	for k, v := range b.Votes {
		req.Votes[k] = serve.VoteJSON{Fact: v.Fact, Source: v.Source, Vote: v.Vote}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, l.base+"/v1/tenants/"+serveTenant+"/ingest", bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("ingest of scenario batch %d: status %d: %s", i, resp.StatusCode, bytes.TrimSpace(data))
	}
	var got struct {
		Batch int `json:"batch"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		return fmt.Errorf("ingest of scenario batch %d: %w", i, err)
	}
	l.mu.Lock()
	l.acks = append(l.acks, ack{scenario: i, batch: got.Batch})
	l.mu.Unlock()
	return nil
}

// get fetches path, requires the status, and decodes the body into v
// unless v is nil (the body is still read in full).
func (l *serveLoad) get(ctx context.Context, c *http.Client, path string, want int, v any) error {
	data, err := l.fetch(ctx, c, path, want)
	if err != nil || v == nil {
		return err
	}
	return decode(path, data, v)
}

// fetch reads the whole body of GET path and requires the status.
func (l *serveLoad) fetch(ctx context.Context, c *http.Client, path string, want int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, l.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

func decode(path string, data []byte, v any) error {
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// fullResult is the tenant's whole corroboration as the daemon serves it.
type fullResult struct {
	batches int
	trust   []serve.SourceTrustJSON
	facts   []serve.FactJSON
}

// fullRead is one read of the whole corroboration: the decoded result,
// the paths fetched and their bodies in fetch order, and the time the
// requests and the reading of their bodies took (not the decoding).
type fullRead struct {
	result fullResult
	paths  []string
	bodies [][]byte
	took   time.Duration
}

// readAll reads /trust and pages through the entire decided-fact log.
func (l *serveLoad) readAll(ctx context.Context, c *http.Client) (fullRead, error) {
	var r fullRead
	get := func(path string, v any) error {
		t0 := time.Now()
		data, err := l.fetch(ctx, c, path, http.StatusOK)
		r.took += time.Since(t0)
		if err != nil {
			return err
		}
		r.paths, r.bodies = append(r.paths, path), append(r.bodies, data)
		return decode(path, data, v)
	}
	var tr serve.TrustResponse
	if err := get("/v1/tenants/"+serveTenant+"/trust", &tr); err != nil {
		return r, err
	}
	r.result.batches, r.result.trust = tr.Batches, tr.Sources
	for {
		var page serve.QueryResponse
		path := fmt.Sprintf("/v1/tenants/%s/query?offset=%d&limit=%d", serveTenant, len(r.result.facts), serveReadPage)
		if err := get(path, &page); err != nil {
			return r, err
		}
		if page.Batches != r.result.batches {
			return r, fmt.Errorf("tenant moved from %d to %d batches during the read", r.result.batches, page.Batches)
		}
		r.result.facts = append(r.result.facts, page.Facts...)
		if len(page.Facts) == 0 || len(r.result.facts) >= page.Total {
			return r, nil
		}
	}
}

// reread fetches the paths of a full read again and returns their bodies
// and the time the requests took.
func (l *serveLoad) reread(ctx context.Context, c *http.Client, paths []string) ([][]byte, time.Duration, error) {
	bodies := make([][]byte, 0, len(paths))
	var took time.Duration
	for _, path := range paths {
		t0 := time.Now()
		data, err := l.fetch(ctx, c, path, http.StatusOK)
		took += time.Since(t0)
		if err != nil {
			return nil, took, err
		}
		bodies = append(bodies, data)
	}
	return bodies, took, nil
}

// daemon is one running corrod (or tracedcorrod) process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	// exited is closed once the process has ended; err is its exit status
	// and may be read only after that.
	exited chan struct{}
	err    error
}

// startDaemon starts bin and waits until /readyz answers 200; the
// returned duration runs from process start to that answer, so it
// includes the checkpoint restore.
func startDaemon(bin string, args []string, addrFile, logPath string) (*daemon, time.Duration, error) {
	if err := os.Remove(addrFile); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: exec.Command(bin, args...), exited: make(chan struct{})}
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	dieWithParent(d.cmd)
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		_ = logf.Close() // nothing was written yet
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		d.err = d.cmd.Wait()
		_ = logf.Close() // the child wrote the log; its close error has no reader
		close(d.exited)
	}()
	probe := &http.Client{Timeout: time.Second}
	defer probe.CloseIdleConnections()
	deadline := t0.Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("%s exited before ready (%v); log %s", bin, d.err, logPath)
		default:
		}
		if d.base == "" {
			if b, err := os.ReadFile(addrFile); err == nil {
				d.base = "http://" + string(bytes.TrimSpace(b))
			}
		}
		if d.base != "" {
			if resp, err := probe.Get(d.base + "/readyz"); err == nil {
				_, _ = io.Copy(io.Discard, resp.Body) // drain for connection reuse; a short read does not matter here
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, time.Since(t0), nil
				}
			}
		}
		time.Sleep(time.Millisecond)
	}
	d.kill()
	return nil, 0, fmt.Errorf("%s not ready within 60s; log %s", bin, logPath)
}

// stop drains the daemon with SIGTERM and requires a clean exit.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signalling the daemon: %w", err)
	}
	select {
	case <-d.exited:
	case <-time.After(60 * time.Second):
		d.kill()
		return errors.New("daemon did not drain within 60s")
	}
	if d.err != nil {
		return fmt.Errorf("daemon drain: %w", d.err)
	}
	return nil
}

// kill ends the process if it is still running and waits for it.
func (d *daemon) kill() {
	// The process may have exited on its own already; the kill error then
	// says so and the wait below returns at once.
	_ = d.cmd.Process.Kill()
	<-d.exited
}

// checkServeRun replays the run on a reference stream: restored from the
// preload, fed the acknowledged batches in the order the daemon reported,
// it must hold exactly the daemon's trust and decided-fact log.
func checkServeRun(preload []byte, world *synth.ScenarioWorld, acks []ack, got fullResult) error {
	ref, err := core.RestoreStream(bytes.NewReader(preload))
	if err != nil {
		return fmt.Errorf("restoring the preload: %w", err)
	}
	order := append([]ack(nil), acks...)
	sort.Slice(order, func(a, b int) bool { return order[a].batch < order[b].batch })
	for k, a := range order {
		if a.batch != preloadBatches+k {
			return fmt.Errorf("acknowledged batch %d at position %d: the daemon's batch order has a gap", a.batch, k)
		}
		if _, err := ref.AddBatch(batchVotes(world.Batches[a.scenario])); err != nil {
			return fmt.Errorf("reference batch %d: %w", a.batch, err)
		}
	}
	return compareServed(ref, got)
}
