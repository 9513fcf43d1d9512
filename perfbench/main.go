// Command perfbench is the repository benchmark. It runs one workload
// against the corroboration system, checks the outputs, and prints one
// JSON result line:
//
//	perfbench --workload serve-longlived --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//   - serve-longlived: the corrod daemon, in its own process, resumed from
//     a seeded 2000-batch checkpoint, under an open loop of 10-fact ingest
//     batches and queries, then a closed loop that measures capacity.
//   - stream-bulk: an in-process ShardedStream absorbing 20k-fact batches.
//   - batch-crawl: IncEstHeu on a 200k-fact crawl-shaped world.
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
// holds the per-layer split, measured around public entry points and
// injection hooks (a benchmark-owned server main for serve-longlived).
// A layer a workload never enters reads 0 in the per-layer split. Every
// run also writes a run record (machine fingerprint, raw samples, tracing
// overhead) under <state>/records. README.md defines each metric.
//
// perfbench/run.sh builds the binaries and calls this command; the exit
// status is nonzero when an output check fails or the run cannot start.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// metricSpec names one reported metric and its unit; the lists mirror
// BENCHMARK.json (TestSpecsMatchBenchmarkJSON keeps them in step).
type metricSpec struct {
	name, unit string
}

var endToEnd = []metricSpec{
	{"ingest_p50_ms", "ms"},
	{"query_p50_ms", "ms"},
	{"ingest_capacity_bps", "1/s"},
	{"votes_per_s", "1/s"},
	{"corroborate_s", "s"},
	{"setup_s", "s"},
	{"rss_mb", "MB"},
}

var perLayer = []metricSpec{
	{"serve.admit_ms.p50", "ms"},
	{"serve.admit_ms.p95", "ms"},
	{"serve.queue_depth_p95", "count"},
	{"core.stream.apply_ms", "ms"},
	{"core.sink.encode_ms", "ms"},
	{"core.sink.fsync_ms", "ms"},
	{"core.sink.rename_ms", "ms"},
	{"core.sink.bytes_per_ack", "bytes"},
	{"core.sink.write_amp", "ratio"},
	{"core.sink.fsyncs_per_ack", "count"},
	{"serve.publish_ms", "ms"},
	{"serve.handler_ms", "ms"},
	{"serve.query_ms.p50", "ms"},
	{"serve.query_ms.p95", "ms"},
	{"serve.query_facts", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.alloc_mb_per_ack", "MB"},
	{"core.sink.restore_s", "s"},
	{"core.stream.addbatch_ms.p50", "ms"},
	{"core.stream.addbatch_ms.max", "ms"},
	{"core.stream.snapshot_ms", "ms"},
	{"core.stream.allocs_per_vote", "count"},
	{"core.stream.bytes_per_vote", "bytes"},
	{"core.stream.seq_votes_per_s", "1/s"},
	{"core.stream.checkpoint_ms", "ms"},
	{"core.stream.checkpoint_bytes", "bytes"},
	{"engine.rounds", "count"},
	{"engine.first_round_ms", "ms"},
	{"engine.round_ms.p50", "ms"},
	{"engine.round_ms.max", "ms"},
	{"core.incest.allocs_per_run", "count"},
	{"truth.build_s", "s"},
	{"error_frac", "ratio"},
	{"gen_late_ms.p95", "ms"},
	{"gen_late_ms.max", "ms"},
	{"ingest_p95_ms", "ms"},
	{"query_p95_ms", "ms"},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	bin      string // directory holding the corrod and tracedcorrod binaries
	state    string // directory for work files and run records
}

// outcome is what a workload run reports back to main.
type outcome struct {
	// checkErr is non-nil when an output check failed.
	checkErr  error
	attempted int
	failed    int
	// metrics are the end-to-end values (untraced run) or the per-layer
	// values (traced run), keyed by spec name.
	metrics map[string]float64
	// e2e are the end-to-end values the run measured either way; the run
	// record compares a traced run's against the untraced run's to give
	// the tracing overhead.
	e2e map[string]float64
	// samples are the raw per-operation measurements, for the run record.
	samples map[string][]float64
	// info is workload facts worth keeping in the run record.
	info map[string]any
}

type workload func(cfg config) (*outcome, error)

var workloads = map[string]workload{
	"serve-longlived": runServeLonglived,
	"stream-bulk":     runStreamBulk,
	"batch-crawl":     runBatchCrawl,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload: serve-longlived, stream-bulk or batch-crawl")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed (same seed, same inputs)")
	fs.IntVar(&cfg.seconds, "seconds", 30, "measured seconds of the run")
	trace := fs.Int("trace", 0, "1 prints the per-layer split instead of the end-to-end metrics")
	fs.StringVar(&cfg.bin, "bin", ".bench_build/bin", "directory with the corrod and tracedcorrod binaries")
	fs.StringVar(&cfg.state, "state", ".bench_build", "directory for work files and run records")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	if cfg.seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg.trace = *trace == 1

	started := time.Now()
	steal0, total0, ok0 := cpuTicks()
	out, err := wl(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	stealFrac := -1.0 // unknown
	if steal1, total1, ok1 := cpuTicks(); ok0 && ok1 {
		stealFrac = ratio(steal1-steal0, total1-total0)
	}
	switch {
	case stealFrac < 0:
		fmt.Fprintf(stderr, "perfbench: %s: CPU steal is unknown on this system; the run record is marked not comparable\n", cfg.workload)
	case !stealComparable(stealFrac):
		fmt.Fprintf(stderr, "perfbench: %s: the hypervisor stole %.1f%% of the CPU during the run (limit %.0f%%); the run record is marked not comparable\n",
			cfg.workload, 100*stealFrac, 100*stealLimit)
	}
	if late := out.samples["gen_late_ms"]; len(late) > 0 {
		fmt.Fprintf(stderr, "perfbench: %s: gen_late_ms p50=%.3f p95=%.3f max=%.3f over %d requests\n",
			cfg.workload, quantile(late, 0.5), quantile(late, 0.95), maxOf(late), len(late))
	}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	line, err := resultLine(out, specs, cfg.trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if err := writeRecord(cfg, out, started, stealFrac); err != nil {
		fmt.Fprintf(stderr, "perfbench: run record: %v\n", err)
		return 1
	}
	if out.checkErr != nil {
		fmt.Fprintf(stderr, "perfbench: %s: output check failed: %v\n", cfg.workload, out.checkErr)
	}
	fmt.Fprintln(stdout, string(line))
	if out.checkErr != nil {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine renders the final JSON line. An untraced run must have
// measured every end-to-end metric; in the per-layer split a layer the
// workload bypasses reads 0.
func resultLine(out *outcome, specs []metricSpec, traced bool) ([]byte, error) {
	res := resultJSON{
		Correct:   out.checkErr == nil,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	for _, s := range specs {
		v, ok := out.metrics[s.name]
		if !ok && !traced {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", s.name)
		}
		res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	return json.Marshal(res)
}

// workDir makes a fresh directory for one run's files under the state
// directory; the caller removes it.
func workDir(cfg config) (string, error) {
	base := filepath.Join(cfg.state, "work")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, cfg.workload+"-")
}
