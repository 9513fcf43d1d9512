package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// fingerprint identifies the machine a run was measured on, so a later
// reader can tell whether two records are comparable.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	DataFS     string `json:"data_fs"`
}

func machineFingerprint(dataDir string) fingerprint {
	fp := fingerprint{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		DataFS:     fsType(dataDir),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(b))
	}
	return fp
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// refuseMemoryFS errors when dir lives on a memory-backed filesystem,
// where fsync costs nothing and durability timings would be fiction.
func refuseMemoryFS(dir string) error {
	switch t := fsType(dir); t {
	case "tmpfs", "ramfs":
		return fmt.Errorf("data directory %s is on %s, where fsync is free; run from a checkout on a disk-backed filesystem", dir, t)
	}
	return nil
}

// stealLimit is the largest share of CPU time the hypervisor may steal
// during a run for the run to count as comparable: at 1–3% steal the
// serve-longlived and stream-bulk timings on a shared 2-CPU VM already
// read 10–40% slower.
const stealLimit = 0.01

// record is one run's durable account: what ran, where, every raw sample
// and every reported number.
type record struct {
	Workload    string      `json:"workload"`
	Seed        int64       `json:"seed"`
	Seconds     int         `json:"seconds"`
	Trace       bool        `json:"trace"`
	Started     string      `json:"started"`
	WallSeconds float64     `json:"wall_seconds"`
	Machine     fingerprint `json:"machine"`
	// Build identifies the code that ran: a hash of the perfbench, corrod
	// and tracedcorrod binaries, built with -trimpath so that the same
	// source gives the same hash in any checkout ("unknown" when a binary
	// is missing).
	Build string `json:"build"`
	// StealFrac is the share of all CPU ticks the hypervisor stole during
	// the run, machine-wide (-1 when unknown): a noisy neighbour shows here.
	StealFrac float64 `json:"steal_frac"`
	// Comparable is false when StealFrac is unknown or above stealLimit;
	// such a run's timings say more about the neighbours than the code.
	Comparable bool                 `json:"comparable"`
	Correct    bool                 `json:"correct"`
	CheckError string               `json:"check_error,omitempty"`
	Attempted  int                  `json:"attempted"`
	Failed     int                  `json:"failed"`
	Metrics    map[string]float64   `json:"metrics"`
	EndToEnd   map[string]float64   `json:"end_to_end"`
	Samples    map[string][]float64 `json:"samples"`
	Info       map[string]any       `json:"info,omitempty"`
	// TracingOverhead is traced ÷ untraced − 1 per end-to-end metric,
	// against the newest record of the same build, workload, seed and
	// length with the other trace setting; absent until both exist.
	TracingOverhead map[string]float64 `json:"tracing_overhead,omitempty"`
}

// stealComparable reports whether a run with this steal share can be set
// beside others.
func stealComparable(stealFrac float64) bool { return stealFrac >= 0 && stealFrac <= stealLimit }

// buildID hashes the benchmark's three binaries in bin.
func buildID(bin string) string {
	h := sha256.New()
	for _, name := range []string{"perfbench", "corrod", "tracedcorrod"} {
		if err := hashFile(h, filepath.Join(bin, name)); err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func hashFile(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = io.Copy(w, f)
	return err
}

func recordDir(cfg config) string { return filepath.Join(cfg.state, "records", cfg.workload) }

func recordPrefix(cfg config, build string, traced bool) string {
	t := 0
	if traced {
		t = 1
	}
	return fmt.Sprintf("seed%d-s%d-trace%d-%s-", cfg.seed, cfg.seconds, t, build)
}

// writeRecord stores the run record as records/<workload>/<prefix><time>.json.
func writeRecord(cfg config, out *outcome, started time.Time, stealFrac float64) error {
	build := buildID(cfg.bin)
	dir := recordDir(cfg)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec := record{
		Workload:    cfg.workload,
		Seed:        cfg.seed,
		Seconds:     cfg.seconds,
		Trace:       cfg.trace,
		Started:     started.UTC().Format(time.RFC3339Nano),
		WallSeconds: time.Since(started).Seconds(),
		Machine:     machineFingerprint(cfg.state),
		Build:       build,
		StealFrac:   stealFrac,
		Comparable:  stealComparable(stealFrac),
		Correct:     out.checkErr == nil,
		Attempted:   out.attempted,
		Failed:      out.failed,
		Metrics:     out.metrics,
		EndToEnd:    out.e2e,
		Samples:     out.samples,
		Info:        out.info,
	}
	if out.checkErr != nil {
		rec.CheckError = out.checkErr.Error()
	}
	// Only a known build can be paired: an "unknown" one may be any code.
	if other, ok := newestRecord(dir, recordPrefix(cfg, build, !cfg.trace)); ok && build != "unknown" {
		traced, untraced := out.e2e, other.EndToEnd
		if !cfg.trace {
			traced, untraced = other.EndToEnd, out.e2e
		}
		rec.TracingOverhead = overhead(traced, untraced)
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := recordPrefix(cfg, build, cfg.trace) + started.UTC().Format("20060102T150405.000000000") + ".json"
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

// newestRecord loads the lexically last (newest) record with the prefix.
func newestRecord(dir, prefix string) (record, bool) {
	names, err := filepath.Glob(filepath.Join(dir, prefix+"*.json"))
	if err != nil || len(names) == 0 {
		return record{}, false
	}
	sort.Strings(names)
	data, err := os.ReadFile(names[len(names)-1])
	if err != nil {
		return record{}, false
	}
	var rec record
	if json.Unmarshal(data, &rec) != nil {
		return record{}, false
	}
	return rec, true
}

func overhead(traced, untraced map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range endToEnd {
		t, tok := traced[s.name]
		u, uok := untraced[s.name]
		if tok && uok && u != 0 {
			out[s.name] = t/u - 1
		}
	}
	return out
}
