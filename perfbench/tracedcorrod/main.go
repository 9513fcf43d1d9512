// Command tracedcorrod is the benchmark's traced build of the corrod
// daemon. It wires serve.New exactly as cmd/corrod does with its default
// settings, using the same tenant template, and adds the perfbench/servetrace hooks: a
// timing wrapper around the HTTP handler, a timing checkpoint filesystem,
// and a dequeue stamp on each tenant's consumer. On SIGTERM it drains like
// corrod, then writes everything it recorded to -trace-out as JSON.
//
// The difference between this daemon and corrod under the same load is the
// tracing overhead that perfbench reports.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"corroborate/internal/fault"
	"corroborate/internal/serve"
	"corroborate/perfbench/servetrace"
)

// The settings corrod runs with when its flags are left at their defaults,
// which is how perfbench starts it.
const (
	corrodShards         = 1
	corrodQueue          = 64
	corrodReadOnlyAfter  = 3
	corrodRequestTimeout = 15 * time.Second
	corrodDrainTimeout   = 30 * time.Second
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tracedcorrod:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use port 0 for an ephemeral port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening")
	data := flag.String("data", "corrod-data", "data directory: each tenant checkpoints to <data>/<tenant>/checkpoint.json")
	tenants := flag.String("tenants", "default", "comma-separated tenant names to host")
	traceOut := flag.String("trace-out", "trace.json", "where to write the recorded trace after draining")
	flag.Parse()

	var names []string
	for _, name := range strings.Split(*tenants, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		if err := serve.ValidateTenantName(name); err != nil {
			return err
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return fmt.Errorf("no tenants (pass -tenants a,b,...)")
	}

	rec := servetrace.NewRecorder()
	fsys := rec.FS(fault.OS())
	// The gate runs on a tenant's consumer goroutine, which starts inside
	// serve.New; until New returns the server is not known yet.
	var srvRef atomic.Pointer[serve.Server]
	gateFor := func(name string) func() {
		return rec.Gate(func() int {
			if s := srvRef.Load(); s != nil {
				if w := s.World(name); w != nil {
					return w.QueueDepth()
				}
			}
			return -1
		})
	}
	tenantTemplate := func(name string) (serve.WorldConfig, error) {
		wc := serve.WorldConfig{
			Name:          name,
			Shards:        corrodShards,
			QueueDepth:    corrodQueue,
			ReadOnlyAfter: corrodReadOnlyAfter,
			FS:            fsys,
			Gate:          gateFor(name),
		}
		if *data != "" {
			dir := filepath.Join(*data, name)
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return serve.WorldConfig{}, fmt.Errorf("creating tenant directory: %w", err)
			}
			wc.CheckpointPath = filepath.Join(dir, "checkpoint.json")
		}
		return wc, nil
	}

	cfg := serve.Config{RequestTimeout: corrodRequestTimeout, NewTenant: tenantTemplate}
	for _, name := range names {
		wc, err := tenantTemplate(name)
		if err != nil {
			return err
		}
		cfg.Tenants = append(cfg.Tenants, wc)
	}

	t0 := time.Now()
	srv, _, err := serve.New(cfg)
	if err != nil {
		return err
	}
	restore := time.Since(t0)
	srvRef.Store(srv)
	rec.SetRestore(restore, srv.World(names[0]).Snapshot().Batches)
	// Written now so a daemon killed before it drains still reports its
	// restore; rewritten in full after the drain.
	if err := writeTrace(*traceOut, rec); err != nil {
		return err
	}

	// Unlike corrod, take over SIGTERM before serving: the benchmark may
	// signal as soon as /readyz answers.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *addrFile != "" {
		tmp := *addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			return fmt.Errorf("writing addr file: %w", err)
		}
		if err := os.Rename(tmp, *addrFile); err != nil {
			return fmt.Errorf("publishing addr file: %w", err)
		}
	}

	httpSrv := &http.Server{Handler: rec.Handler(srv.Handler())}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop()

	drainErr := srv.Drain()
	shutCtx, cancel := context.WithTimeout(context.Background(), corrodDrainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "tracedcorrod: http shutdown:", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if drainErr != nil {
		return fmt.Errorf("drained with errors: %w", drainErr)
	}
	return writeTrace(*traceOut, rec)
}

// writeTrace writes everything recorded so far to path as JSON.
func writeTrace(path string, rec *servetrace.Recorder) error {
	data, err := json.Marshal(rec.Trace())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
