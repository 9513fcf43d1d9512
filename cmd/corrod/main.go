// Command corrod is the corroboration daemon: a long-running HTTP/JSON
// service hosting named tenant worlds, each an online corroboration stream
// with crash-safe checkpointing (see internal/serve for the full admission
// control / backpressure / drain / restart contract).
//
// Usage:
//
//	corrod -addr 127.0.0.1:8080 -data ./corrod-data -tenants alpha,beta
//
// Each tenant checkpoints to <data>/<tenant>/checkpoint.json after every
// acknowledged batch, and resumes from that file on restart; a corrupt
// checkpoint is quarantined to checkpoint.json.corrupt and the tenant
// starts fresh. SIGINT/SIGTERM drain gracefully: admission closes, queued
// batches flush through the normal acknowledged path, each tenant writes a
// final checkpoint, and the process exits 0. A second signal kills the
// process immediately.
//
// Endpoints:
//
//	POST   /v1/tenants/{t}/ingest   {"votes":[{"fact":"f","source":"s","vote":"T"}]}
//	GET    /v1/tenants/{t}/query    ?fact= &prefix= &batch= &prediction= &offset= &limit= | &top=
//	GET    /v1/tenants/{t}/trust
//	PUT    /v1/tenants/{t}          {"shards":2,"queue_depth":32} (create at runtime)
//	DELETE /v1/tenants/{t}          (drain + final checkpoint + remove; re-create resumes)
//	GET    /v1/tenants
//	GET    /metrics | /healthz | /readyz
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"corroborate/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "corrod:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use port 0 for an ephemeral port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening (for scripts using port 0)")
	data := flag.String("data", "corrod-data", "data directory: each tenant checkpoints to <data>/<tenant>/checkpoint.json (empty disables durability)")
	tenants := flag.String("tenants", "default", "comma-separated tenant names to host")
	shards := flag.Int("shards", 1, "shard count recorded on each tenant stream; it does not change how batches are processed or their output")
	queue := flag.Int("queue", 64, "per-tenant ingest queue depth (the admission bound)")
	decay := flag.Float64("decay", 0, "per-batch exponential trust-decay factor in (0,1); 0 or 1 disables")
	reqTimeout := flag.Duration("request-timeout", 15*time.Second, "per-request acknowledgment timeout for ingest")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "grace period for in-flight HTTP requests after drain")
	readOnlyAfter := flag.Int("read-only-after", 3, "consecutive exhausted checkpoint saves before a tenant degrades to read-only")
	flag.Parse()

	var names []string
	seen := make(map[string]bool)
	for _, name := range strings.Split(*tenants, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if err := serve.ValidateTenantName(name); err != nil {
			return err
		}
		if seen[name] {
			return fmt.Errorf("tenant %q listed twice", name)
		}
		seen[name] = true
		names = append(names, name)
	}
	if len(names) == 0 {
		return fmt.Errorf("no tenants (pass -tenants a,b,...)")
	}

	// tenantTemplate builds one tenant's WorldConfig from the daemon flags,
	// creating its data directory. Shared between startup tenants and the
	// lifecycle API, so a tenant created over HTTP checkpoints in the same
	// place a -tenants one would — deleting and re-creating either resumes.
	tenantTemplate := func(name string) (serve.WorldConfig, error) {
		wc := serve.WorldConfig{
			Name:          name,
			Shards:        *shards,
			QueueDepth:    *queue,
			TrustDecay:    *decay,
			ReadOnlyAfter: *readOnlyAfter,
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

	cfg := serve.Config{RequestTimeout: *reqTimeout, NewTenant: tenantTemplate}
	for _, name := range names {
		wc, err := tenantTemplate(name)
		if err != nil {
			return err
		}
		cfg.Tenants = append(cfg.Tenants, wc)
	}

	srv, reports, err := serve.New(cfg)
	if err != nil {
		return err
	}
	for _, name := range names {
		report := reports[name]
		switch {
		case report.QuarantinedPath != "":
			fmt.Fprintf(os.Stderr, "corrod: tenant %q checkpoint is corrupt (%v); quarantined to %s, starting fresh\n",
				name, report.Cause, report.QuarantinedPath)
		case report.Resumed:
			snap := srv.World(name).Snapshot()
			fmt.Printf("corrod: tenant %q resumed: %d batches, %d facts, %d sources\n",
				name, snap.Batches, len(snap.Facts), len(snap.Trust))
		default:
			fmt.Printf("corrod: tenant %q starting fresh\n", name)
		}
	}

	// Install the signal handler before the listener exists: a script
	// that SIGTERMs as soon as the address file appears must get a drain,
	// not the default kill.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		// Write-then-rename so a watching script never reads a half
		// -written address.
		tmp := *addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(bound+"\n"), 0o644); err != nil {
			return fmt.Errorf("writing addr file: %w", err)
		}
		if err := os.Rename(tmp, *addrFile); err != nil {
			return fmt.Errorf("publishing addr file: %w", err)
		}
	}
	fmt.Printf("corrod: listening on http://%s (tenants: %s)\n", bound, strings.Join(srv.TenantNames(), ", "))

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal now kills the process instead of waiting

	fmt.Println("corrod: draining (admission closed; flushing queued batches)")
	drainErr := srv.Drain()
	if drainErr != nil {
		fmt.Fprintln(os.Stderr, "corrod: drain:", drainErr)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "corrod: http shutdown:", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if drainErr != nil {
		return fmt.Errorf("drained with errors: %w", drainErr)
	}
	fmt.Println("corrod: drained cleanly")
	return nil
}
