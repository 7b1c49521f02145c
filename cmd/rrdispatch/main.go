// Command rrdispatch runs the fleet dispatcher: the control plane that owns
// tenant→shard placement and leases shards to rrworker daemons. Workers
// register, heartbeat on the advertised interval, and push a checkpoint after
// every tick; when a worker misses its heartbeat budget the dispatcher fences
// its leases and regrants the shards to survivors from the stored checkpoints,
// so per-tenant decision streams survive worker crashes byte-identically.
//
// Examples:
//
//	rrdispatch -addr :9090 -shards 8 -n 64 -delta 4 -record-decisions
//	rrdispatch -addr 127.0.0.1:0 -heartbeat 250ms -miss-budget 3 -state ./cpdir
//
// The dispatcher itself is restartable: with -state, every accepted
// checkpoint is on disk before the push is acknowledged (two fdatasynced
// slot files per shard, records of rrdispatch-state/v3) and a restarted
// dispatcher regrants from them; workers re-register automatically when
// their heartbeats start answering 404.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rrsched/internal/dispatch"
	"rrsched/internal/serve"
)

func main() {
	// Library code returns errors; a defect that still panics must exit with
	// a diagnostic, not a stack trace.
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintln(os.Stderr, "rrdispatch: internal panic:", r)
			os.Exit(1)
		}
	}()
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stdout, sigs, nil); err != nil {
		fmt.Fprintln(os.Stderr, "rrdispatch:", err)
		os.Exit(1)
	}
}

// run is main minus the process plumbing, so tests can inject flags, a signal
// channel, and receive the bound address.
func run(args []string, stdout io.Writer, sigs <-chan os.Signal, ready chan<- string) error {
	fs := flag.NewFlagSet("rrdispatch", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		addr       = fs.String("addr", "127.0.0.1:9090", "listen address (host:port; port 0 picks a free port)")
		shards     = fs.Int("shards", 4, "scheduler shards leased across the worker fleet")
		n          = fs.Int("n", 8, "resources per tenant (multiple of 4)")
		delta      = fs.Int64("delta", 4, "reconfiguration cost Δ")
		watermark  = fs.Int("watermark", 1<<16, "per-shard backlog watermark: batches beyond it get 429")
		record     = fs.Bool("record-decisions", false, "workers keep per-tenant decision streams in each shard's decision log, whose segments ride the checkpoint bundles through failovers, reshards and restarts")
		heartbeat  = fs.Duration("heartbeat", time.Second, "worker heartbeat interval")
		missBudget = fs.Int("miss-budget", 3, "heartbeat intervals a worker may miss before its shards fail over")
		state      = fs.String("state", "", "state dir for checkpoint durability across dispatcher restarts; empty keeps checkpoints in memory only")
		drainWait  = fs.Duration("drain-timeout", 10*time.Second, "max wait for in-flight HTTP requests on shutdown")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	d, err := dispatch.New(dispatch.Config{
		Service: dispatch.ServiceConfig{
			Shards:          *shards,
			Resources:       *n,
			Delta:           *delta,
			Watermark:       *watermark,
			RecordDecisions: *record,
		},
		HeartbeatEvery: *heartbeat,
		MissBudget:     *missBudget,
		StateDir:       *state,
	})
	if err != nil {
		return err
	}
	defer d.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}
	_, _ = fmt.Fprintf(stdout, "rrdispatch: listening on %s  shards=%d n=%d Δ=%d heartbeat=%v miss-budget=%d\n", // best-effort status output
		ln.Addr(), *shards, *n, *delta, *heartbeat, *missBudget)

	srv := serve.HardenedServer(d.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case sig := <-sigs:
		_, _ = fmt.Fprintf(stdout, "rrdispatch: received %v, shutting down\n", sig) // best-effort status output
	case err := <-serveErr:
		return fmt.Errorf("http server: %w", err)
	}

	// Stop answering first (workers will fence themselves once their miss
	// budgets expire), then stop the monitor. Checkpoints are already durable
	// if -state is set; there is nothing else to flush.
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("draining http server: %w", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("http server: %w", err)
	}
	st := d.Stats()
	_, _ = fmt.Fprintf(stdout, "rrdispatch: done  shards=%d assigned=%d workers=%d\n", // best-effort status output
		st.Shards, st.Assigned, len(st.Workers))
	return nil
}
