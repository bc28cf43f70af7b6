// Command figuresd is the experiment-serving daemon: the figures
// pipeline behind HTTP instead of a one-shot CLI. It mounts
// internal/server over the E1..E15 registry, optionally backed by the
// on-disk result cache, and shuts down gracefully on SIGINT/SIGTERM.
//
// Usage:
//
//	figuresd [-addr host:port] [-cache-dir DIR] [-timeout D] [-grace D]
//	         [-peers host1:port,host2:port] [-debug-addr host:port]
//
// The schedule-tree experiments (E2 and E15, their parameter points
// and their prefix slices, and E4's collision search) explore through
// the serial canonical-state memo. The counters of every whole or
// parameter-point E2 or E15 run this process explores accumulate in
// the /stats exploration section and the /metrics
// repro_exploration_*_total counters.
//
// Endpoints:
//
//	GET /experiments                              the experiment index
//	GET /experiments/{id}?format=text|json|csv    one experiment's table
//	GET /healthz                                  liveness probe
//	GET /stats                                    operational counters
//	GET /metrics                                  the same counters, Prometheus text
//	GET /trace/{id}                               one request's span journal
//
// Concurrent requests for the same cold experiment are deduplicated to
// a single execution; with -cache-dir, results persist across restarts
// and are shared with cmd/figures runs using the same directory. The
// daemon also serves prefix slices of shardable experiments
// (GET /experiments/{id}?prefixes=..., the intra-experiment sharding
// protocol of internal/shard), so any figuresd instance can compute
// its share of a split exploration space — and with -cache-dir those
// slices are artifacts too, served from and stored into the same
// content-addressed store as whole results. With -peers, this daemon
// becomes the front door of a figuresd fleet: experiment execution
// fans out to the peers through the shard coordinator — shardable
// experiments are carved into prefix ranges across the fleet when at
// least two peers are healthy, with -cache-dir each whole result read
// through the front cache before anything is carved or fetched and
// stored back after, so the front cache and the peers' slice stores
// form a read-through cache hierarchy — and falls back to running
// locally when the fleet cannot serve.
//
// Every request carries a Repro-Request-ID (minted here when the
// client sent none) under which the serving layer — and, with -peers,
// the shard coordinator sharing the same journal — records its span;
// GET /trace/{id} plays it back. -debug-addr serves net/http/pprof on
// a second listener so profiling never shares a port (or an exposure
// decision) with the experiment API.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux, served only by -debug-addr
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/trace"
)

// testRegistry overrides the experiment registry in tests; nil
// outside of tests (the real E1..E15 registry is served).
var testRegistry map[string]experiments.Experiment

// defaultTimeout is -timeout's default bound on one experiment
// execution: generous because the exhaustive explorations are the slow
// tail, and a timeout that fires mid-exploration wastes the work.
const defaultTimeout = 2 * time.Minute

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "figuresd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("figuresd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "localhost:8093", "listen address")
		cacheDir = fs.String("cache-dir", "", "result cache directory (empty = no cache)")
		timeout  = fs.Duration("timeout", defaultTimeout, "per-experiment execution limit (0 = none)")
		grace    = fs.Duration("grace", 5*time.Second, "graceful-shutdown window")
		peers    = fs.String("peers", "", "comma-separated figuresd peers (host:port) to fan experiment execution out to; this daemon fronts the fleet and falls back to local execution")
		debug    = fs.String("debug-addr", "", "serve net/http/pprof on this second listener (empty = off)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	logger := log.New(stderr, "", log.LstdFlags)
	srv, err := newHandler(*cacheDir, *peers, *timeout, logger.Printf)
	if err != nil {
		return err
	}

	if *debug != "" {
		// pprof stays on its own listener: net/http/pprof registers on
		// the default mux, which the experiment API never serves, so
		// profiling exposure is a separate bind decision entirely.
		dl, err := net.Listen("tcp", *debug)
		if err != nil {
			return err
		}
		defer dl.Close()
		go func() {
			if err := http.Serve(dl, nil); err != nil && !errors.Is(err, net.ErrClosed) {
				logger.Printf("figuresd: pprof server: %v", err)
			}
		}()
		logger.Printf("figuresd: pprof on http://%s/debug/pprof/", dl.Addr())
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	cacheNote := "off"
	if *cacheDir != "" {
		cacheNote = *cacheDir
	}
	logger.Printf("figuresd: serving on http://%s (cache %s, timeout %v)", l.Addr(), cacheNote, *timeout)
	return serve(ctx, l, srv, *grace)
}

// newHandler assembles the daemon's HTTP handler: the serving layer
// over the in-process engine, optionally cache-backed, and — with
// peers — over a shard coordinator instead, so this daemon fronts a
// fleet. timeout bounds every execution, local or fallback, and 0
// means no limit, as everywhere else; the coordinator derives its
// fetch bound from it.
func newHandler(cacheDir, peers string, timeout time.Duration, logf func(format string, args ...any)) (http.Handler, error) {
	var store experiments.Cache
	if cacheDir != "" {
		s, err := cache.Open(cacheDir, cache.Options{})
		if err != nil {
			return nil, err
		}
		store = s
	}
	// One journal spans both layers: the serving edge mints (or adopts)
	// the request ID, the coordinator journals its fleet decisions
	// under the same ID, and /trace/{id} plays back the whole span.
	journal := trace.NewJournal(0, 0)
	opts := server.Options{
		Registry: testRegistry,
		Cache:    store,
		Timeout:  timeout,
		Logf:     logf,
		Journal:  journal,
	}
	if peers != "" {
		coord, err := shard.New(shard.Options{
			Workers: shard.SplitList(peers),
			Local: experiments.Options{
				Registry: testRegistry,
				Cache:    store,
				Timeout:  timeout,
			},
			Logf:    logf,
			Journal: journal,
		})
		if err != nil {
			return nil, err
		}
		st := coord.Stats()
		logf("figuresd: fronting %d/%d peers (local fallback ready)", st.WorkersHealthy, st.WorkersTotal)
		opts.Backend = coord.RunParam
	}
	return server.New(opts), nil
}

// serve runs the HTTP server on l until ctx is cancelled or a signal
// arrives, then drains in-flight requests for up to grace before
// returning. A clean shutdown returns nil.
func serve(ctx context.Context, l net.Listener, handler http.Handler, grace time.Duration) error {
	hs := &http.Server{
		Handler: handler,
		// Slowloris guard; response writes are unbounded because an
		// experiment execution legitimately takes minutes.
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()
	select {
	case err := <-errc:
		return err // Serve never returns nil
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			hs.Close()
			return err
		}
		return nil
	}
}
