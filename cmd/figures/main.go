// Command figures regenerates the data behind every figure and
// theorem-level claim of the paper (experiments E1..E15 of DESIGN.md)
// through the concurrent experiment engine, printing one table per
// experiment in index order regardless of completion order.
//
// Usage:
//
//	figures [-run E3,E7] [-jobs N] [-format text|json|csv] [-timeout D]
//	        [-cache-dir DIR] [-no-cache] [-workers HOSTS]
//	        [-param k=3,i0=0] [-o FILE] [-list] [-v]
//	figures trace -addr HOSTS [-timeout D] REQUEST_ID
//
// The output of -jobs N is byte-identical to -jobs 1 for every format:
// parallelism changes wall-clock time only. With -cache-dir, results
// persist in a content-addressed on-disk store (internal/cache): a
// repeated run with the same directory executes nothing and emits the
// same bytes, and the store is shared with a figuresd daemon pointed
// at the same directory. With -workers host1:port,host2:port, the run
// fans out across a figuresd fleet through the shard coordinator
// (internal/shard) and the merged output is still byte-identical to a
// local run — -jobs then governs only the local fallback, because
// remote workers own their own concurrency. Prefix-shardable
// experiments (E2's exhaustive Algorithm 1 sweep, E15's exhaustive
// Algorithm 2 validation) go further when at least two workers are
// healthy: their own exploration space is carved into
// schedule-prefix ranges split across the fleet and the
// order-insensitive aggregates are merged, so a single theorem-scale
// space finishes faster than any one box while emitting the same
// bytes. Combining -workers with -cache-dir makes the run the top of
// a read-through cache hierarchy: each range is consulted in the
// store before it is dispatched and stored back after, so a repeated
// sharded run of the same space executes zero explorations anywhere.
//
// The schedule-tree experiments (E2's Algorithm 1 sweep, E15's
// Algorithm 2 validation, and E4's collision search) explore through
// the canonical-state memo, which replays each distinct memory state
// once instead of every interleaving while accounting every execution.
// With -v, each E2 or E15 result that explored prints one counter
// line, e.g.
//
//	figures: explore E2 visited=242 pruned=126 replays=146 executions=22080
//
// (states visited, subtrees pruned, replays performed vs executions
// accounted). The memo is serial, so the counters do not depend on
// -jobs or the core count.
//
// -param evaluates one experiment family at one point of its
// parameter space instead of the fixed registry point: -run must name
// exactly one parameterized family (E2 or E15), and the value is a
// comma-separated name=value list validated against the family's
// schema ("k=3", "c=3,i0=1"); omitted parameters take their defaults,
// and the default point emits bytes identical to the fixed
// experiment's. Parameterized points ride every existing mode: they
// cache under per-point content-addressed keys with -cache-dir, shard
// across a fleet with -workers (carved at the requested point), and
// journal with -trace.
//
// -trace turns on per-request span journaling (internal/trace) for
// sharded runs: every run gets a request ID, the coordinator journals
// each carve/selection/fetch/retry/cache decision under it, the same
// ID travels to the workers in the Repro-Request-ID header, and the
// run ends with one `figures: trace <id> run <exp>` line per request
// plus the coordinator's timeline on stderr. The trace subcommand
// completes the picture after the fact: it fetches that ID's span
// from each listed worker's /trace/{id} endpoint and renders the
// merged timeline with per-range duration bars, worker assignments,
// cache outcomes, and retry counts.
// The process exits non-zero when any experiment in the run fails,
// even though the failed row is still encoded in the output.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/shard"
	"repro/internal/trace"
)

// testRegistry overrides the experiment registry in tests (to count
// runner executions); nil outside of tests.
var testRegistry map[string]experiments.Experiment

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	// Subcommand dispatch: `figures trace` renders a request's span;
	// bare `figures` keeps its original flag surface (no subcommand
	// needed for the common path).
	if len(args) > 0 && args[0] == "trace" {
		return runTrace(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runIDs   = fs.String("run", "", "comma-separated experiment ids to run (default: all)")
		jobs     = fs.Int("jobs", 0, "experiments run concurrently (0 = GOMAXPROCS)")
		format   = fs.String("format", "text", "output format: text, json, or csv")
		timeout  = fs.Duration("timeout", 0, "per-experiment wall-clock limit (0 = none)")
		cacheDir = fs.String("cache-dir", "", "cache experiment results in this directory")
		noCache  = fs.Bool("no-cache", false, "ignore -cache-dir and run everything fresh")
		workers  = fs.String("workers", "", "comma-separated figuresd workers (host:port) to fan the run out to; unreachable workers fall back to local execution, which -jobs governs")
		traceOn  = fs.Bool("trace", false, "journal per-request spans on sharded runs and print each request's trace id and timeline on stderr (requires -workers)")
		param    = fs.String("param", "", "evaluate one family at a parameter point (\"k=3,i0=0\", omitted parameters default); requires -run naming exactly one parameterized family")
		outFile  = fs.String("o", "", "write output to this file instead of stdout")
		list     = fs.Bool("list", false, "list experiment ids and exit")
		verbose  = fs.Bool("v", false, "report per-experiment timing and exploration counters on stderr")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return nil
	}

	encode, err := experiments.LookupEncoder(*format)
	if err != nil {
		return err
	}

	// Local runs have no remote decisions to journal; a silent no-op
	// -trace would read as "nothing happened", so reject it instead.
	if *traceOn && *workers == "" {
		return fmt.Errorf("-trace requires -workers (spans journal the coordinator's fleet decisions)")
	}

	var ids []string
	if *runIDs != "" {
		ids = shard.SplitList(*runIDs)
		if len(ids) == 0 {
			return fmt.Errorf("-run %q names no experiments", *runIDs)
		}
	}

	opts := experiments.Options{
		IDs:      ids,
		Jobs:     *jobs,
		Timeout:  *timeout,
		Registry: testRegistry,
	}
	// Validate the ids — and a parameter point against its experiment's
	// schema — before touching the -o file or the fleet below: a typo'd
	// -run or a bad point must fail cleanly, not truncate an existing
	// output file.
	reg := testRegistry
	if reg == nil {
		reg = experiments.Registry()
	}
	for _, id := range ids {
		if _, ok := reg[id]; !ok {
			return fmt.Errorf("unknown experiment %q", id)
		}
	}
	var ps experiments.ParamSet
	if *param != "" {
		if len(ids) != 1 {
			return fmt.Errorf("-param requires -run naming exactly one parameterized family")
		}
		var err error
		if ps, err = experiments.ParseParamList(reg[ids[0]], *param); err != nil {
			return err
		}
	}
	if *cacheDir != "" && !*noCache {
		store, err := cache.Open(*cacheDir, cache.Options{})
		if err != nil {
			return err
		}
		opts.Cache = store
	}

	// Create the -o file before running anything: an unwritable path
	// must fail in milliseconds, not after the full experiment sweep.
	out := io.Writer(stdout)
	var f *os.File
	if *outFile != "" {
		var err error
		f, err = os.Create(*outFile)
		if err != nil {
			return err
		}
		out = f
	}

	start := time.Now()
	var results []experiments.Result
	switch {
	case *workers != "":
		results, err = runSharded(shard.SplitList(*workers), opts, stderr, *verbose, *traceOn,
			func(ctx context.Context, coord *shard.Coordinator) ([]experiments.Result, error) {
				if *param == "" {
					return coord.Run(ctx, ids)
				}
				res, err := coord.RunParam(ctx, ids[0], ps)
				return []experiments.Result{res}, err
			})
	case *param != "":
		results = []experiments.Result{experiments.RunParam(context.Background(), reg[ids[0]], ps, opts)}
	default:
		results, err = experiments.Run(context.Background(), opts)
	}
	if err != nil {
		if f != nil {
			f.Close()
		}
		return err
	}
	if *verbose {
		for _, r := range results {
			status := "ok"
			switch {
			case r.Err != nil:
				status = "FAILED"
			case r.Cached:
				status = "cached"
			}
			fmt.Fprintf(stderr, "figures: %-4s %8.3fs  %s\n", r.ID, r.Duration.Seconds(), status)
			// One grep-friendly counter line per result that explored
			// (make reduce-gate keys on the "figures: explore" prefix).
			if m := r.Memo; m.Executions > 0 {
				fmt.Fprintf(stderr, "figures: explore %s visited=%d pruned=%d replays=%d executions=%d\n",
					r.ID, m.StatesVisited, m.StatesPruned, m.Replays, m.Executions)
			}
		}
		fmt.Fprintf(stderr, "figures: total %.3fs\n", time.Since(start).Seconds())
	}
	// The hit-rate line counts this process's own store: local-run
	// hits, or — sharded — the coordinator's front-cache hits (worker
	// and slice-level warmth shows on the shard summary lines and the
	// workers' /stats instead).
	if opts.Cache != nil {
		hits := 0
		for _, r := range results {
			if r.Cached {
				hits++
			}
		}
		fmt.Fprintf(stderr, "figures: cache %d/%d hits (%.1f%%)\n",
			hits, len(results), 100*float64(hits)/float64(len(results)))
	}

	if err := encode(out, results); err != nil {
		if f != nil {
			f.Close()
		}
		return err
	}
	if f != nil {
		if err := f.Close(); err != nil {
			return err
		}
	}
	return experiments.FirstError(results)
}

// runSharded builds a shard coordinator over the fleet, runs do over
// it — the whole run, or the one -param point — and reports traces and
// the fleet summary on stderr. opts carries the local-fallback engine
// configuration (registry, cache, timeout, jobs). With traceOn, a span
// journal is threaded into the coordinator and each request's ID and
// timeline are reported after the run.
func runSharded(fleet []string, opts experiments.Options, stderr io.Writer, verbose, traceOn bool,
	do func(context.Context, *shard.Coordinator) ([]experiments.Result, error)) ([]experiments.Result, error) {
	var logf func(format string, args ...any)
	if verbose {
		logf = func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}
	// A -timeout above the remote-fetch default must reach the fleet
	// too, or long experiments could never be served remotely; the
	// margin covers transfer and queueing on the worker.
	var reqTimeout time.Duration
	if opts.Timeout > 0 {
		reqTimeout = opts.Timeout + 30*time.Second
	}
	var journal *trace.Journal
	if traceOn {
		journal = trace.NewJournal(0, 0)
	}
	coord, err := shard.New(shard.Options{
		Workers:        fleet,
		RequestTimeout: reqTimeout,
		Local:          opts,
		Logf:           logf,
		Journal:        journal,
	})
	if err != nil {
		return nil, err
	}
	results, err := do(context.Background(), coord)
	if err != nil {
		return nil, err
	}
	if journal != nil {
		// One line per request in grep-friendly form (CI keys on the
		// "figures: trace <id>" prefix), then the coordinator's own
		// timeline; `figures trace -addr <fleet> <id>` adds the
		// workers' halves of the same span afterwards.
		for _, tr := range journal.Traces() {
			fmt.Fprintf(stderr, "figures: trace %s %s\n", tr.ID, tr.What)
			renderTimeline(stderr, []sourcedTrace{{tr: tr}})
		}
	}
	st := coord.Stats()
	fmt.Fprintf(stderr, "figures: shard %d/%d workers healthy, %d remote, %d local\n",
		st.WorkersHealthy, st.WorkersTotal, st.Remote, st.Local)
	if st.PrefixSharded > 0 {
		fmt.Fprintf(stderr, "figures: shard %d prefix-sharded (%d ranges remote, %d local, %d cached, %d reassigned)\n",
			st.PrefixSharded, st.PrefixRangesRemote, st.PrefixRangesLocal, st.PrefixRangesCached, st.RangesReassigned)
	}
	if verbose {
		for _, w := range st.Workers {
			if w.Fetches == 0 {
				continue
			}
			fmt.Fprintf(stderr, "figures: shard worker %s: %d fetches, %d errors, p50 %.1fms p95 %.1fms\n",
				w.Addr, w.Fetches, w.Errors, w.Latency.P50Millis, w.Latency.P95Millis)
		}
	}
	return results, nil
}
