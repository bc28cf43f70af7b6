package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/sched"
)

// Options configures an engine run.
type Options struct {
	// IDs lists the experiments to run, in the order their results are
	// returned. Empty means every registered experiment in index order.
	IDs []string
	// Jobs is the number of experiments run concurrently; <= 0 means
	// GOMAXPROCS.
	Jobs int
	// Timeout bounds each experiment's wall-clock time; 0 means no limit.
	Timeout time.Duration
	// Registry overrides the experiment registry; nil means Registry().
	Registry map[string]Experiment
	// Cache, when non-nil, is consulted before each experiment executes
	// and updated after each success. A hit skips the run entirely and
	// yields the stored Result with Cached set; failed results are never
	// stored, so errors are always recomputed. Cache write errors are
	// ignored: caching is an optimisation, never a reason to fail a run.
	Cache Cache
}

// registry is the real registry, built once: Run reads it on every
// call that names no override, and SpaceVersion on every cache key;
// neither mutates it.
var registry = Registry()

// Cache is the one artifact-store interface every layer calls: whole
// results keyed by experiment id plus canonical parameter point ("" is
// the default point, the plain id), and slice aggregates keyed by id,
// point, and canonical prefix set. Implementations
// (internal/cache.Store) own the rest of the key — space, Go, and
// module versions — so a stale store simply misses.
//
// Values the Get methods return are shared with the implementation
// and with every other caller (cache.Store serves repeat reads from
// one decoded copy in memory): a caller may overwrite fields of the
// returned struct, but must not mutate what it points to — the
// Table, its rows and notes, or an envelope's Aggregate bytes. A
// returned Result may carry stored response bodies (WithBodies), and
// a returned envelope a stored body (WithShardBody); the bytes Body
// and ShardBody serve from them are shared and read-only in the same
// way.
type Cache interface {
	// GetParam returns the stored whole result of one experiment at one
	// parameter point. ok reports a usable hit; implementations must
	// return ok == false (never a stale or corrupted result) when the
	// entry cannot be trusted. The result's Table and stored bodies
	// are shared: read-only.
	GetParam(id, params string) (Result, bool)
	// PutParam stores a successful result for one point.
	// Implementations may refuse (e.g. failed results); callers ignore
	// the error.
	PutParam(id, params string, r Result) error
	// GetSlice returns the stored envelope for one slice of one point's
	// exploration space, the prefixes string in canonical
	// FormatPrefixes rendering. Same trust contract as GetParam: never
	// a stale, corrupt, or wrong-generation envelope. The envelope's
	// Aggregate bytes and stored body are shared: read-only.
	GetSlice(id, params, prefixes string) (ShardEnvelope, bool)
	// PutSlice stores one slice's envelope. Implementations may refuse
	// (incomplete or wrong-generation envelopes); callers treat errors
	// as a skipped optimisation, never a failure.
	PutSlice(env ShardEnvelope) error
}

// Result is the outcome of one experiment run by the engine.
type Result struct {
	// ID is the experiment id.
	ID string
	// Table is the experiment's output; nil when Err is non-nil.
	Table *Table
	// Err reports a failed, timed-out, panicked, or cancelled run.
	Err error
	// Panicked reports that Err came from a recovered runner panic.
	Panicked bool
	// Cached reports that the result came from Options.Cache and no
	// runner executed. Like Duration it is not part of the wire form,
	// so cached and fresh runs encode byte-identically.
	Cached bool
	// Memo carries the counters of the memoized exploration the run
	// performed (E2, E15 and their parameter points); zero when
	// no exploration ran — a cache hit, a remote result, or an
	// experiment that does not explore through the memo. Like Cached
	// it is not part of the wire form.
	Memo sched.MemoStats
	// Duration is the experiment's wall-clock time.
	Duration time.Duration
	// bodies, when set (WithBodies), keeps this result's encoded
	// response body per format for Body. Copies share it.
	bodies *bodies
}

// FirstError returns the first failed result's error in result order.
func FirstError(results []Result) error {
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("%s: %w", r.ID, r.Err)
		}
	}
	return nil
}

// Run executes the selected experiments, each at its default point
// (RunParam with the zero ParamSet), on a bounded worker pool and
// returns one Result per requested id, in request order regardless of
// completion order. A runner that returns an error, panics, or exceeds
// opts.Timeout yields a failed Result without affecting the other
// experiments or the process. Run itself errors only on configuration
// mistakes (an unknown experiment id); cancelling ctx marks the
// experiments not yet finished as failed with the context's error.
func Run(ctx context.Context, opts Options) ([]Result, error) {
	reg := opts.Registry
	if reg == nil {
		reg = registry
	}
	ids := opts.IDs
	if len(ids) == 0 {
		ids = sortIDs(reg)
	}
	exps := make([]Experiment, len(ids))
	for i, id := range ids {
		e, ok := reg[id]
		if !ok {
			return nil, fmt.Errorf("experiments: unknown experiment %q", id)
		}
		exps[i] = e
	}

	jobs := opts.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(ids) {
		jobs = len(ids)
	}

	results := make([]Result, len(ids))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = RunParam(ctx, exps[i], ParamSet{}, opts)
			}
		}()
	}
	for i := range ids {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results, nil
}

// cacheHit marks a stored result as served from the cache: it carries
// no exploration counters, since nothing explored.
func cacheHit(id string, res Result) Result {
	res.ID = id
	res.Cached = true
	res.Memo = sched.MemoStats{}
	return res
}

// runOne executes a single runner with panic isolation and a timeout.
// The runner executes in its own goroutine; on timeout or cancellation
// that goroutine is abandoned (runners take no context), which leaks it
// until it returns — acceptable for a CLI/test harness, and the reason
// timeouts should be generous rather than tight.
func runOne(ctx context.Context, id string, r func() (*Table, sched.MemoStats, error), timeout time.Duration) Result {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return Result{ID: id, Err: err}
	}
	type outcome struct {
		tab      *Table
		memo     sched.MemoStats
		err      error
		panicked bool
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if rec := recover(); rec != nil {
				ch <- outcome{err: fmt.Errorf("runner panicked: %v", rec), panicked: true}
			}
		}()
		tab, memo, err := r()
		if err == nil && tab == nil {
			err = fmt.Errorf("runner returned no table")
		}
		ch <- outcome{tab: tab, memo: memo, err: err}
	}()

	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	select {
	case o := <-ch:
		if o.err != nil {
			o.tab = nil
		}
		return Result{ID: id, Table: o.tab, Err: o.err, Panicked: o.panicked, Memo: o.memo, Duration: time.Since(start)}
	case <-timer:
		return Result{ID: id, Err: fmt.Errorf("timed out after %v: %w", timeout, context.DeadlineExceeded),
			Duration: time.Since(start)}
	case <-ctx.Done():
		return Result{ID: id, Err: ctx.Err(), Duration: time.Since(start)}
	}
}
