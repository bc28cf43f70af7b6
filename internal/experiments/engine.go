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
	Registry map[string]Runner
	// Cache, when non-nil, is consulted before each runner executes and
	// updated after each success. A hit skips the runner entirely and
	// yields the stored Result with Cached set; failed results are never
	// stored, so errors are always recomputed. Cache write errors are
	// ignored: caching is an optimisation, never a reason to fail a run.
	Cache Cache
}

// registry and families are the real registry and its parameterized
// families, built once: Run reads them on every call that names no
// override — every figuresd request — and never mutates them.
var (
	registry = Registry()
	families = Families()
)

// Cache is the engine's view of a result store, keyed by experiment id.
// Implementations (internal/cache.Store) own the full cache key —
// registry, Go, and module versions — so a stale store simply misses.
type Cache interface {
	// Get returns the stored result for an experiment id. ok reports a
	// usable hit; implementations must return ok == false (never a
	// stale or corrupted result) when the entry cannot be trusted.
	Get(id string) (Result, bool)
	// Put stores a successful result. Implementations may refuse
	// (e.g. failed results); the engine ignores the error.
	Put(id string, r Result) error
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

// Run executes the selected experiments on a bounded worker pool and
// returns one Result per requested id, in request order regardless of
// completion order. A runner that returns an error, panics, or exceeds
// opts.Timeout yields a failed Result without affecting the other
// experiments or the process. Run itself errors only on configuration
// mistakes (an unknown experiment id); cancelling ctx marks the
// experiments not yet finished as failed with the context's error.
func Run(ctx context.Context, opts Options) ([]Result, error) {
	// Families apply to the real registry only, the FamiliesFor rule:
	// an override's ids are not the real experiments.
	reg, fams := opts.Registry, map[string]Family(nil)
	if reg == nil {
		reg, fams = registry, families
	}
	ids := opts.IDs
	if len(ids) == 0 {
		ids = sortIDs(reg)
	}
	runners := make([]memoRunner, len(ids))
	for i, id := range ids {
		r, ok := reg[id]
		if !ok {
			return nil, fmt.Errorf("experiments: unknown experiment %q", id)
		}
		runners[i] = func() (*Table, sched.MemoStats, error) {
			tab, err := r()
			return tab, sched.MemoStats{}, err
		}
		// A family's Run at its default point renders the fixed
		// runner's bytes (the Family contract) and also returns the
		// memo counters, so the real registry's E2 and E15 run through
		// it.
		if f, ok := fams[id]; ok {
			runners[i] = func() (*Table, sched.MemoStats, error) {
				ps, err := DefaultParams(f)
				if err != nil {
					return nil, sched.MemoStats{}, err
				}
				return f.Run(ps)
			}
		}
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
				results[i] = runCached(ctx, ids[i], runners[i], opts)
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

// memoRunner is a Runner that also returns its memoized exploration's
// counters (zero when it explored nothing through the memo).
type memoRunner func() (*Table, sched.MemoStats, error)

// runCached serves one experiment from opts.Cache when possible and
// runs it (storing a success back) otherwise.
func runCached(ctx context.Context, id string, r memoRunner, opts Options) Result {
	if opts.Cache != nil {
		if res, ok := opts.Cache.Get(id); ok && res.Err == nil && res.Table != nil {
			return cacheHit(id, res)
		}
	}
	res := runOne(ctx, id, r, opts.Timeout)
	if opts.Cache != nil && res.Err == nil {
		opts.Cache.Put(id, res) // best-effort; a failed write just means a future miss
	}
	return res
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
func runOne(ctx context.Context, id string, r memoRunner, timeout time.Duration) Result {
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
