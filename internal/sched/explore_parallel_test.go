package sched

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
)

// Every explorer is serial; a caller that wants several explorations at
// once — the experiment engine's jobs, the server's requests, a shard
// fleet's prefix ranges — runs several calls side by side. The tests in
// this file run the exhaustive explorer that way.

// stepper builds n processes that each take steps plain steps.
func stepper(n, steps int) func() []ProcFunc {
	return func() []ProcFunc {
		procs := make([]ProcFunc, n)
		for i := range procs {
			procs[i] = func(p *Proc) error {
				for s := 0; s < steps; s++ {
					p.Step()
				}
				return nil
			}
		}
		return procs
	}
}

// schedule renders a result's decision sequence as a comparable key.
func schedule(r *Result) string {
	out := ""
	for _, pid := range r.Schedule {
		out += fmt.Sprintf("%d,", pid)
	}
	return out
}

// atOnce calls f(0), …, f(n-1), each on its own goroutine, and waits
// for all of them. f must not call t.Fatal; collect results by index.
// It and carve are schedtest.Concurrently and schedtest.Ranges, which
// this package's own tests cannot import (schedtest imports sched).
func atOnce(n int, f func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(i)
		}()
	}
	wg.Wait()
}

// carve splits roots into at most n contiguous, non-empty ranges.
func carve(roots [][]int, n int) [][][]int {
	n = max(1, min(n, len(roots)))
	out := make([][][]int, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, roots[i*len(roots)/n:(i+1)*len(roots)/n])
	}
	return out
}

// callOutcome is one ExplorePrefixes call's visits, in visit order,
// and its return values.
type callOutcome struct {
	visits []string
	runs   int
	err    error
}

// exploreAtOnce makes one ExplorePrefixes call per range, all at once.
func exploreAtOnce(factory func() []ProcFunc, ranges [][][]int) []callOutcome {
	out := make([]callOutcome, len(ranges))
	atOnce(len(ranges), func(i int) {
		o := &out[i]
		o.runs, o.err = ExplorePrefixes(factory, 0, ranges[i], func(r *Result) bool {
			o.visits = append(o.visits, schedule(r))
			return true
		})
	})
	return out
}

// TestExploreParallelMatchesSerial: with 1, 2 or 8 explorations of one
// system running at once, every whole-tree call visits exactly the
// lone ExploreAll's schedules in the same order, and calls over the
// ranges of a PartitionRoots carve together visit the same multiset,
// each execution once.
func TestExploreParallelMatchesSerial(t *testing.T) {
	for _, cfg := range []struct{ n, steps int }{{2, 3}, {3, 2}} {
		factory := stepper(cfg.n, cfg.steps)
		var want []string
		serialRuns, err := ExploreAll(factory, 0, func(r *Result) {
			want = append(want, schedule(r))
		})
		if err != nil {
			t.Fatal(err)
		}
		sorted := append([]string(nil), want...)
		sort.Strings(sorted)
		roots, err := PartitionRoots(factory, 0, 3)
		if err != nil {
			t.Fatal(err)
		}

		for _, callers := range []int{1, 2, 8} {
			whole := make([][][]int, callers)
			for i := range whole {
				whole[i] = [][]int{{}}
			}
			for i, o := range exploreAtOnce(factory, whole) {
				if o.err != nil {
					t.Fatal(o.err)
				}
				if o.runs != serialRuns || !equalStrings(o.visits, want) {
					t.Fatalf("n=%d steps=%d callers=%d call %d: %d runs, visit order differs from the lone explorer's %d",
						cfg.n, cfg.steps, callers, i, o.runs, serialRuns)
				}
			}

			var union []string
			runs := 0
			for _, o := range exploreAtOnce(factory, carve(roots, callers)) {
				if o.err != nil {
					t.Fatal(o.err)
				}
				union = append(union, o.visits...)
				runs += o.runs
			}
			sort.Strings(union)
			if runs != serialRuns || !equalStrings(union, sorted) {
				t.Fatalf("n=%d steps=%d callers=%d: ranges visit %d runs, serial %d, or a different multiset",
					cfg.n, cfg.steps, callers, runs, serialRuns)
			}
		}
	}
}

// TestExploreParallelDefaultWorkers: the explorers take no worker
// count. GOMAXPROCS whole-tree explorations at once — the fan-out the
// experiment engine's jobs default to — each report the lone run count.
func TestExploreParallelDefaultWorkers(t *testing.T) {
	serialRuns, err := ExploreAll(stepper(2, 2), 0, func(*Result) {})
	if err != nil {
		t.Fatal(err)
	}
	n := runtime.GOMAXPROCS(0)
	runs := make([]int, n)
	errs := make([]error, n)
	atOnce(n, func(i int) {
		runs[i], errs[i] = ExploreAll(stepper(2, 2), 0, func(*Result) {})
	})
	for i := range runs {
		if errs[i] != nil || runs[i] != serialRuns {
			t.Fatalf("call %d of %d: %d runs, %v; serial %d", i, n, runs[i], errs[i], serialRuns)
		}
	}
}

// TestExploreParallelPropagatesError: a scheduler configuration error
// surfaces from the call that hit it, while the explorations running
// beside it finish clean.
func TestExploreParallelPropagatesError(t *testing.T) {
	empty := func() []ProcFunc { return nil } // Run rejects empty process lists
	errs := make([]error, 4)
	runs := make([]int, 4)
	atOnce(4, func(i int) {
		factory := stepper(2, 2)
		if i%2 == 0 {
			factory = empty
		}
		runs[i], errs[i] = ExplorePrefixes(factory, 0, [][]int{{}}, func(*Result) bool { return true })
	})
	for i, err := range errs {
		if (err != nil) != (i%2 == 0) {
			t.Fatalf("call %d: err = %v (runs %d)", i, err, runs[i])
		}
	}
}

// TestExploreParallelProcessPanic: a process panic is raised again on
// the goroutine of the call whose system panicked, naming the process,
// as Run raises it, so that caller's recover sees it and the program
// lives on — with other calls panicking at the same time — and no
// process goroutine is left behind.
func TestExploreParallelProcessPanic(t *testing.T) {
	factory := func() []ProcFunc {
		return []ProcFunc{func(p *Proc) error {
			p.Step()
			panic("boom")
		}}
	}
	for _, callers := range []int{1, 4} {
		base := runtime.NumGoroutine()
		recs := make([]any, callers)
		atOnce(callers, func(i int) {
			defer func() { recs[i] = recover() }()
			_, _ = ExplorePrefixes(factory, 0, [][]int{{}}, func(*Result) bool { return true })
		})
		for i, rec := range recs {
			if got := fmt.Sprint(rec); !strings.Contains(got, "process 0 panicked: boom") {
				t.Fatalf("callers=%d call %d: recovered %q, want the process panic", callers, i, got)
			}
		}
		settleGoroutines(t, base)
	}
}
