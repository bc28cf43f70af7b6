package sched

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
)

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

// TestExploreParallelMatchesSerial checks that the parallel explorer
// visits exactly the serial explorer's executions — same count, same
// multiset of schedules — for several worker counts.
func TestExploreParallelMatchesSerial(t *testing.T) {
	for _, cfg := range []struct{ n, steps int }{{2, 3}, {3, 2}} {
		var want []string
		serialRuns, err := ExploreAll(stepper(cfg.n, cfg.steps), 0, func(r *Result) {
			want = append(want, schedule(r))
		})
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(want)

		for _, workers := range []int{1, 2, 8} {
			var got []string
			factory := func() Instance {
				procs := stepper(cfg.n, cfg.steps)()
				return Instance{Procs: procs, Done: func(r *Result) {
					got = append(got, schedule(r))
				}}
			}
			runs, err := ExploreParallel(factory, 0, workers)
			if err != nil {
				t.Fatal(err)
			}
			if runs != serialRuns {
				t.Fatalf("n=%d steps=%d workers=%d: %d runs, serial %d",
					cfg.n, cfg.steps, workers, runs, serialRuns)
			}
			sort.Strings(got)
			if len(got) != len(want) {
				t.Fatalf("workers=%d: %d schedules, want %d", workers, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("workers=%d: schedule multiset differs at %d: %q vs %q",
						workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestExploreParallelDefaultWorkers exercises the workers <= 0 default.
func TestExploreParallelDefaultWorkers(t *testing.T) {
	factory := func() Instance {
		return Instance{Procs: stepper(2, 2)()}
	}
	runs, err := ExploreParallel(factory, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	serialRuns, err := ExploreAll(stepper(2, 2), 0, func(*Result) {})
	if err != nil {
		t.Fatal(err)
	}
	if runs != serialRuns {
		t.Fatalf("default workers: %d runs, serial %d", runs, serialRuns)
	}
}

// TestExploreParallelPropagatesError: a scheduler configuration error
// inside a run surfaces instead of deadlocking the pool.
func TestExploreParallelPropagatesError(t *testing.T) {
	factory := func() Instance {
		return Instance{Procs: nil} // Run rejects empty process lists
	}
	if _, err := ExploreParallel(factory, 0, 4); err == nil {
		t.Fatal("empty system accepted")
	}
}

// TestExploreParallelProcessPanic: a process panic on a worker stops
// the exploration and is raised again on the caller's goroutine, naming
// the process, as Run raises it, so a caller's recover sees it and the
// program lives on; no worker or process goroutine is left behind.
func TestExploreParallelProcessPanic(t *testing.T) {
	factory := func() Instance {
		return Instance{Procs: []ProcFunc{func(p *Proc) error {
			p.Step()
			panic("boom")
		}}}
	}
	for _, workers := range []int{1, 4} {
		base := runtime.NumGoroutine()
		rec := func() (rec any) {
			defer func() { rec = recover() }()
			_, _ = ExploreParallel(factory, 0, workers)
			return nil
		}()
		if got := fmt.Sprint(rec); !strings.Contains(got, "process 0 panicked: boom") {
			t.Fatalf("workers=%d: recovered %q, want the process panic", workers, got)
		}
		settleGoroutines(t, base)
	}
}
