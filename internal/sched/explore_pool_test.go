package sched

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
)

// TestExplorePrefixesPooledFrontier hammers the pooled replay path:
// eight explorations run at once, each over one range of a
// PartitionRoots carve, and each reuses its per-depth decision records
// and one runner across every replay. visit must observe each run's
// data intact (the pooling contract: valid until visit returns), and
// repeated rounds must agree with the lone explorer exactly. Run under
// -race (make race-sched), this is the pooled-replay race gate.
func TestExplorePrefixesPooledFrontier(t *testing.T) {
	steps := []int{3, 3, 2}
	want := collectAll(t, steps)
	factory := func() []ProcFunc { return stepSystem(steps) }
	roots, err := PartitionRoots(factory, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	ranges := carve(roots, 8)
	for round := 0; round < 3; round++ {
		fps := make([][]string, len(ranges))
		runs := make([]int, len(ranges))
		errs := make([]error, len(ranges))
		atOnce(len(ranges), func(i int) {
			runs[i], errs[i] = ExplorePrefixes(factory, 0, ranges[i], func(r *Result) bool {
				// Read everything visit is entitled to: the full
				// decision sequence and the counters — stale pooled
				// data would corrupt the fingerprint.
				fp := fingerprint(r)
				total := 0
				for pid, s := range r.Steps {
					if r.Crashed[pid] || r.Errs[pid] != nil {
						t.Errorf("unexpected crash/error for pid %d", pid)
					}
					total += s
				}
				if total != r.TotalSteps {
					t.Errorf("Steps sum %d != TotalSteps %d", total, r.TotalSteps)
				}
				if len(r.Schedule) != r.TotalSteps {
					t.Errorf("schedule of %d decisions, %d steps", len(r.Schedule), r.TotalSteps)
				}
				fps[i] = append(fps[i], fp)
				return true
			})
		})
		var union []string
		n := 0
		for i := range ranges {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			union = append(union, fps[i]...)
			n += runs[i]
		}
		if n != len(want) {
			t.Fatalf("round %d: %d runs, want %d", round, n, len(want))
		}
		sort.Strings(union)
		if !equalStrings(union, want) {
			t.Fatalf("round %d: pooled fingerprint multiset diverged from serial", round)
		}
	}
}

// TestRunIntoReuse pins the runInto contract directly: one Result and
// one kept runner per arity, recycled across differently-shaped runs —
// including runs ending in a halt, a deadlock, the step budget or a
// scheduler error, a crash of the process holding the step or of a
// parked one, and processes returning before their first step — match
// a fresh Run, and a normal run after each on the same runner and
// Result is unaffected. Each runner's process goroutines serve every
// run after its first, and stopping the runners leaves none behind. A
// run records no trace, so trace= is the decision sequence a recording
// scheduler saw.
func TestRunIntoReuse(t *testing.T) {
	base := runtime.NumGoroutine()
	errEarly := errors.New("early")
	early := func(*Proc) error { return errEarly }
	blocked := func(p *Proc) error {
		p.StepWhen(func() bool { return false })
		return nil
	}
	steps := func(ks ...int) func() []ProcFunc {
		return func() []ProcFunc { return stepSystem(ks) }
	}
	lowest := func() Scheduler { return Lowest{} }
	res := &Result{}
	runners := map[int]*runner{}
	for _, tc := range []struct {
		name     string
		procs    func() []ProcFunc
		sch      func() Scheduler
		maxSteps int
		want     string // summarize's rendering of the run
	}{
		{"2,2", steps(2, 2), lowest, 0,
			"steps=[2 2] crashed=[false false] errs=[<nil> <nil>] trace=0.0.1.1. deadlock=false budget=false"},
		{"3,1", steps(3, 1), lowest, 0,
			"steps=[3 1] crashed=[false false] errs=[<nil> <nil>] trace=0.0.0.1. deadlock=false budget=false"},
		{"1,1,1", steps(1, 1, 1), lowest, 0,
			"steps=[1 1 1] crashed=[false false false] errs=[<nil> <nil> <nil>] trace=0.1.2. deadlock=false budget=false"},
		{"constant enabled set", steps(5), lowest, 0,
			"steps=[5] crashed=[false] errs=[<nil>] trace=0.0.0.0.0. deadlock=false budget=false"},
		{"halt", steps(2, 2), func() Scheduler { return Solo{Pid: 1} }, 0,
			"steps=[0 2] crashed=[true false] errs=[<nil> <nil>] trace=1.1. deadlock=false budget=false"},
		{"deadlock", func() []ProcFunc { return []ProcFunc{blocked, stepSystem([]int{2})[0]} }, lowest, 0,
			"steps=[0 2] crashed=[true false] errs=[<nil> <nil>] trace=1.1. deadlock=true budget=false"},
		{"budget", steps(3, 3), lowest, 4,
			"steps=[3 1] crashed=[false true] errs=[<nil> <nil>] trace=0.0.0.1. deadlock=false budget=true"},
		{"scheduler error", steps(2, 2), func() Scheduler { return badPid{} }, 0,
			"sched: scheduler chose pid 7 not in enabled set [0 1]"},
		{"crash the holder", steps(3, 2), func() Scheduler { return NewCrashAt(Lowest{}, map[int]int{0: 2}) }, 0,
			"steps=[2 2] crashed=[true false] errs=[<nil> <nil>] trace=0.0.0.1.1. deadlock=false budget=false"},
		{"crash a parked process", steps(2, 2), func() Scheduler {
			return &script{ds: []Decision{{Pid: 0}, {Pid: 1, Crash: true}, {Pid: 0}}}
		}, 0,
			"steps=[2 0] crashed=[false true] errs=[<nil> <nil>] trace=0.1.0. deadlock=false budget=false"},
		{"return before first step", func() []ProcFunc { return []ProcFunc{early} }, lowest, 0,
			"steps=[0] crashed=[false] errs=[early] trace= deadlock=false budget=false"},
		{"return before first step beside a stepper", func() []ProcFunc { return []ProcFunc{early, stepSystem([]int{2})[0]} }, lowest, 0,
			"steps=[0 2] crashed=[false false] errs=[early <nil>] trace=1.1. deadlock=false budget=false"},
		{"2,2 again", steps(2, 2), lowest, 0,
			"steps=[2 2] crashed=[false false] errs=[<nil> <nil>] trace=0.0.1.1. deadlock=false budget=false"},
	} {
		run := func(procs []ProcFunc, sch Scheduler, maxSteps int) string {
			t.Helper()
			rn := runners[len(procs)]
			if rn == nil {
				rn = newRunner(len(procs), true)
				runners[len(procs)] = rn
			}
			rec := &recorder{inner: sch}
			got, err := runInto(Config{Scheduler: rec, MaxSteps: maxSteps}, procs, res, rn)
			if err == nil && got != res {
				t.Fatalf("%s: runInto did not reuse the provided Result", tc.name)
			}
			return summarize(got, err, rec)
		}
		fresh := func(procs []ProcFunc, sch Scheduler, maxSteps int) string {
			rec := &recorder{inner: sch}
			got, err := Run(Config{Scheduler: rec, MaxSteps: maxSteps}, procs)
			return summarize(got, err, rec)
		}

		if got := run(tc.procs(), tc.sch(), tc.maxSteps); got != tc.want {
			t.Errorf("%s: reused runner gave %q, want %q", tc.name, got, tc.want)
		}
		if got := fresh(tc.procs(), tc.sch(), tc.maxSteps); got != tc.want {
			t.Errorf("%s: fresh Run gave %q, want %q", tc.name, got, tc.want)
		}
		// A normal run of the same arity on the same runner and Result.
		ks := make([]int, len(tc.procs()))
		for i := range ks {
			ks[i] = 2
		}
		if got, want := run(stepSystem(ks), &RoundRobin{}, 0), fresh(stepSystem(ks), &RoundRobin{}, 0); got != want {
			t.Errorf("after %s: reused runner gave %q, fresh Run %q", tc.name, got, want)
		}
	}
	for _, rn := range runners {
		rn.stop()
	}
	settleGoroutines(t, base)
}

// script replays a fixed sequence of decisions.
type script struct {
	ds  []Decision
	pos int
}

func (s *script) Next([]int) Decision {
	s.pos++
	return s.ds[s.pos-1]
}

// recorder wraps a scheduler and records every decision it returns
// other than Halt — crashes included — as a fingerprint-style trace.
type recorder struct {
	inner Scheduler
	trace strings.Builder
}

func (s *recorder) Next(enabled []int) Decision {
	d := s.inner.Next(enabled)
	if d.Pid != Halt {
		fmt.Fprintf(&s.trace, "%d.", d.Pid)
	}
	return d
}

// summarize renders a run's outcome, or its error, for comparison.
func summarize(r *Result, err error, rec *recorder) string {
	if err != nil {
		return err.Error()
	}
	return fmt.Sprintf("steps=%v crashed=%v errs=%v trace=%s deadlock=%v budget=%v",
		r.Steps, r.Crashed, r.Errs, rec.trace.String(), r.Deadlocked, r.BudgetExceeded)
}

// lifetimeSys builds two-process systems whose processes take two steps
// each and whose memo state is the steps each has taken. Its boom-th
// instance (counting from 1) has process 1 panic after its first step,
// so the panic reaches a runner that has already served replays.
type lifetimeSys struct {
	calls atomic.Int32
	boom  int32
}

func (s *lifetimeSys) instance() MemoInstance {
	panics := s.calls.Add(1) == s.boom
	taken := make([]uint64, 2)
	procs := make([]ProcFunc, 2)
	for i := range procs {
		procs[i] = func(p *Proc) error {
			for k := 0; k < 2; k++ {
				p.Step()
				if panics && p.ID == 1 {
					panic("boom")
				}
				taken[p.ID]++
			}
			return nil
		}
	}
	return MemoInstance{Procs: procs, State: func() StateKey {
		var c Canonicalizer
		c.Proc(taken[0])
		c.Proc(taken[1])
		return c.KeyOrdered()
	}}
}

func (s *lifetimeSys) procs() []ProcFunc { return s.instance().Procs }

// TestRunnerGoroutineLifetime: every explorer stops the runners whose
// process goroutines it keeps across replays, on every way it returns
// — cleanly, with an error, by stopping early, and through a panic
// raised again on its caller — so the goroutine count settles back to
// where it started. A runner left running would hold its goroutines
// parked forever.
func TestRunnerGoroutineLifetime(t *testing.T) {
	sys := func(boom int32) *lifetimeSys { return &lifetimeSys{boom: boom} }
	all := func(*Result) bool { return true }
	notLive := [][]int{{7}}
	for _, tc := range []struct {
		name    string
		explore func() error
		want    string // the error, or "panic: " and the panic; "" for none
	}{
		{"Explore/clean", func() error {
			_, err := Explore(sys(0).procs, 0, all)
			return err
		}, ""},
		{"Explore/visit stops", func() error {
			visits := 0
			_, err := Explore(sys(0).procs, 0, func(*Result) bool { visits++; return visits < 2 })
			return err
		}, ""},
		{"Explore/arity changes", func() error {
			calls := 0
			_, err := Explore(func() []ProcFunc {
				if calls++; calls == 1 {
					return stepSystem([]int{2, 2})
				}
				return stepSystem([]int{1, 1, 1})
			}, 0, all)
			return err
		}, ""},
		{"Explore/process panic", func() error {
			_, err := Explore(sys(3).procs, 0, all)
			return err
		}, "panic: sched: process 1 panicked: boom"},
		{"ExplorePrefixes/clean", func() error {
			_, err := ExplorePrefixes(sys(0).procs, 0, [][]int{{0}, {1}}, all)
			return err
		}, ""},
		{"ExplorePrefixes/prefix not live", func() error {
			_, err := ExplorePrefixes(sys(0).procs, 0, notLive, all)
			return err
		}, ErrPrefixNotLive.Error()},
		{"ExplorePrefixes/process panic", func() error {
			_, err := ExplorePrefixes(sys(3).procs, 0, [][]int{{}}, all)
			return err
		}, "panic: sched: process 1 panicked: boom"},
		{"ExplorePrefixes/visit panic", func() error {
			visits := 0
			_, err := ExplorePrefixes(sys(0).procs, 0, [][]int{{}}, func(*Result) bool {
				if visits++; visits == 3 {
					panic("visit boom")
				}
				return true
			})
			return err
		}, "panic: visit boom"},
		{"ExploreMemoPrefixes/clean", func() error {
			_, _, err := ExploreMemo(sys(0).instance, MemoOptions{})
			return err
		}, ""},
		{"ExploreMemoPrefixes/prefix not live", func() error {
			_, _, err := ExploreMemoPrefixes(sys(0).instance, MemoOptions{}, notLive)
			return err
		}, ErrPrefixNotLive.Error()},
		{"ExploreMemoPrefixes/missing State", func() error {
			s := sys(0)
			_, _, err := ExploreMemo(func() MemoInstance {
				inst := s.instance()
				if s.calls.Load() > 1 {
					inst.State = nil
				}
				return inst
			}, MemoOptions{})
			return err
		}, errMemoState.Error()},
		{"ExploreMemoPrefixes/missing Merge", func() error {
			s := sys(0)
			_, _, err := ExploreMemo(func() MemoInstance {
				inst := s.instance()
				inst.Leaf = func(*Result) any { return 1 }
				return inst
			}, MemoOptions{})
			return err
		}, "MemoOptions.Merge is required"},
		{"ExploreMemoPrefixes/process panic", func() error {
			_, _, err := ExploreMemo(sys(3).instance, MemoOptions{})
			return err
		}, "panic: sched: process 1 panicked: boom"},
		{"PartitionRoots/clean", func() error {
			_, err := PartitionRoots(sys(0).procs, 0, 2)
			return err
		}, ""},
		{"PartitionRoots/process panic", func() error {
			_, err := PartitionRoots(sys(3).procs, 0, 2)
			return err
		}, "panic: sched: process 1 panicked: boom"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			got := func() (got string) {
				defer func() {
					if rec := recover(); rec != nil {
						got = fmt.Sprint("panic: ", rec)
					}
				}()
				if err := tc.explore(); err != nil {
					return err.Error()
				}
				return ""
			}()
			if (got == "") != (tc.want == "") || !strings.Contains(got, tc.want) {
				t.Fatalf("ended with %q, want %q", got, tc.want)
			}
			settleGoroutines(t, base)
		})
	}
}
