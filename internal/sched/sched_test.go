package sched

import (
	"errors"
	"fmt"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// counterProc takes k plain steps and records the order of its step grants
// into the shared log (safe: only one process runs at a time).
func counterProc(k int, log *[]int) ProcFunc {
	return func(p *Proc) error {
		for i := 0; i < k; i++ {
			p.Step()
			*log = append(*log, p.ID)
		}
		return nil
	}
}

func TestRunRoundRobin(t *testing.T) {
	var log []int
	procs := []ProcFunc{counterProc(3, &log), counterProc(3, &log), counterProc(3, &log)}
	res, err := Run(Config{Scheduler: &RoundRobin{}}, procs)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSteps != 9 {
		t.Fatalf("TotalSteps = %d, want 9", res.TotalSteps)
	}
	want := []int{0, 1, 2, 0, 1, 2, 0, 1, 2}
	if len(log) != len(want) {
		t.Fatalf("log = %v", log)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
	for i := 0; i < 3; i++ {
		if !res.Correct(i) {
			t.Errorf("process %d not correct", i)
		}
		if res.Steps[i] != 3 {
			t.Errorf("Steps[%d] = %d, want 3", i, res.Steps[i])
		}
	}
}

func TestRunLowestSerializes(t *testing.T) {
	var log []int
	procs := []ProcFunc{counterProc(2, &log), counterProc(2, &log)}
	res, err := Run(Config{Scheduler: Lowest{}}, procs)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 1, 1}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
	if res.TotalSteps != 4 {
		t.Fatalf("TotalSteps = %d", res.TotalSteps)
	}
}

func TestRunSolo(t *testing.T) {
	var log []int
	procs := []ProcFunc{counterProc(4, &log), counterProc(4, &log)}
	res, err := Run(Config{Scheduler: Solo{Pid: 1}}, procs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps[1] != 4 || res.Steps[0] != 0 {
		t.Fatalf("Steps = %v, want [0 4]", res.Steps)
	}
	if !res.Crashed[0] {
		t.Fatal("process 0 should be crashed (never scheduled)")
	}
	if !res.Correct(1) {
		t.Fatal("process 1 should be correct")
	}
}

func TestRunSequential(t *testing.T) {
	var log []int
	procs := []ProcFunc{counterProc(2, &log), counterProc(2, &log), counterProc(2, &log)}
	res, err := Run(Config{Scheduler: Sequential{Order: []int{2, 0}}}, procs)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 2, 0, 0}
	for i := range want {
		if i >= len(log) || log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
	if !res.Crashed[1] {
		t.Fatal("process 1 should be crashed (not in order)")
	}
}

func TestRunCrashAt(t *testing.T) {
	var log []int
	inner := &RoundRobin{}
	sch := NewCrashAt(inner, map[int]int{1: 2})
	procs := []ProcFunc{counterProc(5, &log), counterProc(5, &log)}
	res, err := Run(Config{Scheduler: sch}, procs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Crashed[1] {
		t.Fatal("process 1 should have crashed")
	}
	if res.Steps[1] != 2 {
		t.Fatalf("process 1 took %d steps, want 2 before crash", res.Steps[1])
	}
	if !res.Correct(0) || res.Steps[0] != 5 {
		t.Fatalf("process 0 should complete 5 steps, got %d", res.Steps[0])
	}
}

func TestRunCrashAtStart(t *testing.T) {
	var log []int
	sch := NewCrashAt(Lowest{}, map[int]int{0: 0})
	procs := []ProcFunc{counterProc(3, &log), counterProc(3, &log)}
	res, err := Run(Config{Scheduler: sch}, procs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Crashed[0] || res.Steps[0] != 0 {
		t.Fatalf("process 0 should crash before any step, Steps=%v", res.Steps)
	}
	if res.Steps[1] != 3 {
		t.Fatalf("process 1 took %d steps", res.Steps[1])
	}
}

func TestRunStepWhen(t *testing.T) {
	// Process 1 waits for the flag that process 0 sets after two steps.
	var flag bool
	order := []int{}
	procs := []ProcFunc{
		func(p *Proc) error {
			p.Step()
			order = append(order, 0)
			p.Step()
			flag = true
			order = append(order, 0)
			return nil
		},
		func(p *Proc) error {
			p.StepWhen(func() bool { return flag })
			order = append(order, 1)
			return nil
		},
	}
	// Even a scheduler that would prefer process 1 cannot schedule it
	// before the flag is set.
	res, err := Run(Config{Scheduler: Sequential{Order: []int{1, 0}}}, procs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked {
		t.Fatal("unexpected deadlock")
	}
	want := []int{0, 0, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRunDeadlock(t *testing.T) {
	procs := []ProcFunc{
		func(p *Proc) error {
			p.StepWhen(func() bool { return false })
			return nil
		},
	}
	res, err := Run(Config{Scheduler: Lowest{}}, procs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deadlocked {
		t.Fatal("expected deadlock")
	}
	if !errors.Is(res.Err(), ErrDeadlock) {
		t.Fatalf("Err = %v", res.Err())
	}
}

func TestRunBudget(t *testing.T) {
	procs := []ProcFunc{
		func(p *Proc) error {
			for {
				p.Step()
			}
		},
	}
	res, err := Run(Config{Scheduler: Lowest{}, MaxSteps: 100}, procs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.BudgetExceeded {
		t.Fatal("expected budget exceeded")
	}
	if !errors.Is(res.Err(), ErrBudget) {
		t.Fatalf("Err = %v", res.Err())
	}
}

func TestRunProcError(t *testing.T) {
	wantErr := errors.New("boom")
	procs := []ProcFunc{
		func(p *Proc) error { p.Step(); return wantErr },
	}
	res, err := Run(Config{Scheduler: Lowest{}}, procs)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.Errs[0], wantErr) {
		t.Fatalf("Errs[0] = %v", res.Errs[0])
	}
	if res.Correct(0) {
		t.Fatal("errored process reported correct")
	}
}

func TestRunRandomSeedsDeterministic(t *testing.T) {
	run := func(seed int64) []int {
		var log []int
		procs := []ProcFunc{counterProc(5, &log), counterProc(5, &log), counterProc(5, &log)}
		if _, err := Run(Config{Scheduler: NewRandom(seed)}, procs); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged: %v vs %v", a, b)
		}
	}
}

func TestExploreCountsInterleavings(t *testing.T) {
	// Two processes with a and b steps have C(a+b, a) interleavings.
	binom := func(n, k int) int {
		res := 1
		for i := 0; i < k; i++ {
			res = res * (n - i) / (i + 1)
		}
		return res
	}
	tests := []struct{ a, b int }{{1, 1}, {2, 2}, {3, 2}, {3, 3}, {4, 4}}
	for _, tc := range tests {
		factory := func() []ProcFunc {
			var sink []int
			return []ProcFunc{counterProc(tc.a, &sink), counterProc(tc.b, &sink)}
		}
		runs, err := ExploreAll(factory, 0, func(*Result) {})
		if err != nil {
			t.Fatal(err)
		}
		if want := binom(tc.a+tc.b, tc.a); runs != want {
			t.Errorf("a=%d b=%d: %d interleavings, want %d", tc.a, tc.b, runs, want)
		}
	}
}

func TestExploreThreeProcs(t *testing.T) {
	// Multinomial (2+2+2)! / (2!·2!·2!) = 90 interleavings.
	factory := func() []ProcFunc {
		var sink []int
		return []ProcFunc{counterProc(2, &sink), counterProc(2, &sink), counterProc(2, &sink)}
	}
	runs, err := ExploreAll(factory, 0, func(*Result) {})
	if err != nil {
		t.Fatal(err)
	}
	if runs != 90 {
		t.Fatalf("runs = %d, want 90", runs)
	}
}

func TestExploreDistinctSchedules(t *testing.T) {
	factory := func() []ProcFunc {
		var sink []int
		return []ProcFunc{counterProc(2, &sink), counterProc(2, &sink)}
	}
	seen := map[string]bool{}
	_, err := ExploreAll(factory, 0, func(r *Result) {
		key := ""
		for _, pid := range r.Schedule {
			key += string(rune('0' + pid))
		}
		if seen[key] {
			t.Errorf("schedule %q visited twice", key)
		}
		seen[key] = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 6 {
		t.Fatalf("distinct schedules = %d, want 6", len(seen))
	}
}

// badPid breaks the Scheduler contract by choosing a pid outside the
// enabled set.
type badPid struct{}

func (badPid) Next([]int) Decision { return Decision{Pid: 7} }

// settleGoroutines waits for the goroutine count to fall back to base:
// every process coroutine a run or an explorer made must have ended.
// The count is polled rather than read once, so that goroutines a test
// started itself may finish exiting.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left behind", runtime.NumGoroutine()-base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunInvalidPidUnwinds: a scheduler choosing a pid outside the
// enabled set is an error, and every process is unwound before Run
// returns it.
func TestRunInvalidPidUnwinds(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		_, err := Run(Config{Scheduler: badPid{}}, stepSystem([]int{2, 2}))
		if err == nil || !strings.Contains(err.Error(), "not in enabled set") {
			t.Fatalf("err = %v, want the enabled-set error", err)
		}
	}
	settleGoroutines(t, base)
}

// panicky is a scheduler that grants the lowest pid once, then panics.
type panicky struct{ calls int }

func (s *panicky) Next(enabled []int) Decision {
	if s.calls++; s.calls > 1 {
		panic("scheduler boom")
	}
	return Decision{Pid: enabled[0]}
}

// panicFirst is a scheduler that panics on its first decision, which
// the runner makes before any process holds the step.
type panicFirst struct{}

func (panicFirst) Next([]int) Decision { panic("scheduler boom") }

// TestRunProcPanic: a panic in a process, before its first step or
// after some, is raised again on Run's caller, naming the process, once
// every other process has unwound. So is a Scheduler panic, against
// the process that was deciding: one at a step, or one that had just
// returned. A panic in a run's first decision names a process too
// (which one is the runner's choice), and both parked processes unwind.
func TestRunProcPanic(t *testing.T) {
	boom := func(steps int) ProcFunc {
		return func(p *Proc) error {
			for i := 0; i < steps; i++ {
				p.Step()
			}
			panic("boom")
		}
	}
	roundRobin := func() Scheduler { return &RoundRobin{} }
	for _, tc := range []struct {
		name  string
		procs []ProcFunc
		sch   func() Scheduler
		want  string
	}{
		{"after steps", []ProcFunc{counterProc(3, new([]int)), boom(2)}, roundRobin, "process 1 panicked: boom"},
		{"before first step", []ProcFunc{boom(0), counterProc(3, new([]int))}, roundRobin, "process 0 panicked: boom"},
		{"alone before first step", []ProcFunc{boom(0)}, roundRobin, "process 0 panicked: boom"},
		{"scheduler at a step", stepSystem([]int{2}), func() Scheduler { return &panicky{} }, "process 0 panicked: scheduler boom"},
		{"scheduler after a return", stepSystem([]int{1, 1}), func() Scheduler { return &panicky{} }, "process 0 panicked: scheduler boom"},
		{"scheduler at the first decision", stepSystem([]int{2, 2}), func() Scheduler { return panicFirst{} }, "panicked: scheduler boom"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			rec := func() (rec any) {
				defer func() { rec = recover() }()
				_, _ = Run(Config{Scheduler: tc.sch()}, tc.procs)
				return nil
			}()
			if got := fmt.Sprint(rec); !strings.Contains(got, tc.want) || !namesProcess.MatchString(got) {
				t.Fatalf("recovered %q, want it to name a process and contain %q", got, tc.want)
			}
			settleGoroutines(t, base)
		})
	}
}

// namesProcess matches the panic the runner raises on Run's caller.
var namesProcess = regexp.MustCompile(`^sched: process \d+ panicked: `)

// TestRunStartOrder: a run starts its processes one at a time in pid
// order, each up to its first step, so what they do before that step
// needs no synchronisation: each appends its pid to one unguarded
// slice, which must read 0…n−1, on a one-shot run and on a kept runner
// alike. make race-sched runs it under the race detector.
func TestRunStartOrder(t *testing.T) {
	const n = 4
	var order []int
	procs := make([]ProcFunc, n)
	for i := range procs {
		procs[i] = func(p *Proc) error {
			order = append(order, p.ID)
			p.Step()
			return nil
		}
	}
	rn := newRunner(n, true)
	defer rn.stop()
	for round := 0; round < 20; round++ {
		order = order[:0]
		var err error
		if round%2 == 0 {
			_, err = Run(Config{Scheduler: NewRandom(int64(round))}, procs)
		} else {
			_, err = runInto(Config{Scheduler: NewRandom(int64(round))}, procs, nil, rn)
		}
		if err != nil {
			t.Fatal(err)
		}
		if want := []int{0, 1, 2, 3}; !slices.Equal(order, want) {
			t.Fatalf("round %d: processes started in order %v, want %v", round, order, want)
		}
	}
}

// TestRunAllocsIndependentOfLength: a plain run records no per-step
// trace, so its allocations do not grow with its length — a 20,000-step
// run allocates no more than a 10-step one, whether the step stays with
// its holder (one process under Lowest) or is handed off on every step
// (two under RoundRobin).
func TestRunAllocsIndependentOfLength(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		sch  func() Scheduler
	}{
		{"solo", 1, func() Scheduler { return Lowest{} }},
		{"handoff", 2, func() Scheduler { return &RoundRobin{} }},
	} {
		allocs := func(steps int) float64 {
			procs := make([]ProcFunc, tc.n)
			for i := range procs {
				procs[i] = func(p *Proc) error {
					for s := 0; s < steps/tc.n; s++ {
						p.Step()
					}
					return nil
				}
			}
			return testing.AllocsPerRun(5, func() {
				if _, err := Run(Config{Scheduler: tc.sch()}, procs); err != nil {
					t.Fatal(err)
				}
			})
		}
		short, long := allocs(10), allocs(20000)
		if long > short {
			t.Errorf("%s: a 20,000-step run allocates %v times, a 10-step run %v", tc.name, long, short)
		}
	}
}
