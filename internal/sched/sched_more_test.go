package sched

import (
	"slices"
	"testing"
)

// TestExploreAsymmetricMultinomial: 3 processes with 1, 2, 3 steps have
// 6!/(1!·2!·3!) = 60 interleavings.
func TestExploreAsymmetricMultinomial(t *testing.T) {
	factory := func() []ProcFunc {
		var sink []int
		return []ProcFunc{counterProc(1, &sink), counterProc(2, &sink), counterProc(3, &sink)}
	}
	runs, err := ExploreAll(factory, 0, func(*Result) {})
	if err != nil {
		t.Fatal(err)
	}
	if runs != 60 {
		t.Fatalf("runs = %d, want 60", runs)
	}
}

// TestExploreVisitStops: returning false stops exploration without error.
func TestExploreVisitStops(t *testing.T) {
	factory := func() []ProcFunc {
		var sink []int
		return []ProcFunc{counterProc(3, &sink), counterProc(3, &sink)}
	}
	seen := 0
	runs, err := Explore(factory, 0, func(*Result) bool {
		seen++
		return seen < 2
	})
	if err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Fatalf("runs = %d, want 2", runs)
	}
}

// TestCrashAtMultipleVictims crashes two of three processes.
func TestCrashAtMultipleVictims(t *testing.T) {
	var log []int
	sch := NewCrashAt(&RoundRobin{}, map[int]int{0: 1, 2: 2})
	procs := []ProcFunc{counterProc(5, &log), counterProc(5, &log), counterProc(5, &log)}
	res, err := Run(Config{Scheduler: sch}, procs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Crashed[0] || !res.Crashed[2] {
		t.Fatalf("crashed = %v", res.Crashed)
	}
	if res.Steps[0] != 1 || res.Steps[2] != 2 {
		t.Fatalf("steps = %v", res.Steps)
	}
	if !res.Correct(1) || res.Steps[1] != 5 {
		t.Fatalf("survivor steps = %d", res.Steps[1])
	}
}

// TestReplayWithFallback: after the forced prefix the fallback policy
// takes over.
func TestReplayWithFallback(t *testing.T) {
	var log []int
	procs := []ProcFunc{counterProc(2, &log), counterProc(2, &log)}
	sch := &Replay{Prefix: []int{1}, Fallback: Lowest{}}
	res, err := Run(Config{Scheduler: sch}, procs)
	if err != nil {
		t.Fatal(err)
	}
	if e := res.Err(); e != nil {
		t.Fatal(e)
	}
	want := []int{1, 0, 0, 1}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

// TestRoundRobinFairness: within any window of n grants every enabled
// process appears.
func TestRoundRobinFairness(t *testing.T) {
	var log []int
	procs := []ProcFunc{counterProc(10, &log), counterProc(10, &log), counterProc(10, &log)}
	if _, err := Run(Config{Scheduler: &RoundRobin{}}, procs); err != nil {
		t.Fatal(err)
	}
	for start := 0; start+3 <= len(log); start += 3 {
		seen := map[int]bool{}
		for _, pid := range log[start : start+3] {
			seen[pid] = true
		}
		if len(seen) != 3 {
			t.Fatalf("window %v not fair", log[start:start+3])
		}
	}
}

// TestRandomFairnessEventually: under the seeded random scheduler every
// process completes (probabilistic fairness holds on finite programs).
func TestRandomFairnessEventually(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		var log []int
		procs := []ProcFunc{counterProc(20, &log), counterProc(20, &log), counterProc(20, &log), counterProc(20, &log)}
		res, err := Run(Config{Scheduler: NewRandom(seed)}, procs)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if res.Steps[i] != 20 {
				t.Fatalf("seed %d: steps = %v", seed, res.Steps)
			}
		}
	}
}

// TestProgramOrderPreserved: each process's steps occur in program order
// regardless of the interleaving (sanity of the step machinery).
func TestProgramOrderPreserved(t *testing.T) {
	factory := func() []ProcFunc {
		var sink []int
		return []ProcFunc{counterProc(3, &sink), counterProc(2, &sink)}
	}
	_, err := ExploreAll(factory, 0, func(r *Result) {
		count := map[int]int{}
		for _, pid := range r.Schedule {
			count[pid]++
		}
		if count[0] != 3 || count[1] != 2 {
			t.Fatalf("decision counts %v", count)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSoloOnFinishedProcessHalts: Solo halts once its process is done,
// crashing the rest.
func TestSoloOnFinishedProcessHalts(t *testing.T) {
	var log []int
	procs := []ProcFunc{counterProc(2, &log), counterProc(2, &log), counterProc(2, &log)}
	res, err := Run(Config{Scheduler: Solo{Pid: 2}}, procs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct(2) {
		t.Fatal("solo process should complete")
	}
	if !res.Crashed[0] || !res.Crashed[1] {
		t.Fatal("other processes should be crashed at halt")
	}
}

// TestStepWhenManyWaiters: several processes blocked on conditions that
// unlock in sequence.
func TestStepWhenManyWaiters(t *testing.T) {
	stage := 0
	order := []int{}
	mk := func(want int) ProcFunc {
		return func(p *Proc) error {
			p.StepWhen(func() bool { return stage == want })
			order = append(order, want)
			stage++
			return nil
		}
	}
	// Processes wait for stages 2, 1, 0 respectively; they must complete
	// in reverse pid order.
	procs := []ProcFunc{mk(2), mk(1), mk(0)}
	res, err := Run(Config{Scheduler: Lowest{}}, procs)
	if err != nil {
		t.Fatal(err)
	}
	if e := res.Err(); e != nil {
		t.Fatal(e)
	}
	want := []int{0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

// TestDecisionTraceMatchesSteps: a Replay's record holds one pick per
// step, each pick inside the enabled set recorded with it — for the
// forced prefix and for the fallback's choices after it.
func TestDecisionTraceMatchesSteps(t *testing.T) {
	var log []int
	procs := []ProcFunc{counterProc(3, &log), counterProc(4, &log), counterProc(2, &log)}
	sch := &Replay{Prefix: []int{2, 1, 1}, Fallback: NewRandom(3)}
	res, err := Run(Config{Scheduler: sch}, procs)
	if err != nil {
		t.Fatal(err)
	}
	if len(sch.picks) != res.TotalSteps || len(sch.ends) != res.TotalSteps {
		t.Fatalf("%d picks, %d sets vs %d steps", len(sch.picks), len(sch.ends), res.TotalSteps)
	}
	if !replayedExactly(sch, sch.Prefix) {
		t.Fatalf("record %v does not start with the prefix %v", sch.picks, sch.Prefix)
	}
	if res.Schedule != nil {
		t.Fatalf("Run set Schedule %v", res.Schedule)
	}
	for i, pid := range sch.picks {
		if set := sch.set(i); !slices.Contains(set, pid) {
			t.Fatalf("decision %d picked %d outside enabled %v", i, pid, set)
		}
	}
}
