package agreement

import (
	"testing"

	"repro/internal/sched"
)

var binaryInputPairs = [][2]uint64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}

// TestAlg1Exhaustive validates Proposition 5.1 over every crash-free
// interleaving for k = 1..4 and all binary input pairs: outputs are valid
// decisions with denominator 2k+1, within 1/(2k+1) of each other, equal to
// the common input when inputs agree, and each process performs at most
// 2k+3 steps.
func TestAlg1Exhaustive(t *testing.T) {
	for k := 1; k <= 4; k++ {
		for _, inputs := range binaryInputPairs {
			runs, err := ExploreAlg1(k, inputs, func(ar *Alg1Run) {
				if e := ar.Result.Err(); e != nil {
					t.Fatalf("k=%d inputs=%v: execution error: %v", k, inputs, e)
				}
				if !ar.Decided[0] || !ar.Decided[1] {
					t.Fatalf("k=%d inputs=%v: a process terminated without deciding", k, inputs)
				}
				if err := ar.Check(k); err != nil {
					t.Fatalf("k=%d inputs=%v schedule=%v: %v", k, inputs, ar.Result.Schedule, err)
				}
				for i := 0; i < 2; i++ {
					if ar.Outs[i].Den != Alg1Den(k) {
						t.Fatalf("k=%d: process %d denominator %d", k, i, ar.Outs[i].Den)
					}
					if ar.Result.Steps[i] > Alg1MaxSteps(k) {
						t.Fatalf("k=%d inputs=%v: process %d took %d steps > 2k+3 = %d",
							k, inputs, i, ar.Result.Steps[i], Alg1MaxSteps(k))
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if runs == 0 {
				t.Fatalf("k=%d inputs=%v: no executions explored", k, inputs)
			}
		}
	}
}

// TestAlg1Lemma56 checks Lemma 5.6 exhaustively: a process that decides a
// boundary value y ∈ {0,1} has input y.
func TestAlg1Lemma56(t *testing.T) {
	k := 3
	for _, inputs := range binaryInputPairs {
		_, err := ExploreAlg1(k, inputs, func(ar *Alg1Run) {
			for i := 0; i < 2; i++ {
				if !ar.Decided[i] {
					continue
				}
				d := ar.Outs[i]
				if d.IsZero() && inputs[i] != 0 {
					t.Fatalf("inputs=%v: process %d decided 0 with input 1", inputs, i)
				}
				if d.IsOne() && inputs[i] != 1 {
					t.Fatalf("inputs=%v: process %d decided 1 with input 0", inputs, i)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestAlg1Solo checks that a process running solo decides its own input
// (the other process never takes a step).
func TestAlg1Solo(t *testing.T) {
	for k := 1; k <= 5; k++ {
		for pid := 0; pid < 2; pid++ {
			for _, x := range []uint64{0, 1} {
				inputs := [2]uint64{x, x}
				inputs[1-pid] = 1 - x // the crashed process's input is irrelevant
				ar, err := RunAlg1(k, inputs, sched.Solo{Pid: pid})
				if err != nil {
					t.Fatal(err)
				}
				if !ar.Decided[pid] {
					t.Fatalf("solo process %d did not decide", pid)
				}
				want := Dec(int(x)*Alg1Den(k), Alg1Den(k))
				if ar.Outs[pid] != want {
					t.Fatalf("k=%d solo %d input %d: decided %v, want %v",
						k, pid, x, ar.Outs[pid], want)
				}
			}
		}
	}
}

// TestAlg1WaitFreeUnderCrashes checks wait-freedom: whatever step the
// adversary crashes one process at, the other still decides, and the
// surviving decision is valid.
func TestAlg1WaitFreeUnderCrashes(t *testing.T) {
	k := 3
	for _, inputs := range binaryInputPairs {
		for victim := 0; victim < 2; victim++ {
			for crashAt := 0; crashAt <= Alg1MaxSteps(k); crashAt++ {
				scheduler := sched.NewCrashAt(&sched.RoundRobin{}, map[int]int{victim: crashAt})
				ar, err := RunAlg1(k, inputs, scheduler)
				if err != nil {
					t.Fatal(err)
				}
				survivor := 1 - victim
				if !ar.Decided[survivor] {
					t.Fatalf("inputs=%v victim=%d crashAt=%d: survivor did not decide",
						inputs, victim, crashAt)
				}
				if err := ar.Check(k); err != nil {
					t.Fatalf("inputs=%v victim=%d crashAt=%d: %v", inputs, victim, crashAt, err)
				}
			}
		}
	}
}

// TestAlg1RandomSchedules samples many random fair schedules at larger k
// (exhaustive enumeration would be too big) and validates each run.
func TestAlg1RandomSchedules(t *testing.T) {
	for _, k := range []int{8, 16, 40} {
		for _, inputs := range binaryInputPairs {
			for seed := int64(0); seed < 25; seed++ {
				ar, err := RunAlg1(k, inputs, sched.NewRandom(seed))
				if err != nil {
					t.Fatal(err)
				}
				if e := ar.Result.Err(); e != nil {
					t.Fatal(e)
				}
				if err := ar.Check(k); err != nil {
					t.Fatalf("k=%d inputs=%v seed=%d: %v", k, inputs, seed, err)
				}
			}
		}
	}
}

// TestAlg1OutputRangeCoverage reproduces the Figure 2 structure: with
// inputs (0,1) and k=4, the decisions observed across all executions cover
// the full discretized range {0, 1/9, ..., 9/9}.
func TestAlg1OutputRangeCoverage(t *testing.T) {
	k := 4
	seen := map[int]bool{}
	_, err := ExploreAlg1(k, [2]uint64{0, 1}, func(ar *Alg1Run) {
		for i := 0; i < 2; i++ {
			if ar.Decided[i] {
				seen[ar.Outs[i].Num] = true
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for num := 0; num <= Alg1Den(k); num++ {
		if !seen[num] {
			t.Errorf("value %d/%d never decided in any execution", num, Alg1Den(k))
		}
	}
}

// TestAlg1LockstepPrecision checks the paper's remark that Θ(1/ε) rounds
// give precision exactly 1/(2k+1) when the two processes run in lockstep.
func TestAlg1Lockstep(t *testing.T) {
	for _, k := range []int{1, 2, 5, 10} {
		ar, err := RunAlg1(k, [2]uint64{0, 1}, &sched.RoundRobin{})
		if err != nil {
			t.Fatal(err)
		}
		if e := ar.Result.Err(); e != nil {
			t.Fatal(e)
		}
		if err := ar.Check(k); err != nil {
			t.Fatal(err)
		}
		if ar.Outs[0] == ar.Outs[1] {
			continue // agreement can be exact; nothing more to check
		}
		if !WithinEps(ar.Outs[0], ar.Outs[1], 1, Alg1Den(k)) {
			t.Fatalf("k=%d: lockstep outputs %v %v too far", k, ar.Outs[0], ar.Outs[1])
		}
	}
}

// TestAlg1RegisterWidthNeverViolated confirms the protocol really lives in
// 1-bit registers: no width violations occur in any explored execution
// (a violation would surface as a process error).
func TestAlg1RegisterWidthNeverViolated(t *testing.T) {
	_, err := ExploreAlg1(2, [2]uint64{1, 0}, func(ar *Alg1Run) {
		for i, e := range ar.Result.Errs {
			if e != nil {
				t.Fatalf("process %d error: %v", i, e)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAlg1StepComplexityGrowth records that the step complexity grows
// linearly in k = Θ(1/ε), the paper's exponential gap with Theorem 8.1.
func TestAlg1StepComplexityGrowth(t *testing.T) {
	prev := 0
	for _, k := range []int{2, 4, 8, 16} {
		ar, err := RunAlg1(k, [2]uint64{0, 1}, &sched.RoundRobin{})
		if err != nil {
			t.Fatal(err)
		}
		steps := ar.Result.Steps[0]
		if steps <= prev {
			t.Fatalf("k=%d: steps %d did not grow (prev %d)", k, steps, prev)
		}
		if steps > Alg1MaxSteps(k) {
			t.Fatalf("k=%d: steps %d exceed 2k+3", k, steps)
		}
		prev = steps
	}
}

func TestWithinEps(t *testing.T) {
	tests := []struct {
		a, b           Decision
		epsNum, epsDen int
		want           bool
	}{
		{Dec(0, 9), Dec(1, 9), 1, 9, true},
		{Dec(0, 9), Dec(2, 9), 1, 9, false},
		{Dec(3, 9), Dec(3, 9), 0, 1, true},
		{Dec(1, 3), Dec(3, 9), 0, 1, true},  // equal rationals, different den
		{Dec(1, 2), Dec(2, 3), 1, 6, true},  // |1/2-2/3| = 1/6
		{Dec(1, 2), Dec(2, 3), 1, 7, false}, // 1/6 > 1/7
	}
	for _, tc := range tests {
		if got := WithinEps(tc.a, tc.b, tc.epsNum, tc.epsDen); got != tc.want {
			t.Errorf("WithinEps(%v,%v,%d/%d) = %v, want %v",
				tc.a, tc.b, tc.epsNum, tc.epsDen, got, tc.want)
		}
	}
}

func TestCheckConsensus(t *testing.T) {
	if err := CheckConsensus([]uint64{0, 1}, []uint64{1, 1}, []bool{true, true}); err != nil {
		t.Errorf("valid consensus rejected: %v", err)
	}
	if err := CheckConsensus([]uint64{0, 1}, []uint64{0, 1}, []bool{true, true}); err == nil {
		t.Error("disagreement accepted")
	}
	if err := CheckConsensus([]uint64{0, 0}, []uint64{1, 1}, []bool{true, true}); err == nil {
		t.Error("non-input decision accepted")
	}
	if err := CheckConsensus([]uint64{0, 1}, []uint64{0, 1}, []bool{true, false}); err != nil {
		t.Errorf("single decider rejected: %v", err)
	}
}
