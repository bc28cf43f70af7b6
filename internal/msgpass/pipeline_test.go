package msgpass

import (
	"testing"

	"repro/internal/sched"
)

func runStage(t *testing.T, cfg PipelineConfig) *PipelineResult {
	t.Helper()
	pr, err := RunPipeline(cfg)
	if err != nil {
		t.Fatalf("stage %v: %v", cfg.Stage, err)
	}
	for i, e := range pr.Res.Errs {
		if e != nil {
			t.Fatalf("stage %v: node %d: %v", cfg.Stage, i, e)
		}
	}
	if err := pr.Check(cfg.Inputs, cfg.Rounds); err != nil {
		t.Fatalf("stage %v: %v", cfg.Stage, err)
	}
	return pr
}

func mixedInputs(n int) []int64 {
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(i % 2)
	}
	return xs
}

func TestStageDirect(t *testing.T) {
	for _, scheduler := range []sched.Scheduler{&sched.RoundRobin{}, sched.NewRandom(3)} {
		pr := runStage(t, PipelineConfig{
			Stage: StageDirect, N: 5, T: 2, Rounds: 5,
			Inputs: mixedInputs(5), Scheduler: scheduler,
		})
		for i, d := range pr.Decided {
			if !d {
				t.Fatalf("process %d undecided", i)
			}
		}
	}
}

func TestStageDirectValidity(t *testing.T) {
	for _, x := range []int64{0, 1} {
		inputs := []int64{x, x, x, x}
		pr := runStage(t, PipelineConfig{
			Stage: StageDirect, N: 4, T: 1, Rounds: 4,
			Inputs: inputs, Scheduler: &sched.RoundRobin{},
		})
		for i, out := range pr.Outs {
			if int64(out.Num) != x*int64(out.Den) {
				t.Fatalf("validity: input %d, process %d decided %v", x, i, out)
			}
		}
	}
}

func TestStageDirectUnderCrashes(t *testing.T) {
	// t = 2 crashes at assorted points: survivors still decide within ε.
	n, tt := 5, 2
	for seed := int64(0); seed < 10; seed++ {
		scheduler := sched.NewCrashAt(sched.NewRandom(seed), map[int]int{
			1: int(seed * 3), 3: int(seed * 7),
		})
		pr, err := RunPipeline(PipelineConfig{
			Stage: StageDirect, N: n, T: tt, Rounds: 4,
			Inputs: mixedInputs(n), Scheduler: scheduler,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := pr.Check(mixedInputs(n), 4); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, i := range []int{0, 2, 4} {
			if !pr.Decided[i] {
				t.Fatalf("seed %d: correct process %d undecided", seed, i)
			}
		}
	}
}

func TestStageABDComplete(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		pr := runStage(t, PipelineConfig{
			Stage: StageABDComplete, N: 4, T: 1, Rounds: 4,
			Inputs: mixedInputs(4), Seed: seed, Scheduler: sched.NewRandom(seed),
		})
		if !pr.Res.Deadlocked {
			t.Fatal("expected quiescence (servers parked)")
		}
		if pr.MsgsSent == 0 {
			t.Fatal("no messages sent")
		}
		for i, d := range pr.Decided {
			if !d {
				t.Fatalf("node %d undecided", i)
			}
		}
	}
}

func TestStageABDCompleteWriteBack(t *testing.T) {
	withWB := runStage(t, PipelineConfig{
		Stage: StageABDComplete, N: 4, T: 1, Rounds: 3,
		Inputs: mixedInputs(4), WriteBack: true, Scheduler: sched.NewRandom(1),
	})
	withoutWB := runStage(t, PipelineConfig{
		Stage: StageABDComplete, N: 4, T: 1, Rounds: 3,
		Inputs: mixedInputs(4), WriteBack: false, Scheduler: sched.NewRandom(1),
	})
	if withWB.MsgsSent <= withoutWB.MsgsSent {
		t.Errorf("write-back ablation: %d msgs with, %d without", withWB.MsgsSent, withoutWB.MsgsSent)
	}
}

func TestStageABDCompleteUnderCrashes(t *testing.T) {
	n, tt := 4, 1
	for seed := int64(0); seed < 6; seed++ {
		scheduler := sched.NewCrashAt(sched.NewRandom(seed), map[int]int{2: int(seed * 11)})
		pr, err := RunPipeline(PipelineConfig{
			Stage: StageABDComplete, N: n, T: tt, Rounds: 3,
			Inputs: mixedInputs(n), Seed: seed, Scheduler: scheduler,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := pr.Check(mixedInputs(n), 3); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, i := range []int{0, 1, 3} {
			if !pr.Decided[i] {
				t.Fatalf("seed %d: correct node %d undecided", seed, i)
			}
		}
	}
}

func TestStageABDRing(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		pr := runStage(t, PipelineConfig{
			Stage: StageABDRing, N: 5, T: 2, Rounds: 3,
			Inputs: mixedInputs(5), Seed: seed, Scheduler: sched.NewRandom(seed),
		})
		for i, d := range pr.Decided {
			if !d {
				t.Fatalf("node %d undecided", i)
			}
		}
	}
}

func TestStageABDRingUnderCrashes(t *testing.T) {
	// Up to t = 2 nodes crash; flooding over the (t+1)-connected ring
	// still delivers and quorums of size n-t still form.
	n, tt := 5, 2
	for seed := int64(0); seed < 6; seed++ {
		scheduler := sched.NewCrashAt(sched.NewRandom(seed), map[int]int{
			1: int(seed * 5), 4: int(seed*2) + 3,
		})
		pr, err := RunPipeline(PipelineConfig{
			Stage: StageABDRing, N: n, T: tt, Rounds: 3,
			Inputs: mixedInputs(n), Seed: seed, Scheduler: scheduler,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := pr.Check(mixedInputs(n), 3); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, i := range []int{0, 2, 3} {
			if !pr.Decided[i] {
				t.Fatalf("seed %d: correct node %d undecided", seed, i)
			}
		}
	}
}

func TestStageBitRing(t *testing.T) {
	// The full Theorem 1.3 endpoint: coordination over registers of
	// exactly 3(t+1) bits.
	pr := runStage(t, PipelineConfig{
		Stage: StageBitRing, N: 3, T: 1, Rounds: 2,
		Inputs: []int64{0, 1, 1}, Scheduler: sched.NewRandom(7),
	})
	if pr.RegisterBits != 6 {
		t.Fatalf("register bits = %d, want 3(t+1) = 6", pr.RegisterBits)
	}
	if pr.BitsDelivered == 0 {
		t.Fatal("no link bits delivered")
	}
	for i, d := range pr.Decided {
		if !d {
			t.Fatalf("node %d undecided", i)
		}
	}
}

func TestStageBitRingFourNodes(t *testing.T) {
	pr := runStage(t, PipelineConfig{
		Stage: StageBitRing, N: 4, T: 1, Rounds: 2,
		Inputs: mixedInputs(4), Scheduler: sched.NewRandom(3),
	})
	if pr.RegisterBits != 6 {
		t.Fatalf("register bits = %d, want 6", pr.RegisterBits)
	}
}

func TestStageBitRingUnderCrash(t *testing.T) {
	n, tt := 3, 1
	inputs := []int64{1, 0, 1}
	scheduler := sched.NewCrashAt(sched.NewRandom(2), map[int]int{1: 40})
	pr, err := RunPipeline(PipelineConfig{
		Stage: StageBitRing, N: n, T: tt, Rounds: 2,
		Inputs: inputs, Scheduler: scheduler,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pr.Check(inputs, 2); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2} {
		if !pr.Decided[i] {
			t.Fatalf("correct node %d undecided", i)
		}
	}
}

func TestAllStagesAgreeOnSemantics(t *testing.T) {
	// The same algorithm runs on all four stores; under lockstep
	// schedules every stage must produce valid ε-agreement outputs for
	// the same inputs.
	inputs := []int64{0, 1, 0}
	for _, stage := range []PipelineStage{StageDirect, StageABDComplete, StageABDRing, StageBitRing} {
		pr := runStage(t, PipelineConfig{
			Stage: stage, N: 3, T: 1, Rounds: 2,
			Inputs: inputs, Scheduler: &sched.RoundRobin{},
		})
		for i, d := range pr.Decided {
			if !d {
				t.Fatalf("stage %v: node %d undecided", stage, i)
			}
		}
	}
}

// TestRunPipelineFailsUndecided: a run that ends with a process error,
// or that the step budget cuts off, is a failed stage, never a vacuous
// ε-agreement over the processes that happened to decide. Stage A with
// a 10-step budget stops before anyone decides.
func TestRunPipelineFailsUndecided(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  PipelineConfig
	}{
		{"stage A budget", PipelineConfig{
			Stage: StageDirect, N: 5, T: 2, Rounds: 2,
			Inputs: mixedInputs(5), Scheduler: sched.NewRandom(11), MaxSteps: 10,
		}},
		{"stage A process error", PipelineConfig{
			Stage: StageDirect, N: 5, T: 2, Rounds: 2,
			Inputs: []int64{0, 1, 2, 1, 0}, Scheduler: sched.NewRandom(11),
		}},
		{"stage A' process error", PipelineConfig{
			Stage: StageABDComplete, N: 5, T: 2, Rounds: 2,
			Inputs: []int64{0, 1, 2, 1, 0}, Scheduler: sched.NewRandom(11),
		}},
	} {
		pr, err := RunPipeline(tc.cfg)
		if err == nil {
			t.Errorf("%s: RunPipeline returned no error (decided %v)", tc.name, pr.Decided)
		}
	}
}
