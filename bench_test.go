package repro

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/iis"
	"repro/internal/impossibility"
	"repro/internal/labelling"
	"repro/internal/memory"
	"repro/internal/msgpass"
	"repro/internal/sched"
	"repro/internal/sched/schedtest"
	"repro/internal/task"
)

// Each benchmark regenerates one experiment of the DESIGN.md index
// (E1..E12); custom metrics report the series the paper's figures plot.

// BenchmarkFig1Classification (E1): the Figure 1 verdict grid.
func BenchmarkFig1Classification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for n := 2; n <= 9; n++ {
			for t := 1; t < n; t++ {
				if _, err := core.Classify(core.Model{N: n, T: t}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkAlg1Enumeration (E2): exhaustive interleavings of Algorithm 1
// at k = 3 (Figure 2's object, one size down to keep iterations cheap).
func BenchmarkAlg1Enumeration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs, err := agreement.ExploreAlg1(3, [2]uint64{0, 1}, func(ar *agreement.Alg1Run) {})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(runs), "executions")
	}
}

// BenchmarkAlg1Steps (E2/E10): Algorithm 1 step complexity grows
// linearly in 1/ε.
func BenchmarkAlg1Steps(b *testing.B) {
	for _, k := range []int{8, 32, 128, 512} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			steps := 0
			for i := 0; i < b.N; i++ {
				ar, err := agreement.RunAlg1(k, [2]uint64{0, 1}, &sched.RoundRobin{})
				if err != nil {
					b.Fatal(err)
				}
				steps = ar.Result.Steps[0]
			}
			b.ReportMetric(float64(steps), "steps/proc")
		})
	}
}

// BenchmarkAlg2Universal (E3): one run of the universal construction on
// 3-bit registers.
func BenchmarkAlg2Universal(b *testing.B) {
	tk := task.DiscreteEpsAgreement(4)
	plan, err := tk.BuildPlan(tk.Outputs)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, _, err := task.RunAlg2(plan, task.Pair{0, 1}, sched.NewRandom(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if err := task.CheckRun(tk, task.Pair{0, 1}, sys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPigeonholeBound (E4): the register-content collision search.
func BenchmarkPigeonholeBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := impossibility.WorstCollision(3)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(c.Gap()), "gap")
	}
}

// BenchmarkPipeline (E5): the four Theorem 1.3 stages, and E5's own
// four-node stage B — the sweep's long pole, whose B/op shows what a
// run's record costs.
func BenchmarkPipeline(b *testing.B) {
	stages := []struct {
		stage  msgpass.PipelineStage
		n, t   int
		rounds int
	}{
		{msgpass.StageDirect, 5, 2, 3},
		{msgpass.StageABDComplete, 5, 2, 2},
		{msgpass.StageABDRing, 5, 2, 2},
		{msgpass.StageBitRing, 3, 1, 1},
		{msgpass.StageBitRing, 4, 1, 2},
	}
	for _, s := range stages {
		b.Run(fmt.Sprintf("%v/n=%d", s.stage, s.n), func(b *testing.B) {
			b.ReportAllocs()
			inputs := make([]int64, s.n)
			for i := range inputs {
				inputs[i] = int64(i % 2)
			}
			var steps int
			for i := 0; i < b.N; i++ {
				pr, err := msgpass.RunPipeline(msgpass.PipelineConfig{
					Stage: s.stage, N: s.n, T: s.t, Rounds: s.rounds,
					Inputs: inputs, Seed: int64(i), Scheduler: sched.NewRandom(int64(i)),
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := pr.Check(inputs, s.rounds); err != nil {
					b.Fatal(err)
				}
				steps = pr.Res.TotalSteps
			}
			b.ReportMetric(float64(steps), "steps")
		})
	}
}

// BenchmarkIIS1Bit (E6): Algorithm 4 over a random IIS schedule.
func BenchmarkIIS1Bit(b *testing.B) {
	u := iis.NewUniverse(2, 2, iis.BinaryInputVectors(2), iis.CollectOutcomes(2))
	iters := iis.Alg4Iterations(u)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := iis.RunAlg4(u, []int{0, 1}, iis.RandomSchedule(2, iters, rng)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(iters), "iterations")
}

// BenchmarkISComplexGrowth (E7): enumerating the 3^r-execution complex.
func BenchmarkISComplexGrowth(b *testing.B) {
	for _, r := range []int{4, 6} {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			var configs int
			for i := 0; i < b.N; i++ {
				u := iis.NewUniverse(2, r, [][]int{{0, 1}}, iis.ISOutcomes(2))
				configs = len(u.Configs[r])
			}
			b.ReportMetric(float64(configs), "configs")
		})
	}
}

// BenchmarkLabelCounts (E8): Lemma 8.1's 3^r+1 label enumeration.
func BenchmarkLabelCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		labels, err := labelling.AllLabels(5)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(labels)), "labels")
	}
}

// BenchmarkAlg6Executions (E9): the simulated-complex value map (Ω(2^R)
// path vertices from constant-size registers).
func BenchmarkAlg6Executions(b *testing.B) {
	for _, r := range []int{6, 8, 10} {
		b.Run(fmt.Sprintf("R=%d", r), func(b *testing.B) {
			var l int
			for i := 0; i < b.N; i++ {
				vm, err := labelling.BuildValueMap(labelling.Alg6Config{Delta: 2, R: r})
				if err != nil {
					b.Fatal(err)
				}
				l = vm.Len
			}
			b.ReportMetric(float64(l), "path-vertices")
		})
	}
}

// BenchmarkAgreementStepComplexity (E10): the Θ(1/ε) vs O(log 1/ε)
// separation at matched precision.
func BenchmarkAgreementStepComplexity(b *testing.B) {
	for _, r := range []int{6, 8, 10} {
		fa, err := labelling.NewFastAgreement(r)
		if err != nil {
			b.Fatal(err)
		}
		k := (fa.EpsDen() - 1) / 2
		b.Run(fmt.Sprintf("fast/R=%d", r), func(b *testing.B) {
			var steps int
			for i := 0; i < b.N; i++ {
				fr, err := fa.Run([2]uint64{0, 1}, &sched.RoundRobin{})
				if err != nil {
					b.Fatal(err)
				}
				steps = fr.Result.Steps[0]
			}
			b.ReportMetric(float64(steps), "steps/proc")
		})
		b.Run(fmt.Sprintf("alg1/eps=1over%d", fa.EpsDen()), func(b *testing.B) {
			var steps int
			for i := 0; i < b.N; i++ {
				ar, err := agreement.RunAlg1(k, [2]uint64{0, 1}, &sched.RoundRobin{})
				if err != nil {
					b.Fatal(err)
				}
				steps = ar.Result.Steps[0]
			}
			b.ReportMetric(float64(steps), "steps/proc")
		})
	}
}

// BenchmarkRingRouting (E11): broadcast + quorum over the t-augmented
// ring (one ABD write).
func BenchmarkRingRouting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pr, err := msgpass.RunPipeline(msgpass.PipelineConfig{
			Stage: msgpass.StageABDRing, N: 7, T: 3, Rounds: 1,
			Inputs: []int64{0, 1, 0, 1, 0, 1, 0}, Seed: int64(i),
			Scheduler: sched.NewRandom(int64(i)),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(pr.MsgsSent), "msgs")
	}
}

// BenchmarkMidpointConvergence (E12): one-round complexes and contraction.
func BenchmarkMidpointConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		u := iis.NewUniverse(3, 2, iis.BinaryInputVectors(3), iis.CollectOutcomes(3))
		num, den := u.MaxRoundSpread(2)
		if num*4 > den {
			b.Fatal("contraction violated")
		}
	}
}

// BenchmarkAlg2FastSpeedup (E13): classic vs accelerated universal
// construction at growing path lengths.
func BenchmarkAlg2FastSpeedup(b *testing.B) {
	for _, l := range []int{16, 40, 80} {
		tk := task.DiscreteEpsAgreement(l)
		plan, err := tk.BuildPlan(tk.Outputs)
		if err != nil {
			b.Fatal(err)
		}
		fa, err := task.FastAgreementFor(plan)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("classic/L=%d", plan.L), func(b *testing.B) {
			var steps int
			for i := 0; i < b.N; i++ {
				_, res, err := task.RunAlg2(plan, task.Pair{0, 1}, &sched.RoundRobin{})
				if err != nil {
					b.Fatal(err)
				}
				steps = res.Steps[0]
			}
			b.ReportMetric(float64(steps), "steps/proc")
		})
		b.Run(fmt.Sprintf("fast/L=%d", plan.L), func(b *testing.B) {
			var steps int
			for i := 0; i < b.N; i++ {
				sys := task.NewAlg2FastSystem(plan, fa)
				res, err := sched.Run(sched.Config{Scheduler: &sched.RoundRobin{}}, []sched.ProcFunc{
					sys.Proc(0, 0), sys.Proc(1, 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				steps = res.Steps[0]
			}
			b.ReportMetric(float64(steps), "steps/proc")
		})
	}
}

// BenchmarkMidpointSharedMemory (E14): n-process ε-agreement over
// IS-from-read/write objects.
func BenchmarkMidpointSharedMemory(b *testing.B) {
	inputs := []uint64{0, 1, 1, 0}
	for i := 0; i < b.N; i++ {
		mr, err := agreement.RunMidpoint(4, 3, inputs, sched.NewRandom(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if err := mr.Check(3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAlg6DeltaAblation: the Δ trade-off — longer simulated paths
// for wider registers.
func BenchmarkAlg6DeltaAblation(b *testing.B) {
	for _, delta := range []int{2, 3} {
		cfg := labelling.Alg6Config{Delta: delta, R: 7}
		b.Run(fmt.Sprintf("delta=%d/bits=%d", delta, cfg.RegisterBits()), func(b *testing.B) {
			var l int
			for i := 0; i < b.N; i++ {
				vm, err := labelling.BuildValueMap(cfg)
				if err != nil {
					b.Fatal(err)
				}
				l = vm.Len
			}
			b.ReportMetric(float64(l), "path-vertices")
		})
	}
}

// BenchmarkExperimentTables regenerates the cheap experiment tables
// end to end (the expensive ones have dedicated benchmarks above).
func BenchmarkExperimentTables(b *testing.B) {
	reg := experiments.Registry()
	for _, id := range []string{"E1", "E7", "E8", "E11", "E12"} {
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := reg[id].Run(experiments.ParamSet{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweep runs the whole E1–E15 registry through the
// experiment engine: jobs=1 is the serial baseline, jobs=NumCPU the
// concurrent run, and both emit byte-identical tables
// (TestEngineConcurrentMatchesSerial). How far apart the arms land
// depends on the host's cores; no speedup is claimed here, and the
// sweep is measured by the benchmark of record (sh bench/run.sh
// -workload sweep). Compare the arms with
//
//	go test -run='^$' -bench=BenchmarkSweep -benchtime=3x .
func BenchmarkSweep(b *testing.B) {
	jobCounts := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		jobCounts = append(jobCounts, n)
	}
	for _, jobs := range jobCounts {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				results, err := experiments.Run(context.Background(), experiments.Options{Jobs: jobs})
				if err != nil {
					b.Fatal(err)
				}
				if err := experiments.FirstError(results); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExploreParallel measures the exhaustive walk of the
// Algorithm 1 interleaving space (the oracle the memoized explorer's
// tests hold it to) spread over concurrent callers: the space's
// Alg1Roots carve is split into one range per caller, and each caller
// runs its own serial ExploreAlg1Prefixes, as the engine, the server
// and a shard fleet run explorations side by side.
func BenchmarkExploreParallel(b *testing.B) {
	const k = 4
	inputs := [2]uint64{0, 1}
	roots, err := agreement.Alg1Roots(k, inputs, 4)
	if err != nil {
		b.Fatal(err)
	}
	callerCounts := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		callerCounts = append(callerCounts, n)
	}
	for _, callers := range callerCounts {
		b.Run(fmt.Sprintf("callers=%d", callers), func(b *testing.B) {
			ranges := schedtest.Ranges(roots, callers)
			runs := make([]int, len(ranges))
			errs := make([]error, len(ranges))
			var total int
			for i := 0; i < b.N; i++ {
				schedtest.Concurrently(len(ranges), func(r int) {
					runs[r], errs[r] = agreement.ExploreAlg1Prefixes(k, inputs, ranges[r], func(*agreement.Alg1Run) {})
				})
				total = 0
				for r := range ranges {
					if errs[r] != nil {
						b.Fatal(errs[r])
					}
					total += runs[r]
				}
			}
			b.ReportMetric(float64(total), "executions")
		})
	}
}

// BenchmarkExploreMemoized measures the canonical-state memoized
// exploration behind E2 and E15: alg1 is the Algorithm 1 space
// BenchmarkExploreParallel sweeps exhaustively, and alg2 is E15's
// Algorithm 2 sweep (the choice task on input (0, 1)), whose processes
// run Algorithm 1 inside nested calls, so every replay runs on deep
// stacks. The executions metric matches the exhaustive run count while
// replays stays a fraction of it — the counters BENCH_explore.json pins.
// It reports allocations: an exploration builds its system once, so
// they count the explorer's own bookkeeping, not a build per replay.
func BenchmarkExploreMemoized(b *testing.B) {
	tk := task.ChoiceTask(2)
	sub, ok := tk.FindSolvableSubset()
	if !ok {
		b.Fatal("choice task not solvable")
	}
	plan, err := tk.BuildPlan(sub)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name    string
		explore func() (sched.MemoStats, error)
	}{
		{"alg1", func() (sched.MemoStats, error) {
			_, stats, err := agreement.ExploreAlg1Memo(4, [2]uint64{0, 1}, nil, nil)
			return stats, err
		}},
		{"alg2", func() (sched.MemoStats, error) {
			return task.ExploreAlg2Memo(plan, task.Pair{0, 1})
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var stats sched.MemoStats
			for i := 0; i < b.N; i++ {
				s, err := bc.explore()
				if err != nil {
					b.Fatal(err)
				}
				stats = s
			}
			b.ReportMetric(float64(stats.Executions), "executions")
			b.ReportMetric(float64(stats.Replays), "replays")
			b.ReportMetric(float64(stats.StatesVisited), "states_visited")
			b.ReportMetric(float64(stats.StatesPruned), "states_pruned")
		})
	}
}

// BenchmarkCarve measures the carve a shard coordinator pays on the
// first request for each point of a prefix-shardable experiment: the
// point's Shardable.Roots, sched.PartitionRoots at the experiment's
// cut depth, one replay of a freshly built system per interior node
// above the cut. Later requests for the point reuse the coordinator's
// memoized roots, so this is a once-per-point price, not a per-request
// one.
func BenchmarkCarve(b *testing.B) {
	reg := experiments.Registry()
	for _, bc := range []struct{ name, id, params string }{
		{"E2", "E2", ""},
		{"E15", "E15", ""},
		{"E2?k=3", "E2", "k=3"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			ps, err := experiments.ParseParamList(reg[bc.id], bc.params)
			if err != nil {
				b.Fatal(err)
			}
			sh, ok := reg[bc.id].ShardableAt(ps)
			if !ok {
				b.Fatalf("%s does not shard", bc.name)
			}
			b.ReportAllocs()
			var roots [][]int
			for i := 0; i < b.N; i++ {
				if roots, err = sh.Roots(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(roots)), "roots")
		})
	}
}

// BenchmarkSchedHandshake measures the raw cost of one scheduler-gated
// step (the simulator's unit of work), 1000 steps per op. With one
// process the stepping goroutine keeps the step every time (no
// handoff); with two under RoundRobin every step hands it to the other
// process.
func BenchmarkSchedHandshake(b *testing.B) {
	stepper := func(p *sched.Proc) error {
		for i := 0; i < 1000/p.N; i++ {
			p.Step()
		}
		return nil
	}
	for _, bc := range []struct {
		name  string
		procs []sched.ProcFunc
		sch   func() sched.Scheduler
	}{
		{"solo", []sched.ProcFunc{stepper}, func() sched.Scheduler { return sched.Lowest{} }},
		{"handoff", []sched.ProcFunc{stepper, stepper}, func() sched.Scheduler { return &sched.RoundRobin{} }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sched.Run(sched.Config{Scheduler: bc.sch()}, bc.procs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(1000, "steps/op")
		})
	}
}

// BenchmarkMemorySnapshot measures the atomic snapshot primitive.
func BenchmarkMemorySnapshot(b *testing.B) {
	m := memory.New(8, 0)
	procs := []sched.ProcFunc{func(p *sched.Proc) error {
		pm := memory.Bind(p, m)
		for i := 0; i < 100; i++ {
			_ = pm.Snapshot()
		}
		return nil
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Run(sched.Config{Scheduler: sched.Lowest{}}, procs); err != nil {
			b.Fatal(err)
		}
	}
}
