package experiments

import (
	"fmt"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/iis"
	"repro/internal/impossibility"
	"repro/internal/labelling"
	"repro/internal/msgpass"
	"repro/internal/sched"
	"repro/internal/task"
)

// Figure1Summary (E1) regenerates Figure 1: the universality
// classification over (n, t).
func Figure1Summary() (*Table, error) {
	t := &Table{
		ID:      "E1",
		Title:   "Figure 1 — universality of bounded registers over (n, t)",
		Headers: []string{"n", "t", "regime", "universal", "sufficient bits", "theorem"},
	}
	for n := 2; n <= 9; n++ {
		for tt := 1; tt < n; tt++ {
			v, err := core.Classify(core.Model{N: n, T: tt})
			if err != nil {
				return nil, err
			}
			uni := "no"
			if v.Open {
				uni = "open"
			} else if v.Universal {
				uni = "yes"
			}
			bits := "-"
			if v.SufficientBits > 0 {
				bits = itoa(v.SufficientBits)
			}
			t.Rows = append(t.Rows, []string{
				itoa(n), itoa(tt), v.Regime.String(), uni, bits, v.Theorem,
			})
		}
	}
	t.Notes = append(t.Notes,
		"not universal for t>n/2 even with width f(n) (Thm 1.1); O(t) bits for t<n/2 (Thm 1.3); 1 bit for n=2 (Thm 1.2)")
	return t, nil
}

// Figure2Executions (E2) enumerates Algorithm 1 with k = 4 and inputs
// (0,1): the execution count, the decision range coverage, and the
// worst co-final distance — Figure 2's structure. The table derives
// from the same aggregate-and-finish path (shardable.go) a
// prefix-sharded run merges through, so both emit identical bytes.
// The exploration is the serial canonical-state memo: the engine
// already runs experiments concurrently, so the concurrency budget is
// spent one level up, which keeps -jobs 1 a true serial baseline and
// -jobs N free of nested worker pools.
func Figure2Executions() (*Table, error) {
	tab, _, err := runE2At(e2K, e2Inputs)
	return tab, err
}

// Figure2ExecutionsReduced is E2 together with the counters of its
// memoized exploration. The int argument is unused; it stays for the
// layer benchmarks (bench/ladder), which pass 1.
func Figure2ExecutionsReduced(int) (*Table, sched.MemoStats, error) {
	return runE2At(e2K, e2Inputs)
}

// Theorem12Universal (E3) runs Algorithm 2 (3-bit registers) on solvable
// tasks and shows the BMZ check rejecting consensus.
func Theorem12Universal() (*Table, error) {
	t := &Table{
		ID:      "E3",
		Title:   "Theorem 1.2 — universal construction with 3-bit registers",
		Headers: []string{"task", "solvable (BMZ)", "path length L", "runs checked", "verdict"},
	}
	for _, tk := range []*task.Task{
		task.DiscreteEpsAgreement(4),
		task.CycleAgreement(6),
		task.ChoiceTask(2),
		task.BinaryConsensus(),
	} {
		sub, ok := tk.FindSolvableSubset()
		if !ok {
			t.Rows = append(t.Rows, []string{tk.Name, "no", "-", "-", "correctly rejected"})
			continue
		}
		plan, err := tk.BuildPlan(sub)
		if err != nil {
			return nil, err
		}
		runs := 0
		for _, input := range tk.Inputs {
			for seed := int64(0); seed < 10; seed++ {
				sys, _, err := task.RunAlg2(plan, input, sched.NewRandom(seed))
				if err != nil {
					return nil, err
				}
				if err := task.CheckRun(tk, input, sys); err != nil {
					return nil, fmt.Errorf("%s: %w", tk.Name, err)
				}
				runs++
			}
		}
		t.Rows = append(t.Rows, []string{tk.Name, "yes", itoa(plan.L), itoa(runs), "all outputs legal"})
	}
	t.Notes = append(t.Notes, "3 register bits per process: 1-bit coordination + 2-bit {⊥,0,1} ε-input (§5.2.3)")
	return t, nil
}

// Theorem11Pigeonhole (E4) produces the Prop 4.1 counting table and the
// empirical register-content collisions of Algorithm 1, whose
// interleavings the impossibility package explores through the
// canonical-state memo.
func Theorem11Pigeonhole() (*Table, error) {
	t := &Table{
		ID:      "E4",
		Title:   "Theorem 1.1 / Prop 4.1 — pigeonhole on register contents",
		Headers: []string{"series", "s(bits)", "memory states", "k threshold", "empirical worst gap"},
	}
	rows, err := impossibility.CountingTable(3, 2, 6)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			"counting(n=3,t=2)", itoa(r.Bits),
			fmt.Sprintf("%d", r.States), fmt.Sprintf("%d", r.KThreshold), "-",
		})
	}
	for _, k := range []int{2, 3, 4} {
		c, err := impossibility.WorstCollision(k)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("alg1 k=%d (ε=1/%d)", k, 2*k+1), "1", "4", "-",
			fmt.Sprintf("%d units of ε (mem %v)", c.Gap(), c.Mem),
		})
	}
	g, err := impossibility.BuildAlg1Graph(3)
	if err != nil {
		return nil, err
	}
	path := g.Path()
	t.Rows = append(t.Rows, []string{"execution graph k=3", "1", "-", "-",
		fmt.Sprintf("solo-to-solo path of %d edges (≥ 1/ε = %d)", len(path)-1, g.Den)})
	t.Notes = append(t.Notes,
		"gap ≥ 2 forces a late third process ≥ 2ε from some decided output: ε-agreement unsolvable",
		"counting rows: with s-bit registers, ε < 1/(2·2^{s(n-t+1)}+1) is unattainable for t>n/2")
	return t, nil
}

// Theorem13Pipeline (E5) runs all four stages of the §6 compilation.
func Theorem13Pipeline() (*Table, error) {
	t := &Table{
		ID:      "E5",
		Title:   "Theorem 1.3 — pipeline A → A′ → A″ → B (binary ε-agreement, ε=1/4)",
		Headers: []string{"stage", "n", "t", "register bits", "msgs", "link bits", "total steps", "verdict"},
	}
	run := func(stage msgpass.PipelineStage, n, tt int) error {
		inputs := make([]int64, n)
		for i := range inputs {
			inputs[i] = int64(i % 2)
		}
		pr, err := msgpass.RunPipeline(msgpass.PipelineConfig{
			Stage: stage, N: n, T: tt, Rounds: 2,
			Inputs: inputs, Scheduler: sched.NewRandom(11), Seed: 3,
		})
		if err != nil {
			return err
		}
		if err := pr.Check(inputs, 2); err != nil {
			return fmt.Errorf("stage %v: %w", stage, err)
		}
		// The scheduler crashes no one, so every process must decide:
		// Check alone passes over the undecided.
		for i, d := range pr.Decided {
			if !d {
				return fmt.Errorf("stage %v: process %d did not decide", stage, i)
			}
		}
		bits := "unbounded"
		if pr.RegisterBits > 0 {
			bits = itoa(pr.RegisterBits)
		}
		t.Rows = append(t.Rows, []string{
			stage.String(), itoa(n), itoa(tt), bits,
			itoa(pr.MsgsSent), itoa(pr.BitsDelivered), itoa(pr.Res.TotalSteps), "ε-agreement holds",
		})
		return nil
	}
	if err := run(msgpass.StageDirect, 5, 2); err != nil {
		return nil, err
	}
	if err := run(msgpass.StageABDComplete, 5, 2); err != nil {
		return nil, err
	}
	if err := run(msgpass.StageABDRing, 5, 2); err != nil {
		return nil, err
	}
	if err := run(msgpass.StageBitRing, 3, 1); err != nil {
		return nil, err
	}
	if err := run(msgpass.StageBitRing, 4, 1); err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"width series", "-", "t", "3(t+1)", "-", "-", "-", "O(t) bits (Thm 1.3)"})
	t.Notes = append(t.Notes, "same algorithm on all stores; stage B coordinates only through 3(t+1)-bit registers")
	return t, nil
}

// Theorem14IIS1Bit (E6) runs Algorithm 4 — the IC full-information
// protocol simulated in IIS with 1-bit registers.
func Theorem14IIS1Bit() (*Table, error) {
	t := &Table{
		ID:      "E6",
		Title:   "Theorem 1.4 — IC protocols in IIS with 1-bit registers (Algorithm 4)",
		Headers: []string{"n", "rounds k", "iterations N", "schedules", "worst spread", "claim"},
	}
	type cfg struct {
		n, k, trials int
	}
	for _, c := range []cfg{{2, 1, 81}, {2, 2, 200}, {3, 1, 150}} {
		u := iis.NewUniverse(c.n, c.k, iis.BinaryInputVectors(c.n), iis.CollectOutcomes(c.n))
		n := iis.Alg4Iterations(u)
		worstNum, worstDen := 0, 1
		trials := 0
		check := func(s iis.Schedule, inputs []int) error {
			res, err := iis.RunAlg4(u, inputs, s)
			if err != nil {
				return err
			}
			num, den := u.EstimateSpread(res.Final)
			if num*worstDen > worstNum*den {
				worstNum, worstDen = num, den
			}
			trials++
			return nil
		}
		if c.n == 2 && c.k == 1 {
			var err error
			iis.ForEachSchedule(c.n, n, func(s iis.Schedule) bool {
				err = check(s, []int{0, 1})
				return err == nil
			})
			if err != nil {
				return nil, err
			}
		} else {
			rng := newRng(7)
			for i := 0; i < c.trials; i++ {
				inputs := make([]int, c.n)
				for j := range inputs {
					inputs[j] = rng.Intn(2)
				}
				if err := check(iis.RandomSchedule(c.n, n, rng), inputs); err != nil {
					return nil, err
				}
			}
		}
		t.Rows = append(t.Rows, []string{
			itoa(c.n), itoa(c.k), itoa(n), itoa(trials), rat(worstNum, worstDen),
			fmt.Sprintf("≤ 1/2^%d; all configs IC-reachable (Lemma 7.1)", c.k),
		})
	}
	return t, nil
}

// Figure4ISComplex (E7) regenerates Figure 4: the 2-process IS protocol
// complex triples each round.
func Figure4ISComplex() (*Table, error) {
	t := &Table{
		ID:      "E7",
		Title:   "Figure 4 — 2-process IS complex growth (single mixed input)",
		Headers: []string{"round r", "executions 3^r", "configurations", "path vertices 3^r+1"},
	}
	u := iis.NewUniverse(2, 6, [][]int{{0, 1}}, iis.ISOutcomes(2))
	for r := 0; r <= 6; r++ {
		t.Rows = append(t.Rows, []string{
			itoa(r), itoa(pow(3, r)), itoa(len(u.Configs[r])), itoa(pow(3, r) + 1),
		})
	}
	t.Notes = append(t.Notes, "configurations == executions: each IS schedule yields a distinct configuration")
	return t, nil
}

// Figure5Labels (E8) regenerates Figure 5 / Lemma 8.1: the 1-bit
// labelling protocol has 3^r+1 labels after r rounds.
func Figure5Labels() (*Table, error) {
	t := &Table{
		ID:      "E8",
		Title:   "Figure 5 / Lemma 8.1 — labels of the 1-bit labelling protocol",
		Headers: []string{"round r", "labels", "3^r+1", "bits/round", "adjacent f-distance"},
	}
	for r := 1; r <= 6; r++ {
		labels, err := labelling.AllLabels(r)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			itoa(r), itoa(len(labels)), itoa(labelling.Pow3(r) + 1), "1", rat(1, labelling.Pow3(r)),
		})
	}
	t.Notes = append(t.Notes, "f(λ_s0)=0, f(λ_s1)=1, co-final labels 1/3^r apart (§8.1)")
	return t, nil
}

// Figure6SimulatedIS (E9) regenerates Figure 6 / Lemma 8.7: Algorithm 6
// with Δ = 2 simulates at least 2^R distinct IS executions of length R.
func Figure6SimulatedIS() (*Table, error) {
	t := &Table{
		ID:      "E9",
		Title:   "Figure 6 / Lemma 8.7 — IS executions simulated by Algorithm 6 (Δ=2)",
		Headers: []string{"R", "path vertices", "distinct executions", "2^R", "3^R+1 (full)", "register bits"},
	}
	for r := 3; r <= 9; r++ {
		cfg := labelling.Alg6Config{Delta: 2, R: r}
		vm, err := labelling.BuildValueMap(cfg)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			itoa(r), itoa(vm.Len), itoa(vm.PairCount), itoa(1 << r),
			itoa(labelling.Pow3(r) + 1), itoa(cfg.RegisterBits()),
		})
	}
	t.Notes = append(t.Notes, "Ω(2^R) simulated executions with constant-size registers (Prop 8.1)")
	return t, nil
}

// Theorem81Crossover (E10) measures the step-complexity separation
// between Algorithm 1 (Θ(1/ε)) and the fast protocol (O(log 1/ε)).
func Theorem81Crossover() (*Table, error) {
	t := &Table{
		ID:      "E10",
		Title:   "Theorem 8.1 — step complexity: Algorithm 1 vs fast 6-bit protocol",
		Headers: []string{"R", "ε denominator", "fast steps (6-bit)", "alg1 steps (1-bit)", "ratio"},
	}
	for _, r := range []int{4, 6, 8, 10} {
		fa, err := labelling.NewFastAgreement(r)
		if err != nil {
			return nil, err
		}
		fr, err := fa.Run([2]uint64{0, 1}, &sched.RoundRobin{})
		if err != nil {
			return nil, err
		}
		if e := fr.Result.Err(); e != nil {
			return nil, e
		}
		fastSteps := fr.Result.Steps[0]
		k := (fa.EpsDen() - 1) / 2
		ar, err := agreement.RunAlg1(k, [2]uint64{0, 1}, &sched.RoundRobin{})
		if err != nil {
			return nil, err
		}
		alg1Steps := ar.Result.Steps[0]
		t.Rows = append(t.Rows, []string{
			itoa(r), itoa(fa.EpsDen()), itoa(fastSteps), itoa(alg1Steps),
			fmt.Sprintf("%.1fx", float64(alg1Steps)/float64(fastSteps)),
		})
	}
	t.Notes = append(t.Notes, "exponential separation: the ratio doubles as ε halves (§8 remark)")
	return t, nil
}

// Figure3Ring (E11) regenerates Figure 3: the t-augmented ring and its
// connectivity.
func Figure3Ring() (*Table, error) {
	t := &Table{
		ID:      "E11",
		Title:   "Figure 3 — t-augmented ring connectivity",
		Headers: []string{"n", "t", "out-degree", "(t+1)-connected", "(t+2)-connected"},
	}
	for _, c := range [][2]int{{5, 1}, {6, 1}, {5, 2}, {7, 2}, {7, 3}, {9, 4}} {
		ring, err := msgpass.NewTAugmentedRing(c[0], c[1])
		if err != nil {
			return nil, err
		}
		k1 := msgpass.IsKConnected(ring, c[1]+1)
		k2 := msgpass.IsKConnected(ring, c[1]+2)
		t.Rows = append(t.Rows, []string{
			itoa(c[0]), itoa(c[1]), itoa(len(ring.Succ(0))),
			fmt.Sprintf("%v", k1), fmt.Sprintf("%v", k2),
		})
	}
	t.Notes = append(t.Notes, "exactly (t+1)-connected when n > 2(t+1): removing a node's t+1 successors cuts it off")
	return t, nil
}

// Lemma22Convergence (E12) measures the midpoint protocol's range
// contraction per round in the IS and IC one-round complexes.
func Lemma22Convergence() (*Table, error) {
	t := &Table{
		ID:      "E12",
		Title:   "Lemma 2.2 — midpoint ε-agreement contraction per iterated round",
		Headers: []string{"model", "n", "round", "max spread", "bound 1/2^r"},
	}
	add := func(name string, n, k int, outcomes []iis.CollectOutcome) {
		u := iis.NewUniverse(n, k, iis.BinaryInputVectors(n), outcomes)
		for r := 0; r <= k; r++ {
			num, den := u.MaxRoundSpread(r)
			t.Rows = append(t.Rows, []string{
				name, itoa(n), itoa(r), rat(num, den), rat(1, pow(2, r)),
			})
		}
	}
	add("IIS", 2, 5, iis.ISOutcomes(2))
	add("IIS", 3, 2, iis.ISOutcomes(3))
	add("IC", 3, 2, iis.CollectOutcomes(3))
	t.Notes = append(t.Notes,
		"spread halves per round in both models (every process sees the first writer), so any ε>0 is reachable wait-free")
	return t, nil
}

func pow(b, e int) int {
	out := 1
	for i := 0; i < e; i++ {
		out *= b
	}
	return out
}
