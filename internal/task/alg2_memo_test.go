package task

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/sched"
	"repro/internal/sched/schedtest"
)

// alg2FP fingerprints one completed Algorithm 2 execution in
// relabelling-invariant terms: per-process (task input, output,
// decided, final register contents across both memories) tuples,
// sorted — the multiset the memoized explorer is allowed to preserve.
func alg2FP(sys *Alg2System, input Pair) string {
	pair := make([]string, 2)
	for i := 0; i < 2; i++ {
		pair[i] = fmt.Sprintf("in%d out%d dec%v task%v agree%v itask%v iagree%v",
			input[i], sys.Outs[i], sys.Decided[i],
			sys.memTask.Peek(i), sys.memAgree.Peek(i),
			sys.memTask.InputWritten(i), sys.memAgree.InputWritten(i))
	}
	sort.Strings(pair)
	return fmt.Sprint(pair)
}

// TestAlg2MemoMatchesExhaustive pins the memoized Algorithm 2
// exploration to the exhaustive one across tasks and inputs: identical
// fingerprint multisets (via a sched-level differential on the same
// system factory), real pruning, and identical counters from the
// public ExploreAlg2Memo.
func TestAlg2MemoMatchesExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive exploration")
	}
	for _, tk := range []*Task{ChoiceTask(2), CycleAgreement(6)} {
		plan := planFor(t, tk)
		for _, input := range plan.Task.Inputs {
			name := fmt.Sprintf("%s_in%d%d", tk.Name, input[0], input[1])
			t.Run(name, func(t *testing.T) {
				// Exhaustive fingerprint multiset.
				want := schedtest.Counts{}
				var cur *Alg2System
				factory := func() []sched.ProcFunc {
					cur = NewAlg2System(plan)
					return []sched.ProcFunc{cur.Proc(0, input[0]), cur.Proc(1, input[1])}
				}
				runs, err := sched.ExploreAll(factory, 0, func(r *sched.Result) {
					want.Add(alg2FP(cur, input))
				})
				if err != nil {
					t.Fatal(err)
				}

				// Memoized multiset over the identical system.
				memoFactory := func() sched.MemoInstance {
					sys := NewAlg2System(plan)
					return sched.MemoInstance{
						Procs: []sched.ProcFunc{sys.Proc(0, input[0]), sys.Proc(1, input[1])},
						State: sys.StateKey,
						Leaf: func(*sched.Result) any {
							return schedtest.Counts{alg2FP(sys, input): 1}
						},
					}
				}
				agg, stats, err := sched.ExploreMemo(memoFactory, sched.MemoOptions{Merge: schedtest.Merge})
				if err != nil {
					t.Fatal(err)
				}
				if d := schedtest.Diff(schedtest.AsCounts(agg), want); d != "" {
					t.Fatalf("fingerprint multisets diverge:\n%s", d)
				}
				if stats.Executions != runs {
					t.Fatalf("memo accounts for %d executions, exhaustive ran %d", stats.Executions, runs)
				}
				if stats.Replays >= runs {
					t.Errorf("memoization saved nothing: %d replays for %d executions", stats.Replays, runs)
				}
				if stats.StatesPruned == 0 {
					t.Errorf("no subtree pruned on a %d-execution space", runs)
				}

				// The public validating sweep, which resets one system
				// for every replay, does exactly the same work.
				mstats, err := ExploreAlg2Memo(plan, input)
				if err != nil {
					t.Fatalf("ExploreAlg2Memo: %v", err)
				}
				if mstats != stats {
					t.Fatalf("ExploreAlg2Memo counters %+v, a fresh system per replay %+v", mstats, stats)
				}
			})
		}
	}
}

// TestAlg2MemoPrefixUnion pins the sharded memoized validation sweep:
// per-slice execution counts over any Alg2Roots partition sum to the
// ExploreAlg2 total, with every visited leaf validated.
func TestAlg2MemoPrefixUnion(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive exploration")
	}
	task := ChoiceTask(2)
	plan := planFor(t, task)
	input := task.Inputs[0]
	whole, err := ExploreAlg2(plan, input)
	if err != nil {
		t.Fatal(err)
	}
	for _, depth := range []int{0, 4} {
		roots, err := Alg2Roots(plan, input, depth)
		if err != nil {
			t.Fatal(err)
		}
		if depth > 0 && len(roots) < 2 {
			t.Fatalf("depth %d partition has %d roots", depth, len(roots))
		}
		stats, err := ExploreAlg2MemoPrefixes(plan, input, roots)
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if stats.Executions != whole {
			t.Fatalf("depth %d one-call union: %d executions, want %d", depth, stats.Executions, whole)
		}
		total := 0
		for _, root := range roots {
			s, err := ExploreAlg2MemoPrefixes(plan, input, [][]int{root})
			if err != nil {
				t.Fatalf("depth %d root %v: %v", depth, root, err)
			}
			total += s.Executions
		}
		if total != whole {
			t.Fatalf("depth %d: per-root executions sum to %d, want %d", depth, total, whole)
		}
	}
}

// TestAlg2MemoSurfacesViolation ensures a validation failure in a
// visited leaf is not silently pruned away: a plan doctored to emit an
// illegal output must fail the memoized sweep.
func TestAlg2MemoSurfacesViolation(t *testing.T) {
	task := ChoiceTask(2)
	plan := planFor(t, task)
	input := task.Inputs[0]

	// Doctor a copy of the task spec so every full output is illegal,
	// while the plan still runs the original protocol paths.
	bad := *task
	bad.Delta = map[Pair][]Pair{}
	doctored := *plan
	doctored.Task = &bad

	if _, err := ExploreAlg2Memo(&doctored, input); err == nil {
		t.Fatal("memoized sweep accepted a plan whose outputs are all illegal")
	}
}

// TestAlg2MemoAllocsPerReplay pins the per-replay cost of E15's memo:
// an exploration builds its Algorithm 2 system once and resets it in
// place for every later replay, and StateKey keys every decision
// point with the system's one canonicalizer, so the whole exploration
// of the choice task allocates fewer than 6 times per replay.
// Rebuilding the system on every replay costs about 29. The bound is
// a ratio of two counts, so it holds across Go releases.
func TestAlg2MemoAllocsPerReplay(t *testing.T) {
	plan := planFor(t, ChoiceTask(2))
	var replays int
	allocs := testing.AllocsPerRun(3, func() {
		stats, err := ExploreAlg2Memo(plan, Pair{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		replays = stats.Replays
	})
	if perReplay := allocs / float64(replays); perReplay >= 6 {
		t.Errorf("%v allocations over %d replays (%.1f per replay), want under 6", allocs, replays, perReplay)
	}
}
