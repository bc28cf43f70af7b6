package experiments

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/sched"
	"repro/internal/task"
)

// E15 is Theorem 1.2 checked constructively: Algorithm 2 run on
// every crash-free interleaving of the universal construction on one
// solvable task, with every execution's outputs validated against the
// task specification (task.CheckRun). The schedule tree is explored
// through the canonical-state memo (task.ExploreAlg2Memo): each
// visited leaf is validated, and a pruned subtree is vouched for by
// the validated twin whose canonical state it shares. The tree shards
// like E2's — task.Alg2Roots carves it, task.ExploreAlg2MemoPrefixes
// explores a slice, and the execution count is the order-insensitive
// aggregate (a violation in any slice surfaces as that slice's error,
// so a merged success really did account every interleaving). The
// exhaustive task.ExploreAlg2* explorers are the tests' oracle.

// e15Choice and e15Input pin E15's instance: Algorithm 2 on the
// 2-value choice task with the mixed input (0, 1) — the input whose
// executions traverse every ε-agreement outcome class (full input
// seen, other input missing, and the 0 < d < 1 path walk).
// e15ShardDepth is the partition cut — depth 5 carves the
// ~28k-execution tree into ~2^5 ranges, the same grain as E2.
const (
	e15Choice     = 2
	e15ShardDepth = 5
)

var e15Input = task.Pair{0, 1}

// e15Plans memoizes E15's execution plan at each choice-task size its
// schema allows (c ∈ {2, 3}), built on first use, never at init. Plan
// construction (FindSolvableSubset + BuildPlan) is deterministic, and
// a plan is read-only once built — Algorithm 2 and its explorers only
// read DeltaFull, DeltaPartial and Paths — so every caller (Check,
// runner, roots, explore, finish), concurrent ones included, shares
// one plan per size.
var e15Plans = map[int]func() (*task.Plan, error){
	2: sync.OnceValues(func() (*task.Plan, error) { return buildE15Plan(2) }),
	3: sync.OnceValues(func() (*task.Plan, error) { return buildE15Plan(3) }),
}

// e15Plan returns E15's execution plan at one choice-task size: the
// shared memoized plan for a schema-allowed size, a fresh one
// otherwise.
func e15Plan(choice int) (*task.Plan, error) {
	if plan, ok := e15Plans[choice]; ok {
		return plan()
	}
	return buildE15Plan(choice)
}

// buildE15Plan constructs E15's execution plan at one choice-task size.
func buildE15Plan(choice int) (*task.Plan, error) {
	tk := task.ChoiceTask(choice)
	sub, ok := tk.FindSolvableSubset()
	if !ok {
		return nil, fmt.Errorf("experiments: task %s not solvable", tk.Name)
	}
	return tk.BuildPlan(sub)
}

// e15InputOf extracts E15's input pair from a point of its family.
func e15InputOf(ps ParamSet) task.Pair {
	return task.Pair{ps.Int("i0"), ps.Int("i1")}
}

// alg2SweepAgg is the order-insensitive aggregate of the Algorithm 2
// sweep: the number of interleavings accounted and validated. Counts
// from any grouping of a partition sum to the whole-space total.
type alg2SweepAgg struct {
	Execs int `json:"execs"`
}

// Merge implements Aggregate.
func (a *alg2SweepAgg) Merge(other Aggregate) error {
	b, ok := other.(*alg2SweepAgg)
	if !ok {
		return fmt.Errorf("experiments: cannot merge %T into %T", other, a)
	}
	a.Execs += b.Execs
	return nil
}

// finishE15 renders the E15 family's table at one (choice, input)
// point from a fully-merged aggregate — the one rendering path shared
// by the local runner, the sharded merge, and every parameterized
// point, which is what makes their bytes identical. At the default
// point (e15Choice, e15Input) the rendering is byte-for-byte the fixed
// E15 table's.
func finishE15(a *alg2SweepAgg, choice int, input task.Pair) (*Table, error) {
	plan, err := e15Plan(choice)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "E15",
		Title:   "Thm 1.2 exhaustive — Algorithm 2 on every interleaving, choice task",
		Headers: []string{"quantity", "value"},
	}
	t.Rows = append(t.Rows,
		[]string{"task", plan.Task.Name},
		[]string{"input", fmt.Sprintf("(%d, %d)", input[0], input[1])},
		[]string{"path length L", itoa(plan.L)},
		[]string{"ε-agreement k = L/2", itoa(plan.L / 2)},
		[]string{"interleavings validated", itoa(a.Execs)},
	)
	t.Notes = append(t.Notes,
		"every crash-free interleaving's outputs legal for the task (CheckRun); a violation anywhere fails the sweep")
	return t, nil
}

// runE15At evaluates the E15 family whole at one (choice, input)
// point — the Experiment.Run behind GET /experiments/E15 and
// /experiments/E15?c=... — through the serial canonical-state memo,
// returning the explorer's counters with the table. Serial, like
// every engine-driven runner: the engine owns the concurrency budget
// one level up.
func runE15At(choice int, input task.Pair) (*Table, sched.MemoStats, error) {
	plan, err := e15Plan(choice)
	if err != nil {
		return nil, sched.MemoStats{}, err
	}
	stats, err := task.ExploreAlg2Memo(plan, input)
	if err != nil {
		return nil, stats, err
	}
	tab, err := finishE15(&alg2SweepAgg{Execs: stats.Executions}, choice, input)
	return tab, stats, err
}

// Theorem12Exhaustive (E15) runs the whole sweep through the same
// aggregate-and-finish path a prefix-sharded run merges through.
func Theorem12Exhaustive() (*Table, error) {
	tab, _, err := runE15At(e15Choice, e15Input)
	return tab, err
}

// e15ShardableAt is the partial-run form at one (choice, input) point.
// Explore runs the serial memo over the slice's roots, like the whole
// runner: the server's slice slots and the coordinator's range fan-out
// own the cores.
func e15ShardableAt(choice int, input task.Pair) Shardable {
	return Shardable{
		Roots: func() ([][]int, error) {
			plan, err := e15Plan(choice)
			if err != nil {
				return nil, err
			}
			return task.Alg2Roots(plan, input, e15ShardDepth)
		},
		Explore: func(roots [][]int) (Aggregate, error) {
			plan, err := e15Plan(choice)
			if err != nil {
				return nil, err
			}
			stats, err := task.ExploreAlg2MemoPrefixes(plan, input, roots)
			if err != nil {
				return nil, err
			}
			return &alg2SweepAgg{Execs: stats.Executions}, nil
		},
		Decode: func(data []byte) (Aggregate, error) {
			var a alg2SweepAgg
			if err := json.Unmarshal(data, &a); err != nil {
				return nil, fmt.Errorf("experiments: decoding E15 aggregate: %w", err)
			}
			// A negative count would corrupt the merged total silently;
			// reject it like any other unusable response.
			if a.Execs < 0 {
				return nil, fmt.Errorf("experiments: E15 aggregate with negative count")
			}
			return &a, nil
		},
		Finish: func(agg Aggregate) (*Table, error) {
			a, ok := agg.(*alg2SweepAgg)
			if !ok {
				return nil, fmt.Errorf("experiments: E15 finish on %T", agg)
			}
			return finishE15(a, choice, input)
		},
	}
}
