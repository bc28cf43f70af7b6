package experiments

import (
	"repro/internal/agreement"
	"repro/internal/sched"
)

// This file is where the memoized experiments report their explorer's
// counters. E2, E15, and the heavy E16 explore their schedule trees
// through the canonical-state memo (sched.ExploreMemo and its parallel
// form), which replays once per distinct (canonical state, depth) node
// instead of once per interleaving and still accounts every execution.
// That is sound because bounded registers leave finitely many memory
// states: equal state at equal depth means an isomorphic remaining
// subtree. The engine records each run's counters on Result.Memo; the
// *Reduced(workers) forms run E2 and E16 at a chosen fan-out, for the
// layer benchmarks and the tests that pin the parallel memo to the
// serial one. The exhaustive explorers (agreement.ExploreAlg1*,
// task.ExploreAlg2*) are the tests' oracle and serve no production
// path.

// memoRunner is a Runner that also returns its memoized exploration's
// counters.
type memoRunner func() (*Table, sched.MemoStats, error)

// memoRunners maps the real registry's experiments that explore
// through the memo to runners reporting its counters. The engine
// consults it only for the real registry (Options.Registry nil), the
// same opt-in rule as ShardablesFor: a registry override's ids are not
// the real experiments.
var memoRunners = map[string]memoRunner{
	"E2":  func() (*Table, sched.MemoStats, error) { return runE2At(e2K, e2Inputs) },
	"E15": func() (*Table, sched.MemoStats, error) { return runE15At(e15Choice, e15Input) },
	"E16": func() (*Table, sched.MemoStats, error) { return AlgK5SweepReduced(0) },
}

// Figure2ExecutionsReduced is E2 through the memo across workers
// goroutines sharing one table (1 is the serial explorer the
// registry runs, <= 0 sched.DefaultExploreWorkers). The table bytes
// are identical at every worker count.
func Figure2ExecutionsReduced(workers int) (*Table, sched.MemoStats, error) {
	agg, stats, err := agreement.ExploreAlg1MemoParallel(e2K, e2Inputs, workers, alg1LeafAgg, mergeAlg1Agg)
	if err != nil {
		return nil, stats, err
	}
	tab, err := finishE2(alg1AggOf(agg), e2K, e2Inputs)
	return tab, stats, err
}
