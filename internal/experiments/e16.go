package experiments

import (
	"fmt"

	"repro/internal/agreement"
	"repro/internal/sched"
)

// E16 — the k = 5 Algorithm 1 exhaustive sweep — is the first
// *heavy* experiment: registered for explicit -run requests but kept
// out of the default registry sweep. It is the one memoized experiment
// that fans out across cores by default (sched.DefaultExploreWorkers
// goroutines over one shared memo table); its bytes are identical at
// every worker count.

// e16K pins E16's instance: Algorithm 1 with k = 5 on the same (0, 1)
// inputs as E2, one step up the k ladder from Figure 2.
const e16K = 5

var e16Inputs = [2]uint64{0, 1}

// Heavy returns the opt-in heavy experiments by id: runnable whenever
// named explicitly (-run E16, GET /experiments/E16) but excluded from
// the default all-experiments sweep and from IDs().
func Heavy() map[string]Runner {
	return map[string]Runner{
		"E16": AlgK5Sweep,
	}
}

// HeavyFor returns the default heavy set for a registry choice: the
// full Heavy() when reg is nil (the real registry), and nothing
// otherwise — the same opt-in rule as ShardablesFor, so a registry
// override never silently serves real heavy sweeps.
func HeavyFor(reg map[string]Runner) map[string]Runner {
	if reg == nil {
		return Heavy()
	}
	return map[string]Runner{}
}

// HeavyIDs returns the heavy experiment ids in index order.
func HeavyIDs() []string {
	m := Heavy()
	ids := make(map[string]Runner, len(m))
	for id := range m {
		ids[id] = nil
	}
	return sortIDs(ids)
}

// AlgK5Sweep is E16's Runner: the memoized k = 5 sweep at the default
// worker fan-out.
func AlgK5Sweep() (*Table, error) {
	tab, _, err := AlgK5SweepReduced(0)
	return tab, err
}

// AlgK5SweepReduced is the k = 5 Algorithm 1 sweep through the memo
// across workers goroutines (<= 0 sched.DefaultExploreWorkers),
// aggregated and rendered by the same leaf/finish shape as E2.
func AlgK5SweepReduced(workers int) (*Table, sched.MemoStats, error) {
	agg, stats, err := agreement.ExploreAlg1MemoParallel(e16K, e16Inputs, workers, alg1LeafAgg, mergeAlg1Agg)
	if err != nil {
		return nil, stats, err
	}
	tab, err := finishE16(alg1AggOf(agg))
	return tab, stats, err
}

// finishE16 renders E16's table from a fully-merged sweep aggregate —
// the finishE2 shape at the k = 5 point, under E16's own id so the
// heavy sweep and the Figure 2 family stay distinct cache entries.
func finishE16(a *alg1SweepAgg) (*Table, error) {
	den := agreement.Alg1Den(e16K)
	t := &Table{
		ID:      "E16",
		Title:   fmt.Sprintf("Heavy sweep — Algorithm 1 executions, k=%d, inputs (%d,%d), memoized", e16K, e16Inputs[0], e16Inputs[1]),
		Headers: []string{"quantity", "value"},
	}
	t.Rows = append(t.Rows,
		[]string{"interleavings", itoa(a.Execs)},
		[]string{"distinct decisions", itoa(len(a.Seen))},
		[]string{"decision range", fmt.Sprintf("0..%s by 1/%d", rat(den, den), den)},
		[]string{"worst co-final distance", rat(a.WorstNum, den)},
		[]string{"max steps per process", fmt.Sprintf("%d (bound 2k+3 = %d)", a.MaxSteps, agreement.Alg1MaxSteps(e16K))},
	)
	if a.WorstNum > 1 {
		t.Notes = append(t.Notes, "VIOLATION: co-final decisions exceed ε")
	} else {
		t.Notes = append(t.Notes, "all co-final decision pairs within ε = 1/(2k+1); full range covered")
	}
	t.Notes = append(t.Notes, "reduced-only: explored through the canonical-state memo (no exhaustive twin)")
	return t, nil
}
