package task

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/sched/schedtest"
)

// exploreAlg2RangesAtOnce runs one ExploreAlg2MemoPrefixes call per
// range, all at once, and returns the stats and errors in range order.
func exploreAlg2RangesAtOnce(plan *Plan, input Pair, ranges [][][]int) ([]sched.MemoStats, []error) {
	stats, errs := make([]sched.MemoStats, len(ranges)), make([]error, len(ranges))
	schedtest.Concurrently(len(ranges), func(i int) {
		stats[i], errs[i] = ExploreAlg2MemoPrefixes(plan, input, ranges[i])
	})
	return stats, errs
}

// TestAlg2MemoParallelMatchesSerial pins validating sweeps run at once
// — the engine's jobs, the server's requests, a fleet's prefix ranges —
// to the lone serial one: 1, 2 or 8 whole sweeps side by side each
// report the serial counters and the exhaustive execution count (the
// E15 aggregate), and the Alg2Roots carve split into ranges explored
// at once sums to the same count.
func TestAlg2MemoParallelMatchesSerial(t *testing.T) {
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
	serial, err := ExploreAlg2Memo(plan, input)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Executions != whole {
		t.Fatalf("serial sweep accounts %d executions, exhaustive ran %d", serial.Executions, whole)
	}
	for _, workers := range []int{1, 2, 8} {
		outs, errs := make([]sched.MemoStats, workers), make([]error, workers)
		schedtest.Concurrently(workers, func(i int) {
			outs[i], errs[i] = ExploreAlg2Memo(plan, input)
		})
		for i := range outs {
			if errs[i] != nil {
				t.Fatalf("workers=%d run %d: %v", workers, i, errs[i])
			}
			if outs[i] != serial {
				t.Fatalf("workers=%d run %d: stats %+v, serial %+v", workers, i, outs[i], serial)
			}
		}
	}
	for _, depth := range []int{2, 4} {
		roots, err := Alg2Roots(plan, input, depth)
		if err != nil {
			t.Fatal(err)
		}
		stats, errs := exploreAlg2RangesAtOnce(plan, input, schedtest.Ranges(roots, 4))
		total := 0
		for i := range stats {
			if errs[i] != nil {
				t.Fatalf("depth %d range %d: %v", depth, i, errs[i])
			}
			total += stats[i].Executions
		}
		if total != whole {
			t.Fatalf("depth %d: %d executions, want %d", depth, total, whole)
		}
	}
}

// TestAlg2MemoParallelSurfacesViolation: with ranges of a doctored plan
// explored at once, a validation failure in each range's visited
// leaves fails that range — the violation is reported per call, never
// lost or swallowed by the sweeps running beside it.
func TestAlg2MemoParallelSurfacesViolation(t *testing.T) {
	task := ChoiceTask(2)
	plan := planFor(t, task)
	input := task.Inputs[0]

	bad := *task
	bad.Delta = map[Pair][]Pair{}
	doctored := *plan
	doctored.Task = &bad

	roots, err := Alg2Roots(&doctored, input, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, errs := exploreAlg2RangesAtOnce(&doctored, input, schedtest.Ranges(roots, 4))
	for i, err := range errs {
		if err == nil {
			t.Errorf("range %d of %d accepted a plan whose outputs are all illegal", i, len(errs))
		}
	}
}
