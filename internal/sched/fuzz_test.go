package sched_test

// FuzzMemoMatchesExhaustive: random small step systems explored
// through the memo — whole, and as one call over a random-depth
// PartitionRoots carve — must reproduce the exhaustive explorer's
// leaf-fingerprint multiset and run count, with the accounting
// identities the counters promise. This is the fuzz half of the
// memo-vs-exhaustive differential layer: the structured tests pin a
// fixed grid, the fuzzer walks the (system, carve) space.

import (
	"fmt"
	"testing"

	"repro/internal/sched"
	"repro/internal/sched/schedtest"
)

func FuzzMemoMatchesExhaustive(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(0), uint8(1))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(2))
	f.Add(uint8(3), uint8(2), uint8(2), uint8(0))
	f.Add(uint8(2), uint8(2), uint8(2), uint8(3))
	f.Fuzz(func(t *testing.T, t0, t1, t2, depth uint8) {
		// A 2- or 3-process step system with 1..3 steps per process:
		// small enough to explore exhaustively every iteration, branchy
		// enough to prune.
		totals := []int{1 + int(t0)%3, 1 + int(t1)%3}
		if t2%2 == 1 {
			totals = append(totals, 1+int(t2)%3)
		}
		mc := memoCase{
			name:    fmt.Sprintf("steps/%v", totals),
			factory: func() []sched.ProcFunc { return newAsymSys(totals).procs() },
			memo: func() sched.MemoInstance {
				s := newAsymSys(totals)
				return sched.MemoInstance{Procs: s.procs(), State: s.state, Leaf: schedtest.Leaf(s.leafFP)}
			},
		}
		want, runs := exhaustiveCounts(t, mc)
		if n, err := sched.ExploreAll(mc.factory, 0, func(*sched.Result) {}); err != nil || n != runs {
			t.Fatalf("ExploreAll ran %d (err %v), the fingerprinting walk %d", n, err, runs)
		}

		check := func(label string, agg any, stats sched.MemoStats) {
			t.Helper()
			if d := schedtest.Diff(schedtest.AsCounts(agg), want); d != "" {
				t.Fatalf("%s %s: multiset differs from the exhaustive one:\n%s", mc.name, label, d)
			}
			if stats.Executions != runs {
				t.Fatalf("%s %s: %d executions accounted, exhaustive ran %d", mc.name, label, stats.Executions, runs)
			}
			// Every replay halts on a memo hit or explores a distinct
			// execution, so replays − pruned can never exceed the runs.
			if stats.Replays-stats.StatesPruned > runs || stats.Replays < 1 {
				t.Fatalf("%s %s: replay accounting broken: %+v for %d runs", mc.name, label, stats, runs)
			}
			if stats.StatesVisited < 1 {
				t.Fatalf("%s %s: no states stored: %+v", mc.name, label, stats)
			}
		}

		agg, stats, err := sched.ExploreMemo(mc.memo, sched.MemoOptions{Merge: schedtest.Merge})
		if err != nil {
			t.Fatal(err)
		}
		check("whole", agg, stats)

		d := int(depth) % 4
		roots, err := sched.PartitionRoots(mc.factory, 0, d)
		if err != nil {
			t.Fatal(err)
		}
		agg, stats, err = sched.ExploreMemoPrefixes(mc.memo, sched.MemoOptions{Merge: schedtest.Merge}, roots)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("depth-%d carve", d), agg, stats)
	})
}
