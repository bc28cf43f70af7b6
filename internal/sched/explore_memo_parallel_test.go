package sched_test

// Differential suite for the memoized explorer under concurrent use.
// Production runs several serial memo explorations at once — the
// experiment engine's jobs, the server's concurrent requests, a shard
// fleet's prefix ranges — each over its own memo table. Run side by
// side on the same grid as explore_memo_test.go, every exploration must
// still reproduce the exhaustive leaf-fingerprint multiset and
// execution count, whole-tree and over PartitionRoots carves split into
// concurrently explored ranges, and report the counters of a lone run.

import (
	"errors"
	"testing"

	"repro/internal/sched"
	"repro/internal/sched/schedtest"
)

// parallelWorkerGrid is the number of explorations run at once.
var parallelWorkerGrid = []int{1, 2, 8}

// memoOutcome is one exploration's result, collected by index from a
// schedtest.Concurrently call.
type memoOutcome struct {
	agg   any
	stats sched.MemoStats
	err   error
}

// exploreAtOnce runs n whole-tree memoized explorations of mc at once.
func exploreAtOnce(mc memoCase, n int) []memoOutcome {
	out := make([]memoOutcome, n)
	schedtest.Concurrently(n, func(i int) {
		o := &out[i]
		o.agg, o.stats, o.err = sched.ExploreMemo(mc.memo, sched.MemoOptions{Merge: schedtest.Merge})
	})
	return out
}

// exploreRangesAtOnce explores each range with its own
// ExploreMemoPrefixes call, all at once, and returns the outcomes in
// range order.
func exploreRangesAtOnce(memo func() sched.MemoInstance, ranges [][][]int) []memoOutcome {
	out := make([]memoOutcome, len(ranges))
	schedtest.Concurrently(len(ranges), func(i int) {
		o := &out[i]
		o.agg, o.stats, o.err = sched.ExploreMemoPrefixes(memo, sched.MemoOptions{Merge: schedtest.Merge}, ranges[i])
	})
	return out
}

// TestMemoParallelMatchesExhaustive: with 1, 2 or 8 explorations of the
// same system running at once, each one reproduces the exhaustive
// multiset and execution count.
func TestMemoParallelMatchesExhaustive(t *testing.T) {
	for _, mc := range memoGrid() {
		t.Run(mc.name, func(t *testing.T) {
			want, runs := exhaustiveCounts(t, mc)
			for _, workers := range parallelWorkerGrid {
				for i, o := range exploreAtOnce(mc, workers) {
					if o.err != nil {
						t.Fatalf("workers=%d run %d: %v", workers, i, o.err)
					}
					if d := schedtest.Diff(schedtest.AsCounts(o.agg), want); d != "" {
						t.Fatalf("workers=%d run %d: fingerprint multisets differ:\n%s", workers, i, d)
					}
					if o.stats.Executions != runs {
						t.Fatalf("workers=%d run %d: %d executions accounted, exhaustive ran %d", workers, i, o.stats.Executions, runs)
					}
				}
			}
		})
	}
}

// TestMemoParallelDeterministicAggregate: explorations running at once
// report the aggregate and every counter of a lone run — the counters
// `figures -v` prints and the reduce gate pins may not depend on what
// else the process is exploring.
func TestMemoParallelDeterministicAggregate(t *testing.T) {
	for _, mc := range memoGrid() {
		t.Run(mc.name, func(t *testing.T) {
			lone, loneStats, err := sched.ExploreMemo(mc.memo, sched.MemoOptions{Merge: schedtest.Merge})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 8} {
				for i, o := range exploreAtOnce(mc, workers) {
					if o.err != nil {
						t.Fatalf("workers=%d run %d: %v", workers, i, o.err)
					}
					if d := schedtest.Diff(schedtest.AsCounts(o.agg), schedtest.AsCounts(lone)); d != "" {
						t.Fatalf("workers=%d run %d: aggregate differs from a lone run:\n%s", workers, i, d)
					}
					if o.stats != loneStats {
						t.Fatalf("workers=%d run %d: stats %+v, lone run %+v", workers, i, o.stats, loneStats)
					}
				}
			}
		})
	}
}

// TestMemoParallelPrefixesUnionEqualsExploreAll: every PartitionRoots
// carve at depths 0..4, split into 1, 2 or 8 ranges explored at once,
// merges to the exhaustive multiset and count.
func TestMemoParallelPrefixesUnionEqualsExploreAll(t *testing.T) {
	for _, mc := range memoGrid() {
		t.Run(mc.name, func(t *testing.T) {
			want, runs := exhaustiveCounts(t, mc)
			for depth := 0; depth <= 4; depth++ {
				roots, err := sched.PartitionRoots(mc.factory, 0, depth)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range parallelWorkerGrid {
					union, total := schedtest.Counts{}, 0
					for i, o := range exploreRangesAtOnce(mc.memo, schedtest.Ranges(roots, workers)) {
						if o.err != nil {
							t.Fatalf("depth %d workers %d range %d: %v", depth, workers, i, o.err)
						}
						union = schedtest.Merge(union, schedtest.AsCounts(o.agg)).(schedtest.Counts)
						total += o.stats.Executions
					}
					if d := schedtest.Diff(union, want); d != "" {
						t.Fatalf("depth %d workers %d: multiset differs:\n%s", depth, workers, d)
					}
					if total != runs {
						t.Fatalf("depth %d workers %d: %d executions, want %d", depth, workers, total, runs)
					}
				}
			}
		})
	}
}

// TestMemoParallelErrors: a range that fails — here a dead root — fails
// only its own exploration, with ErrPrefixNotLive, and returns; the
// ranges explored beside it still merge to the exhaustive multiset.
func TestMemoParallelErrors(t *testing.T) {
	mc := memoGrid()[len(memoGrid())-1] // steps/[2 2 2]: three processes, many roots
	roots, err := sched.PartitionRoots(mc.factory, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, runs := exhaustiveCounts(t, mc)
	ranges := append(schedtest.Ranges(roots, 4), [][]int{{5}})
	outs := exploreRangesAtOnce(mc.memo, ranges)
	dead := outs[len(outs)-1]
	if !errors.Is(dead.err, sched.ErrPrefixNotLive) {
		t.Errorf("dead range: err = %v, want ErrPrefixNotLive", dead.err)
	}
	union, total := schedtest.Counts{}, 0
	for i, o := range outs[:len(outs)-1] {
		if o.err != nil {
			t.Fatalf("live range %d failed beside the dead one: %v", i, o.err)
		}
		union = schedtest.Merge(union, schedtest.AsCounts(o.agg)).(schedtest.Counts)
		total += o.stats.Executions
	}
	if d := schedtest.Diff(union, want); d != "" {
		t.Fatalf("live ranges' multiset differs:\n%s", d)
	}
	if total != runs {
		t.Fatalf("live ranges account %d executions, want %d", total, runs)
	}
}
