package agreement

import (
	"fmt"
	"testing"

	"repro/internal/sched"
	"repro/internal/sched/schedtest"
)

// alg1MemoOutcome is one memoized Algorithm 1 exploration's result,
// collected by index from a schedtest.Concurrently call.
type alg1MemoOutcome struct {
	agg   any
	stats sched.MemoStats
	err   error
}

// TestAlg1MemoParallelMatchesExhaustive runs the memoized differential
// grid with 1, 2 or 8 explorations of the same cell at once — the
// engine and the server explore concurrently, each call over its own
// memo table: every one reproduces the exhaustive fingerprint multiset
// and execution count.
func TestAlg1MemoParallelMatchesExhaustive(t *testing.T) {
	leaf := func(ar *Alg1Run) any { return schedtest.Counts{alg1FP(ar): 1} }
	for _, tc := range alg1MemoGrid() {
		name := fmt.Sprintf("k%d_in%d%d", tc.k, tc.inputs[0], tc.inputs[1])
		t.Run(name, func(t *testing.T) {
			want, runs := alg1Exhaustive(t, tc.k, tc.inputs)
			for _, workers := range []int{1, 2, 8} {
				outs := make([]alg1MemoOutcome, workers)
				schedtest.Concurrently(workers, func(i int) {
					o := &outs[i]
					o.agg, o.stats, o.err = ExploreAlg1Memo(tc.k, tc.inputs, leaf, schedtest.Merge)
				})
				for i, o := range outs {
					if o.err != nil {
						t.Fatalf("workers=%d run %d: %v", workers, i, o.err)
					}
					if d := schedtest.Diff(schedtest.AsCounts(o.agg), want); d != "" {
						t.Fatalf("workers=%d run %d: multisets diverge:\n%s", workers, i, d)
					}
					if o.stats.Executions != runs {
						t.Fatalf("workers=%d run %d: %d executions accounted, exhaustive ran %d", workers, i, o.stats.Executions, runs)
					}
				}
			}
		})
	}
}

// TestAlg1MemoParallelPrefixUnion splits the Alg1Roots carve at several
// depths into ranges explored at once, as a prefix-sharded request
// does, and pins their merge to the exhaustive multiset and count.
func TestAlg1MemoParallelPrefixUnion(t *testing.T) {
	k, inputs := 2, [2]uint64{0, 1}
	want, runs := alg1Exhaustive(t, k, inputs)
	leaf := func(ar *Alg1Run) any { return schedtest.Counts{alg1FP(ar): 1} }
	for _, depth := range []int{0, 2, 4} {
		roots, err := Alg1Roots(k, inputs, depth)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8} {
			ranges := schedtest.Ranges(roots, workers)
			outs := make([]alg1MemoOutcome, len(ranges))
			schedtest.Concurrently(len(ranges), func(i int) {
				o := &outs[i]
				o.agg, o.stats, o.err = ExploreAlg1MemoPrefixes(k, inputs, ranges[i], leaf, schedtest.Merge)
			})
			union, total := schedtest.Counts{}, 0
			for i, o := range outs {
				if o.err != nil {
					t.Fatalf("depth %d workers %d range %d: %v", depth, workers, i, o.err)
				}
				union = schedtest.Merge(union, schedtest.AsCounts(o.agg)).(schedtest.Counts)
				total += o.stats.Executions
			}
			if d := schedtest.Diff(union, want); d != "" {
				t.Fatalf("depth %d workers %d: union diverges:\n%s", depth, workers, d)
			}
			if total != runs {
				t.Fatalf("depth %d workers %d: %d executions, want %d", depth, workers, total, runs)
			}
		}
	}
}
