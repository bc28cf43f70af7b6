package agreement

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/sched/schedtest"
)

// alg1FP fingerprints one completed Algorithm 1 execution in
// relabelling-invariant terms: the per-process (input, decision,
// decided, final register) tuples, sorted. Sorting is what makes the
// fingerprint legal under the memoized explorer's symmetry reduction —
// a pruned subtree's leaves may differ from their memoized twins
// exactly by a process relabelling.
func alg1FP(ar *Alg1Run) string {
	regs := ar.FinalRegisters()
	pair := make([]string, 2)
	for i := 0; i < 2; i++ {
		pair[i] = fmt.Sprintf("in%d out%d/%d dec%v reg%d",
			ar.Inputs[i], ar.Outs[i].Num, ar.Outs[i].Den, ar.Decided[i], regs[i])
	}
	sort.Strings(pair)
	return fmt.Sprint(pair)
}

// alg1Exhaustive collects the exhaustive fingerprint multiset and run
// count for one (k, inputs) cell.
func alg1Exhaustive(t *testing.T, k int, inputs [2]uint64) (schedtest.Counts, int) {
	t.Helper()
	counts := schedtest.Counts{}
	runs, err := ExploreAlg1(k, inputs, func(ar *Alg1Run) {
		counts.Add(alg1FP(ar))
	})
	if err != nil {
		t.Fatalf("ExploreAlg1(k=%d, %v): %v", k, inputs, err)
	}
	return counts, runs
}

func alg1MemoGrid() []struct {
	k      int
	inputs [2]uint64
} {
	return []struct {
		k      int
		inputs [2]uint64
	}{
		{1, [2]uint64{0, 1}},
		{1, [2]uint64{1, 1}},
		{2, [2]uint64{0, 1}},
		{2, [2]uint64{0, 0}},
		{3, [2]uint64{0, 1}},
	}
}

// TestAlg1MemoMatchesExhaustive pins the memoized Algorithm 1 sweep to
// the exhaustive one on a (k, inputs) grid: identical fingerprint
// multisets, identical execution counts, and genuinely fewer replays.
func TestAlg1MemoMatchesExhaustive(t *testing.T) {
	for _, tc := range alg1MemoGrid() {
		name := fmt.Sprintf("k%d_in%d%d", tc.k, tc.inputs[0], tc.inputs[1])
		t.Run(name, func(t *testing.T) {
			want, runs := alg1Exhaustive(t, tc.k, tc.inputs)
			agg, stats, err := ExploreAlg1Memo(tc.k, tc.inputs,
				func(ar *Alg1Run) any { return schedtest.Counts{alg1FP(ar): 1} },
				schedtest.Merge)
			if err != nil {
				t.Fatalf("ExploreAlg1Memo: %v", err)
			}
			got := schedtest.AsCounts(agg)
			if d := schedtest.Diff(got, want); d != "" {
				t.Fatalf("fingerprint multisets diverge:\n%s", d)
			}
			if stats.Executions != runs {
				t.Fatalf("memo accounts for %d executions, exhaustive ran %d", stats.Executions, runs)
			}
			if stats.Replays >= runs {
				t.Errorf("memoization saved nothing: %d replays for %d executions", stats.Replays, runs)
			}
			if stats.StatesPruned == 0 {
				t.Errorf("no subtree was pruned on a %d-execution space", runs)
			}
		})
	}
}

// TestAlg1MemoPrefixUnion pins the sharded memoized mode: for every cut
// depth, the memoized union over the Alg1Roots partition equals the
// exhaustive whole-tree multiset — the property that lets a distributed
// sweep adopt the reduced mode slice by slice.
func TestAlg1MemoPrefixUnion(t *testing.T) {
	k, inputs := 2, [2]uint64{0, 1}
	want, runs := alg1Exhaustive(t, k, inputs)
	leaf := func(ar *Alg1Run) any { return schedtest.Counts{alg1FP(ar): 1} }
	for _, depth := range []int{0, 2, 4} {
		roots, err := Alg1Roots(k, inputs, depth)
		if err != nil {
			t.Fatal(err)
		}
		if depth > 0 && len(roots) < 2 {
			t.Fatalf("depth %d partition has %d roots", depth, len(roots))
		}

		// One call over the whole partition.
		agg, stats, err := ExploreAlg1MemoPrefixes(k, inputs, roots, leaf, schedtest.Merge)
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if d := schedtest.Diff(schedtest.AsCounts(agg), want); d != "" {
			t.Fatalf("depth %d one-call union diverges:\n%s", depth, d)
		}
		if stats.Executions != runs {
			t.Fatalf("depth %d: %d executions, want %d", depth, stats.Executions, runs)
		}

		// Separate calls per root (each shard its own memo), merged by hand.
		union := schedtest.Counts{}
		total := 0
		for _, root := range roots {
			agg, stats, err := ExploreAlg1MemoPrefixes(k, inputs, [][]int{root}, leaf, schedtest.Merge)
			if err != nil {
				t.Fatalf("depth %d root %v: %v", depth, root, err)
			}
			for fp, n := range schedtest.AsCounts(agg) {
				union[fp] += n
			}
			total += stats.Executions
		}
		if d := schedtest.Diff(union, want); d != "" {
			t.Fatalf("depth %d per-root union diverges:\n%s", depth, d)
		}
		if total != runs {
			t.Fatalf("depth %d: per-root executions sum to %d, want %d", depth, total, runs)
		}
	}
}

// TestAlg1MemoAggregatesSpec runs the memoized sweep with a
// specification-checking leaf: every visited execution must satisfy
// 1/(2k+1)-agreement, mirroring how the experiment layer consumes the
// reduced mode.
func TestAlg1MemoAggregatesSpec(t *testing.T) {
	for _, tc := range alg1MemoGrid() {
		var checkErr error
		_, stats, err := ExploreAlg1Memo(tc.k, tc.inputs, func(ar *Alg1Run) any {
			if checkErr == nil {
				checkErr = ar.Check(tc.k)
			}
			return nil
		}, nil)
		if err != nil {
			t.Fatalf("k=%d inputs=%v: %v", tc.k, tc.inputs, err)
		}
		if checkErr != nil {
			t.Fatalf("k=%d inputs=%v: visited execution violates spec: %v", tc.k, tc.inputs, checkErr)
		}
		if stats.Executions == 0 {
			t.Fatalf("k=%d inputs=%v: no executions", tc.k, tc.inputs)
		}
	}
}

// TestAlg1MemoAllocsPerReplay pins the per-replay cost of E2's memo:
// an exploration builds its Algorithm 1 system once and resets it in
// place for every later replay, so a replay allocates only the
// explorer's own bookkeeping. Between k=2 and k=6 (74 and 218
// replays) the allocations grow by fewer than 8 per extra replay;
// rebuilding the system on every replay costs about 17. Comparing two
// explorations, rather than pinning one count, keeps the bound
// independent of the Go release.
func TestAlg1MemoAllocsPerReplay(t *testing.T) {
	explore := func(k int) (allocs float64, replays int) {
		allocs = testing.AllocsPerRun(3, func() {
			_, stats, err := ExploreAlg1Memo(k, [2]uint64{0, 1}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			replays = stats.Replays
		})
		return allocs, replays
	}
	smallAllocs, smallReplays := explore(2)
	largeAllocs, largeReplays := explore(6)
	if largeReplays <= smallReplays {
		t.Fatalf("k=6 replays %d, k=2 replays %d: no growth to measure", largeReplays, smallReplays)
	}
	slope := (largeAllocs - smallAllocs) / float64(largeReplays-smallReplays)
	if slope >= 8 {
		t.Errorf("%.1f allocations per extra replay (k=2: %v over %d replays, k=6: %v over %d), want under 8",
			slope, smallAllocs, smallReplays, largeAllocs, largeReplays)
	}
}
