package agreement

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/sched/schedtest"
)

// TestExploreAlg1ParallelMatchesSerial: explorations of Algorithm 1
// run side by side — ExploreAlg1Prefixes calls at once, one per range
// of an Alg1Roots carve, as the engine, the server and a shard fleet
// run them — together visit the same multiset of completed runs
// (outputs and final register contents) and the same run count as the
// lone ExploreAlg1.
func TestExploreAlg1ParallelMatchesSerial(t *testing.T) {
	key := func(ar *Alg1Run) string {
		return fmt.Sprintf("%v|%v|%v", ar.Outs, ar.Decided, ar.FinalRegisters())
	}
	for _, k := range []int{1, 2, 3} {
		for _, inputs := range [][2]uint64{{0, 1}, {1, 1}} {
			var want []string
			serialRuns, err := ExploreAlg1(k, inputs, func(ar *Alg1Run) { want = append(want, key(ar)) })
			if err != nil {
				t.Fatal(err)
			}
			sort.Strings(want)
			roots, err := Alg1Roots(k, inputs, 3)
			if err != nil {
				t.Fatal(err)
			}
			for _, callers := range []int{1, 4} {
				ranges := schedtest.Ranges(roots, callers)
				keys := make([][]string, len(ranges))
				runs := make([]int, len(ranges))
				errs := make([]error, len(ranges))
				schedtest.Concurrently(len(ranges), func(i int) {
					runs[i], errs[i] = ExploreAlg1Prefixes(k, inputs, ranges[i], func(ar *Alg1Run) {
						keys[i] = append(keys[i], key(ar))
					})
				})
				var got []string
				total := 0
				for i := range ranges {
					if errs[i] != nil {
						t.Fatal(errs[i])
					}
					got = append(got, keys[i]...)
					total += runs[i]
				}
				sort.Strings(got)
				if total != serialRuns || len(got) != len(want) {
					t.Fatalf("k=%d inputs=%v callers=%d: %d runs and %d visits, serial %d and %d",
						k, inputs, callers, total, len(got), serialRuns, len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("k=%d inputs=%v callers=%d: run multiset differs at %d: %s vs %s",
							k, inputs, callers, i, got[i], want[i])
					}
				}
			}
		}
	}
}
