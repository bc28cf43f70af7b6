package agreement

import (
	"fmt"
	"sort"
	"testing"
)

// TestExploreAlg1ParallelMatchesSerial checks that the parallel
// enumeration of Algorithm 1 (ExploreAlg1Prefixes over the whole tree)
// visits the same multiset of completed runs (outputs and final
// register contents) as the serial one.
func TestExploreAlg1ParallelMatchesSerial(t *testing.T) {
	collect := func(explore func(func(*Alg1Run)) (int, error)) ([]string, int) {
		var keys []string
		runs, err := explore(func(ar *Alg1Run) {
			keys = append(keys, fmt.Sprintf("%v|%v|%v", ar.Outs, ar.Decided, ar.FinalRegisters()))
		})
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(keys)
		return keys, runs
	}

	for _, k := range []int{1, 2, 3} {
		for _, inputs := range [][2]uint64{{0, 1}, {1, 1}} {
			want, serialRuns := collect(func(visit func(*Alg1Run)) (int, error) {
				return ExploreAlg1(k, inputs, visit)
			})
			got, parallelRuns := collect(func(visit func(*Alg1Run)) (int, error) {
				return ExploreAlg1Prefixes(k, inputs, 4, [][]int{{}}, visit)
			})
			if serialRuns != parallelRuns {
				t.Fatalf("k=%d inputs=%v: %d parallel runs, %d serial", k, inputs, parallelRuns, serialRuns)
			}
			if len(got) != len(want) {
				t.Fatalf("k=%d inputs=%v: %d visits, want %d", k, inputs, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("k=%d inputs=%v: run multiset differs at %d: %s vs %s",
						k, inputs, i, got[i], want[i])
				}
			}
		}
	}
}
