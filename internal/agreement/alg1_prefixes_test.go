package agreement

import (
	"fmt"
	"sort"
	"testing"
)

// alg1Fingerprints collects a sorted fingerprint multiset of every
// visited execution: the scheduler-decision sequence (the execution's
// identity on the deterministic system) plus the decided pair.
func alg1Fingerprints(t *testing.T, explore func(visit func(*Alg1Run)) (int, error)) []string {
	t.Helper()
	var fps []string
	n, err := explore(func(ar *Alg1Run) {
		fp := ""
		for _, pid := range ar.Result.Schedule {
			fp += fmt.Sprintf("%d.", pid)
		}
		fps = append(fps, fp+" "+ar.Outs[0].String()+"|"+ar.Outs[1].String())
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(fps) {
		t.Fatalf("explorer reported %d runs, visited %d", n, len(fps))
	}
	sort.Strings(fps)
	return fps
}

// TestAlg1PrefixUnionMatchesExplore: the union of ExploreAlg1Prefixes
// over an Alg1Roots partition visits exactly the ExploreAlg1 execution
// set — the agreement-layer instance of the sched differential
// property, on the protocol the sharded E2 experiment explores.
func TestAlg1PrefixUnionMatchesExplore(t *testing.T) {
	const k = 2
	inputs := [2]uint64{0, 1}
	want := alg1Fingerprints(t, func(visit func(*Alg1Run)) (int, error) {
		return ExploreAlg1(k, inputs, visit)
	})
	for _, depth := range []int{0, 1, 3, 6} {
		roots, err := Alg1Roots(k, inputs, depth)
		if err != nil {
			t.Fatal(err)
		}
		var union []string
		for _, root := range roots {
			root := root
			union = append(union, alg1Fingerprints(t, func(visit func(*Alg1Run)) (int, error) {
				return ExploreAlg1Prefixes(k, inputs, [][]int{root}, visit)
			})...)
		}
		sort.Strings(union)
		if len(union) != len(want) {
			t.Fatalf("depth %d: union visits %d executions, want %d", depth, len(union), len(want))
		}
		for i := range want {
			if union[i] != want[i] {
				t.Fatalf("depth %d: fingerprint multiset differs at %d: %q vs %q", depth, i, union[i], want[i])
			}
		}
	}
}
