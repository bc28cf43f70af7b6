package task

import "testing"

// TestAlg2PrefixShardingDifferential: the exhaustive Algorithm 2
// validation sweep splits over an Alg2Roots partition exactly like the
// Algorithm 1 spaces — per-slice run counts sum to the ExploreAlg2
// total (the order-insensitive aggregate of this space), and every
// slice validates its executions.
func TestAlg2PrefixShardingDifferential(t *testing.T) {
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
	for _, depth := range []int{0, 4} {
		roots, err := Alg2Roots(plan, input, depth)
		if err != nil {
			t.Fatal(err)
		}
		if depth > 0 && len(roots) < 2 {
			t.Fatalf("depth %d partition has %d roots", depth, len(roots))
		}
		total := 0
		for _, root := range roots {
			n, err := ExploreAlg2Prefixes(plan, input, [][]int{root})
			if err != nil {
				t.Fatalf("slice %v: %v", root, err)
			}
			total += n
		}
		if total != whole {
			t.Fatalf("depth %d: slices sum to %d executions, ExploreAlg2 visits %d", depth, total, whole)
		}
	}
}
