package sched

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
)

// stepSystem builds a deterministic n-process system where process i
// takes steps[i] plain steps. The decision tree is the full
// interleaving tree of the step counts — branchy enough to exercise
// every partition shape.
func stepSystem(steps []int) []ProcFunc {
	procs := make([]ProcFunc, len(steps))
	for i, k := range steps {
		k := k
		procs[i] = func(p *Proc) error {
			for s := 0; s < k; s++ {
				p.Step()
			}
			return nil
		}
	}
	return procs
}

// fingerprint renders an execution's decision sequence — the identity
// of one interleaving on the deterministic system.
func fingerprint(r *Result) string {
	var b strings.Builder
	for _, pid := range r.Schedule {
		fmt.Fprintf(&b, "%d.", pid)
	}
	return b.String()
}

// collectAll runs the serial exhaustive explorer and returns the
// fingerprint multiset (as a sorted slice) of every execution.
func collectAll(t *testing.T, steps []int) []string {
	t.Helper()
	var fps []string
	n, err := ExploreAll(func() []ProcFunc { return stepSystem(steps) }, 0, func(r *Result) {
		fps = append(fps, fingerprint(r))
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(fps) {
		t.Fatalf("ExploreAll reported %d runs, visited %d", n, len(fps))
	}
	sort.Strings(fps)
	return fps
}

// collectPrefixes runs ExplorePrefixes over the given roots and
// returns the sorted fingerprint multiset.
func collectPrefixes(t *testing.T, steps []int, roots [][]int) []string {
	t.Helper()
	var fps []string
	n, err := ExplorePrefixes(func() []ProcFunc { return stepSystem(steps) }, 0, roots, func(r *Result) bool {
		fps = append(fps, fingerprint(r))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(fps) {
		t.Fatalf("ExplorePrefixes reported %d runs, visited %d", n, len(fps))
	}
	sort.Strings(fps)
	return fps
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPartitionUnionEqualsExploreAll is the differential property the
// distributed sharding layers rest on: for every cut depth — including
// the degenerate depth 0 (one root, the whole tree) and depths beyond
// the tree height (one root per execution) — the union of
// ExplorePrefixes over the PartitionRoots partition visits exactly the
// ExploreAll execution set, execution count and fingerprint multiset
// alike. Each root is also explored as its own one-element range, so
// any regrouping of the partition into ranges covers the same set.
func TestPartitionUnionEqualsExploreAll(t *testing.T) {
	for _, steps := range [][]int{{3, 3}, {2, 2, 2}} {
		steps := steps
		want := collectAll(t, steps)
		height := 0
		for _, s := range steps {
			height += s
		}
		for depth := 0; depth <= height+2; depth++ {
			roots, err := PartitionRoots(func() []ProcFunc { return stepSystem(steps) }, 0, depth)
			if err != nil {
				t.Fatal(err)
			}
			// Roots must be pairwise prefix-free: disjoint subtrees.
			for i := range roots {
				for k := i + 1; k < len(roots); k++ {
					if isPrefix(roots[i], roots[k]) || isPrefix(roots[k], roots[i]) {
						t.Fatalf("steps=%v depth=%d: roots %v and %v overlap", steps, depth, roots[i], roots[k])
					}
				}
			}
			// The whole partition in one call...
			got := collectPrefixes(t, steps, roots)
			if !equalStrings(got, want) {
				t.Fatalf("steps=%v depth=%d: partition visits %d executions, want %d",
					steps, depth, len(got), len(want))
			}
			// ...and as single-root ranges whose union is the space —
			// the sharded shape, one call per range.
			var union []string
			for _, root := range roots {
				union = append(union, collectPrefixes(t, steps, [][]int{root})...)
			}
			sort.Strings(union)
			if !equalStrings(union, want) {
				t.Fatalf("steps=%v depth=%d: single-root union visits %d executions, want %d",
					steps, depth, len(union), len(want))
			}
		}
	}
}

func isPrefix(a, b []int) bool {
	if len(a) > len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestExplorePrefixesRejectsDeadPrefix: a forced prefix the scheduler
// cannot follow (a pid never enabled, or a prefix longer than its
// execution) must fail with ErrPrefixNotLive, never silently explore
// the substituted subtree.
func TestExplorePrefixesRejectsDeadPrefix(t *testing.T) {
	factory := func() []ProcFunc { return stepSystem([]int{1, 1}) }
	all := func(*Result) bool { return true }
	for _, root := range [][]int{
		{5},          // pid 5 does not exist
		{0, 0, 0, 0}, // longer than any execution
	} {
		_, err := ExplorePrefixes(factory, 0, [][]int{root}, all)
		if !errors.Is(err, ErrPrefixNotLive) {
			t.Errorf("root %v: err = %v, want ErrPrefixNotLive", root, err)
		}
	}
	// And a live prefix still explores cleanly.
	if _, err := ExplorePrefixes(factory, 0, [][]int{{1}}, all); err != nil {
		t.Errorf("live root: %v", err)
	}
}

// TestExplorePrefixesEmptyRoots pins the no-op contract.
func TestExplorePrefixesEmptyRoots(t *testing.T) {
	n, err := ExplorePrefixes(func() []ProcFunc {
		t.Fatal("factory called with no roots")
		return nil
	}, 0, nil, func(*Result) bool {
		t.Fatal("visit called with no roots")
		return true
	})
	if err != nil || n != 0 {
		t.Fatalf("ExplorePrefixes(nil roots) = %d, %v; want 0, nil", n, err)
	}
}

// TestExplorePrefixesSerialOrder pins the serial contract: over the
// single empty root, ExplorePrefixes visits exactly ExploreAll's
// schedules in the same order, on every call, and a visit that
// returns false after m visits stops it with (m, nil).
func TestExplorePrefixesSerialOrder(t *testing.T) {
	factory := func() []ProcFunc { return stepSystem([]int{2, 2, 1}) }
	var want []string
	if _, err := ExploreAll(factory, 0, func(r *Result) { want = append(want, fingerprint(r)) }); err != nil {
		t.Fatal(err)
	}
	for call := 0; call < 3; call++ {
		var got []string
		n, err := ExplorePrefixes(factory, 0, [][]int{{}}, func(r *Result) bool {
			got = append(got, fingerprint(r))
			return true
		})
		if err != nil || n != len(want) || !equalStrings(got, want) {
			t.Fatalf("call %d: %d runs (%v), visit order differs from ExploreAll's %d:\n%v\n%v",
				call, n, err, len(want), got, want)
		}
	}
	for _, m := range []int{1, 2, len(want) / 2, len(want)} {
		visits := 0
		n, err := ExplorePrefixes(factory, 0, [][]int{{}}, func(r *Result) bool {
			if fingerprint(r) != want[visits] {
				t.Errorf("stop at %d: visit %d is %s, want %s", m, visits, fingerprint(r), want[visits])
			}
			visits++
			return visits < m
		})
		if n != m || err != nil || visits != m {
			t.Fatalf("stop at %d: ExplorePrefixes = %d, %v after %d visits; want %d, nil", m, n, err, visits, m)
		}
	}
}

// TestPartitionRootsDepthZero pins the degenerate whole-tree range.
func TestPartitionRootsDepthZero(t *testing.T) {
	roots, err := PartitionRoots(func() []ProcFunc { return stepSystem([]int{1, 1}) }, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 1 || len(roots[0]) != 0 {
		t.Fatalf("depth-0 roots = %v, want the single empty prefix", roots)
	}
}

// TestPartitionRootsDeterministic: two enumerations of the same system
// carve identical ranges — the property that lets a coordinator and a
// worker agree on the partition without exchanging it.
func TestPartitionRootsDeterministic(t *testing.T) {
	factory := func() []ProcFunc { return stepSystem([]int{2, 3}) }
	a, err := PartitionRoots(factory, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PartitionRoots(factory, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("partitions differ:\n%v\n%v", a, b)
	}
	if len(a) < 2 {
		t.Fatalf("depth-3 partition of a branchy tree has %d roots, want several", len(a))
	}
}
