package sched

import (
	"errors"
	"fmt"
	"slices"
)

// Explore enumerates every crash-free interleaving of a deterministic
// system and calls visit on each complete execution. Because processes are
// deterministic, the execution space is the tree of scheduler choices; the
// explorer walks it by replay DFS, re-running the system once per leaf
// with a forced prefix of choices.
//
// factory must build a fresh, deterministic instance of the system (fresh
// shared memory and process closures) on every call.
//
// If visit returns false, exploration stops without error. Each visited
// Result is the run's own, but its Schedule is valid only until visit
// returns. A panic in a process is raised again on the caller, as by
// Run. Explore is ExplorePrefixes over the single empty prefix.
func Explore(factory func() []ProcFunc, maxSteps int, visit func(*Result) bool) (int, error) {
	return ExplorePrefixes(factory, maxSteps, [][]int{{}}, visit)
}

// ExploreAll is Explore with visit always continuing.
func ExploreAll(factory func() []ProcFunc, maxSteps int, visit func(*Result)) (int, error) {
	return ExplorePrefixes(factory, maxSteps, [][]int{{}}, func(r *Result) bool {
		visit(r)
		return true
	})
}

// ExplorePrefixes is Explore restricted to the subtrees under the
// given forced prefixes: it visits exactly the executions whose
// scheduler-decision sequence extends one of roots, root by root in
// the order given and each subtree in DFS order, all on the caller's
// goroutine, and stops early, without error, when visit returns
// false. With the single empty prefix it walks the whole tree as
// ExploreAll does; with a PartitionRoots partition split across calls
// (or machines), the union of all visits is exactly the ExploreAll
// execution set, each execution visited once — the property the
// distributed sharding layers are built on. Every explorer is serial:
// a caller that wants several explorations at once runs several
// calls, each over its own factory-built systems.
//
// Roots must be live prefixes of the system's decision tree, none a
// strict prefix of another — exactly what PartitionRoots returns (any
// subset or regrouping of one partition qualifies). A root the
// scheduler cannot follow (a forced pid not enabled at its turn)
// fails the exploration with ErrPrefixNotLive rather than silently
// exploring a different subtree; overlap between roots remains the
// caller's contract. An empty roots slice explores nothing and
// returns 0.
func ExplorePrefixes(factory func() []ProcFunc, maxSteps int, roots [][]int, visit func(*Result) bool) (int, error) {
	runs := 0
	// frames[d] is the replay record of DFS depth d: a frame's record
	// stays intact while its branches are explored one depth down, and
	// sibling subtrees reuse it. Every replay runs on one kept runner.
	var frames []*Replay
	var rn *runner
	defer func() { rn.stop() }()
	var dfs func(prefix []int, depth int) (bool, error)
	dfs = func(prefix []int, depth int) (bool, error) {
		if depth == len(frames) {
			frames = append(frames, &Replay{})
		}
		sch := frames[depth]
		sch.reset(prefix)
		procs := factory()
		rn = keptRunner(rn, len(procs))
		res, err := runInto(Config{Scheduler: sch, MaxSteps: maxSteps}, procs, nil, rn)
		if err != nil {
			return false, err
		}
		if depth == 0 && !replayedExactly(sch, prefix) {
			// Only a root can fail this: deeper prefixes are observed
			// paths of the deterministic system. A root that Replay
			// could not follow is a caller mistake.
			return false, fmt.Errorf("%w: %v", ErrPrefixNotLive, prefix)
		}
		runs++
		res.Schedule = sch.picks
		if !visit(res) {
			return false, nil
		}
		// One child prefix per scheduler branch not taken after the
		// forced prefix, deepest decision point first.
		for i := len(sch.picks) - 1; i >= len(prefix); i-- {
			chosen := sch.picks[i]
			for _, alt := range sch.set(i) {
				if alt <= chosen {
					continue
				}
				branch := make([]int, i+1)
				copy(branch, sch.picks[:i])
				branch[i] = alt
				if cont, err := dfs(branch, depth+1); !cont || err != nil {
					return cont, err
				}
			}
		}
		return true, nil
	}
	for _, root := range roots {
		if cont, err := dfs(root, 0); !cont || err != nil {
			return runs, err
		}
	}
	return runs, nil
}

// ErrPrefixNotLive reports that a forced prefix handed to
// ExplorePrefixes is not a live path of the system's decision tree —
// some forced pid was not enabled at its turn, so Replay substituted
// another process and the run left the claimed subtree. Serving such
// a run would double-count executions, so it is an error instead.
var ErrPrefixNotLive = errors.New("sched: forced prefix is not a live path of the decision tree")

// replayedExactly reports whether an execution actually took every
// step of its forced prefix — the witness that the prefix is a live
// path and the run stayed inside the claimed subtree.
func replayedExactly(rec *Replay, prefix []int) bool {
	return len(rec.picks) >= len(prefix) && slices.Equal(rec.picks[:len(prefix)], prefix)
}

// PartitionRoots enumerates the live prefixes of the decision tree at
// the given cut depth: every prefix of exactly depth scheduler choices
// that some execution realizes, plus the full decision sequence of any
// execution that terminates in fewer than depth choices. The returned
// roots are pairwise prefix-free and their subtrees partition the
// ExploreAll execution set, so a coordinator can carve them into
// disjoint ranges, hand each range to ExplorePrefixes on a different
// worker, and know the union of visits is the whole space.
//
// Roots are returned in deterministic DFS order (enabled sets are
// sorted), so every caller carves the same tree identically. depth <=
// 0 returns the single empty prefix (the whole tree as one range); a
// depth beyond the tree height returns one root per execution. The
// cost is one replay of a freshly built system per interior node above
// the cut: a vanishing fraction of an exhaustive exploration, but not
// of a memoized one — E2's depth-5 carve (32 replays, BenchmarkCarve)
// costs about a fifth of E2's whole memoized exploration.
func PartitionRoots(factory func() []ProcFunc, maxSteps, depth int) ([][]int, error) {
	if depth <= 0 {
		return [][]int{{}}, nil
	}
	var roots [][]int
	// Every replay runs on one kept runner into one Result; each keeps
	// its own record, which the descent below it reads.
	res := &Result{}
	var rn *runner
	defer func() { rn.stop() }()
	replay := func(prefix []int) (*Replay, error) {
		rec := &Replay{Prefix: prefix}
		procs := factory()
		rn = keptRunner(rn, len(procs))
		_, err := runInto(Config{Scheduler: rec, MaxSteps: maxSteps}, procs, res, rn)
		return rec, err
	}
	var descend func(prefix []int, rec *Replay) error
	descend = func(prefix []int, rec *Replay) error {
		if len(prefix) >= depth || len(rec.picks) <= len(prefix) {
			// At the cut, or the execution ends here: this prefix's
			// subtree is one partition cell.
			roots = append(roots, prefix)
			return nil
		}
		for _, pid := range rec.set(len(prefix)) {
			child := append(prefix[:len(prefix):len(prefix)], pid)
			crec := rec
			if pid != rec.picks[len(prefix)] {
				// Off the observed path: replay the sibling branch.
				var err error
				if crec, err = replay(child); err != nil {
					return err
				}
			}
			if err := descend(child, crec); err != nil {
				return err
			}
		}
		return nil
	}
	rec, err := replay(nil)
	if err != nil {
		return nil, err
	}
	if err := descend(nil, rec); err != nil {
		return nil, err
	}
	return roots, nil
}
