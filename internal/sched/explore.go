package sched

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
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
// Explore stops early and returns ErrExploreLimit if more than maxRuns
// executions are visited (maxRuns <= 0 means no limit). If visit returns
// false, exploration stops without error. Each visited Result is the
// run's own, but its Schedule is valid only until visit returns. A
// panic in a process is raised again on the caller, as by Run.
func Explore(factory func() []ProcFunc, maxSteps, maxRuns int, visit func(*Result) bool) (int, error) {
	runs := 0
	// frames[d] is the replay record of DFS depth d: a frame's record
	// stays intact while its branches are explored one depth down, and
	// sibling subtrees reuse it. Every replay runs on one kept runner.
	var frames []*Replay
	var rn *runner
	defer func() { rn.stop() }()
	var dfs func(prefix []int, depth int) (bool, error)
	dfs = func(prefix []int, depth int) (bool, error) {
		if maxRuns > 0 && runs >= maxRuns {
			return false, ErrExploreLimit
		}
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
		runs++
		res.Schedule = sch.picks
		if !visit(res) {
			return false, nil
		}
		cont, cerr := true, error(nil)
		expandBranches(sch, len(prefix), func(branch []int) bool {
			cont, cerr = dfs(branch, depth+1)
			return cont && cerr == nil
		})
		return cont, cerr
	}
	_, err := dfs(nil, 0)
	return runs, err
}

// ErrExploreLimit reports that Explore hit its maxRuns bound.
var ErrExploreLimit = fmt.Errorf("sched: exploration run limit reached")

// ErrPrefixNotLive reports that a forced prefix handed to
// ExplorePrefixes is not a live path of the system's decision tree —
// some forced pid was not enabled at its turn, so Replay substituted
// another process and the run left the claimed subtree. Serving such
// a run would double-count executions, so it is an error instead.
var ErrPrefixNotLive = errors.New("sched: forced prefix is not a live path of the decision tree")

// expandBranches enumerates the child prefixes of a completed execution
// from its replay record: one per scheduler branch not taken after the
// forced prefix, deepest decision point first (ordering is irrelevant
// for coverage). It stops early if emit returns false. The serial and
// parallel explorers share this rule — that is what makes their
// coverage identical.
func expandBranches(rec *Replay, prefixLen int, emit func([]int) bool) {
	expandBranchesAlloc(rec, prefixLen, func(n int) []int { return make([]int, n) }, emit)
}

// expandBranchesAlloc is expandBranches with a caller-supplied buffer
// allocator, letting the frontier loop recycle spent prefix buffers
// instead of allocating one per branch.
func expandBranchesAlloc(rec *Replay, prefixLen int, alloc func(int) []int, emit func([]int) bool) {
	for i := len(rec.picks) - 1; i >= prefixLen; i-- {
		chosen := rec.picks[i]
		for _, alt := range rec.set(i) {
			if alt <= chosen {
				continue
			}
			branch := alloc(i + 1)
			copy(branch, rec.picks[:i])
			branch[i] = alt
			if !emit(branch) {
				return
			}
		}
	}
}

// ExploreAll is Explore with visit always continuing and no run limit.
func ExploreAll(factory func() []ProcFunc, maxSteps int, visit func(*Result)) (int, error) {
	return Explore(factory, maxSteps, 0, func(r *Result) bool {
		visit(r)
		return true
	})
}

// Instance is one fresh system build for the parallel explorer: the
// process closures plus a completion callback receiving the run's Result,
// with Schedule set to the run's decision path. Done is always invoked
// under the explorer's lock, so its body may mutate shared state without
// further synchronization. The Result and the replay record behind
// Schedule are pooled: the explorer reuses them for the worker's next
// replay as soon as Done returns, so Done must copy anything it wants to
// keep (values read out of Steps/Outs-style fields are fine; retaining
// the *Result or its slices is not).
type Instance struct {
	Procs []ProcFunc
	Done  func(*Result)
}

// DefaultExploreWorkers is the fan-out ExploreParallel uses when workers
// is zero or negative.
func DefaultExploreWorkers() int { return runtime.GOMAXPROCS(0) }

// ExploreParallel enumerates exactly the executions ExploreAll visits,
// fanning the replay DFS out over disjoint schedule prefixes with a
// bounded pool of worker goroutines. The frontier is a shared stack of
// forced prefixes: a worker pops a prefix, replays one execution under
// it, reports the result, and pushes one child prefix per untaken
// scheduler branch — the same branching rule as the serial DFS, so
// every interleaving is visited exactly once.
//
// factory is called once per execution, possibly from several
// goroutines concurrently, and must build a fully independent system
// (fresh shared memory and closures). Each instance's Done callback
// runs serially under a global lock, but in nondeterministic order:
// only order-insensitive aggregations produce deterministic results.
//
// On an execution error the explorer drains and returns the first
// error; visits already made are not undone. A panic on a worker (in a
// process, the factory or Done) stops the exploration the same way and
// is raised again on the caller's goroutine once every worker has
// stopped, as Run raises a process panic. workers <= 0 means
// DefaultExploreWorkers.
func ExploreParallel(factory func() Instance, maxSteps, workers int) (int, error) {
	return ExplorePrefixes(factory, maxSteps, workers, [][]int{{}})
}

// ExplorePrefixes is ExploreParallel restricted to the subtrees under
// the given forced prefixes: it visits exactly the executions whose
// scheduler-decision sequence extends one of roots. With the single
// empty prefix it is ExploreParallel; with a PartitionRoots partition
// split across calls (or machines), the union of all visits is exactly
// the ExploreAll execution set, each execution visited once — the
// property the distributed sharding layers are built on.
//
// Roots must be live prefixes of the system's decision tree, none a
// strict prefix of another — exactly what PartitionRoots returns (any
// subset or regrouping of one partition qualifies). A root the
// scheduler cannot follow (a forced pid not enabled at its turn)
// fails the exploration with ErrPrefixNotLive rather than silently
// exploring a different subtree; overlap between roots remains the
// caller's contract. An empty roots slice explores nothing and
// returns 0.
func ExplorePrefixes(factory func() Instance, maxSteps, workers int, roots [][]int) (int, error) {
	if len(roots) == 0 {
		return 0, nil
	}
	if workers <= 0 {
		workers = DefaultExploreWorkers()
	}

	var (
		mu       sync.Mutex
		cond     = sync.NewCond(&mu)
		frontier [][]int
		freeBufs [][]int // spent prefix buffers, recycled for branches (mu held)
		pending  int     // prefixes popped but not yet expanded, plus frontier
		runs     int
		firstErr error
		panicked any // the first worker panic, raised again on the caller
	)
	// Copy the seed roots into explorer-owned buffers so every prefix
	// in the frontier — seed or expanded branch — can be recycled
	// without aliasing caller memory.
	for _, root := range roots {
		frontier = append(frontier, append(make([]int, 0, len(root)), root...))
	}
	pending = len(frontier)

	// takeBuf hands out a recycled prefix buffer of length n (mu held).
	// Children are longer than the parents they recycle, so undersized
	// buffers are dropped and the pool converges on tree-height sizes.
	takeBuf := func(n int) []int {
		if k := len(freeBufs); k > 0 {
			b := freeBufs[k-1]
			freeBufs = freeBufs[:k-1]
			if cap(b) >= n {
				return b[:n]
			}
		}
		return make([]int, n)
	}

	// next pops the next prefix to replay, and reports false once the
	// exploration is over or has failed.
	next := func() ([]int, bool) {
		mu.Lock()
		defer mu.Unlock()
		for len(frontier) == 0 && pending > 0 && firstErr == nil && panicked == nil {
			cond.Wait()
		}
		if pending == 0 || firstErr != nil || panicked != nil {
			return nil, false
		}
		prefix := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		return prefix, true
	}

	// fold records the replay of prefix: on err it fails the
	// exploration; otherwise it hands the run to done and pushes one
	// branch per untaken decision. It reports whether to go on. Done
	// runs with mu held, which a panic in it releases.
	fold := func(prefix []int, sch *Replay, res *Result, done func(*Result), err error) bool {
		mu.Lock()
		defer mu.Unlock()
		defer cond.Broadcast()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			pending--
			return false
		}
		runs++
		if done != nil {
			res.Schedule = sch.picks
			done(res)
		}
		expandBranchesAlloc(sch, len(prefix), takeBuf, func(branch []int) bool {
			frontier = append(frontier, branch)
			pending++
			return true
		})
		freeBufs = append(freeBufs, prefix)
		pending--
		return true
	}

	worker := func() {
		// Per-worker pooled replay state: one Result, one kept runner
		// (process goroutines, grant channels, enabled-set buffer), one
		// Replay scheduler (the decision record), reused across every
		// run this worker does. The runner is stopped however the
		// worker ends, a panic included.
		res := &Result{}
		sch := &Replay{}
		var rn *runner
		defer func() { rn.stop() }()
		for {
			prefix, ok := next()
			if !ok {
				return
			}
			inst := factory()
			rn = keptRunner(rn, len(inst.Procs))
			sch.reset(prefix)
			_, err := runInto(Config{Scheduler: sch, MaxSteps: maxSteps}, inst.Procs, res, rn)
			if err == nil && !replayedExactly(sch, prefix) {
				// Only seed roots can fail this: child prefixes are
				// observed paths of the deterministic system. A seed
				// that Replay could not follow is a caller mistake
				// (or a hostile ?prefixes= request upstream).
				err = fmt.Errorf("%w: %v", ErrPrefixNotLive, prefix)
			}
			if !fold(prefix, sch, res, inst.Done, err) {
				return
			}
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					mu.Lock()
					if panicked == nil {
						panicked = rec
					}
					cond.Broadcast()
					mu.Unlock()
				}
			}()
			worker()
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return runs, firstErr
}

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
// cost is one replay run per interior node above the cut — for a
// shallow cut, a vanishing fraction of the exploration it partitions.
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
