package sched

import (
	"errors"
	"fmt"
	"runtime"
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
// false, exploration stops without error.
func Explore(factory func() []ProcFunc, maxSteps, maxRuns int, visit func(*Result) bool) (int, error) {
	runs := 0
	var dfs func(prefix []int) (bool, error)
	dfs = func(prefix []int) (bool, error) {
		if maxRuns > 0 && runs >= maxRuns {
			return false, ErrExploreLimit
		}
		sch := &Replay{Prefix: prefix}
		res, err := Run(Config{Scheduler: sch, MaxSteps: maxSteps}, factory())
		if err != nil {
			return false, err
		}
		runs++
		if !visit(res) {
			return false, nil
		}
		cont, cerr := true, error(nil)
		expandBranches(res, len(prefix), func(branch []int) bool {
			cont, cerr = dfs(branch)
			return cont && cerr == nil
		})
		return cont, cerr
	}
	_, err := dfs(nil)
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

// expandBranches enumerates the child prefixes of a completed execution:
// one per scheduler branch not taken after the forced prefix, deepest
// decision point first (ordering is irrelevant for coverage). It stops
// early if emit returns false. The serial and parallel explorers share
// this rule — that is what makes their coverage identical.
func expandBranches(res *Result, prefixLen int, emit func([]int) bool) {
	expandBranchesAlloc(res, prefixLen, func(n int) []int { return make([]int, n) }, emit)
}

// expandBranchesAlloc is expandBranches with a caller-supplied buffer
// allocator, letting the frontier loop recycle spent prefix buffers
// instead of allocating one per branch.
func expandBranchesAlloc(res *Result, prefixLen int, alloc func(int) []int, emit func([]int) bool) {
	for i := len(res.Decisions) - 1; i >= prefixLen; i-- {
		chosen := res.Decisions[i].Pid
		for _, alt := range res.EnabledSets[i] {
			if alt <= chosen {
				continue
			}
			branch := alloc(i + 1)
			for j := 0; j < i; j++ {
				branch[j] = res.Decisions[j].Pid
			}
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
// process closures plus a completion callback receiving the run's Result.
// Done is always invoked under the explorer's lock, so its body may
// mutate shared state without further synchronization. The Result is
// pooled: the explorer reuses it for the worker's next replay as soon
// as Done returns, so Done must copy anything it wants to keep (values
// read out of Steps/Outs-style fields are fine; retaining the *Result
// or its slices is not).
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
// error; visits already made are not undone. workers <= 0 means
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

	worker := func() {
		// Per-worker pooled replay state: one Result (decision and
		// enabled-set buffers), one runner (grant channels), one
		// Replay scheduler, reused across every run this worker does.
		res := &Result{}
		sch := &Replay{}
		var rn *runner
		for {
			mu.Lock()
			for len(frontier) == 0 && pending > 0 && firstErr == nil {
				cond.Wait()
			}
			if pending == 0 || firstErr != nil {
				mu.Unlock()
				return
			}
			prefix := frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			mu.Unlock()

			inst := factory()
			if rn == nil || rn.n != len(inst.Procs) {
				rn = newRunner(len(inst.Procs))
			}
			sch.Prefix, sch.pos = prefix, 0
			_, err := runInto(Config{Scheduler: sch, MaxSteps: maxSteps}, inst.Procs, res, rn)
			if err == nil && !replayedExactly(res, prefix) {
				// Only seed roots can fail this: child prefixes are
				// observed paths of the deterministic system. A seed
				// that Replay could not follow is a caller mistake
				// (or a hostile ?prefixes= request upstream).
				err = fmt.Errorf("%w: %v", ErrPrefixNotLive, prefix)
			}

			mu.Lock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				pending--
				cond.Broadcast()
				mu.Unlock()
				return
			}
			runs++
			if inst.Done != nil {
				inst.Done(res)
			}
			expandBranchesAlloc(res, len(prefix), takeBuf, func(branch []int) bool {
				frontier = append(frontier, branch)
				pending++
				return true
			})
			freeBufs = append(freeBufs, prefix)
			pending--
			cond.Broadcast()
			mu.Unlock()
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker()
		}()
	}
	wg.Wait()
	return runs, firstErr
}

// replayedExactly reports whether an execution actually took every
// step of its forced prefix — the witness that the prefix is a live
// path and the run stayed inside the claimed subtree.
func replayedExactly(res *Result, prefix []int) bool {
	if len(res.Decisions) < len(prefix) {
		return false
	}
	for i, pid := range prefix {
		if res.Decisions[i].Pid != pid {
			return false
		}
	}
	return true
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
	var descend func(prefix []int, res *Result) error
	descend = func(prefix []int, res *Result) error {
		if len(prefix) >= depth || len(res.Decisions) <= len(prefix) {
			// At the cut, or the execution ends here: this prefix's
			// subtree is one partition cell.
			roots = append(roots, prefix)
			return nil
		}
		for _, pid := range res.EnabledSets[len(prefix)] {
			child := append(prefix[:len(prefix):len(prefix)], pid)
			cres := res
			if pid != res.Decisions[len(prefix)].Pid {
				// Off the observed path: replay the sibling branch.
				r, err := Run(Config{Scheduler: &Replay{Prefix: child}, MaxSteps: maxSteps}, factory())
				if err != nil {
					return err
				}
				cres = r
			}
			if err := descend(child, cres); err != nil {
				return err
			}
		}
		return nil
	}
	res, err := Run(Config{Scheduler: &Replay{}, MaxSteps: maxSteps}, factory())
	if err != nil {
		return nil, err
	}
	if err := descend(nil, res); err != nil {
		return nil, err
	}
	return roots, nil
}
