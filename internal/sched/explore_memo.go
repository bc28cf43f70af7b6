package sched

import (
	"errors"
	"fmt"
)

// This file implements the memoized exploration mode: a replay DFS
// that consults a visited-set keyed by (canonical state, depth) and
// prunes subtrees whose aggregate contribution is already known.
//
// The exhaustive explorers replay the system once per leaf. The
// memoized explorer replays once per *node*: a recorder scheduler
// fingerprints the global state (via the instance's State seam) at
// every decision point past the forced prefix, and the moment a
// fingerprint is found in the memo the run halts — the common prefix
// is never re-run to a leaf, the memo supplies the whole subtree's
// contribution and leaf count. Unexplored sibling branches are then
// descended bottom-up, and the completed contribution of every node
// on the path is stored at its depth on the way back. Determinism
// makes this sound: equal canonical state at equal depth implies an
// isomorphic remaining subtree, so contributions transfer — exactly
// (for states reached by commuting independent steps) or up to
// process relabelling (when the State seam applies the symmetry
// reduction, see Canonicalizer), which is why Leaf contributions and
// Merge must be relabelling-invariant for reduced systems.

// MemoInstance is one system in its initial state, as the memoized
// explorer's factory returns it for a replay: a fresh build, or the
// previous replay's instance reset in place. The explorer is done with
// an instance before it calls the factory again — every process has
// returned or unwound, and the replay's State and Leaf calls have
// returned — so a factory may keep one system for a whole exploration.
type MemoInstance struct {
	// Procs are the process closures, as for the other explorers.
	Procs []ProcFunc
	// State fingerprints the instance's current global state. It is
	// called by the explorer only while every live process is parked
	// between steps (from the scheduler's Next hook, and once after
	// the run completes), so it may read shared state freely.
	// Required.
	State func() StateKey
	// Leaf extracts one complete execution's contribution to the
	// exploration's aggregate. The Result, with Schedule set to the
	// execution's decision path, is pooled — Leaf must not retain it or
	// its slices — and the returned value becomes shared
	// immutable memo state: it must be fresh on every call, must be
	// determined by the leaf's canonical state, and is never mutated
	// by the explorer afterwards. Nil Leaf — or a Leaf used only for
	// per-execution validation, returning nil — explores for the
	// counts alone.
	Leaf func(*Result) any
}

// MemoOptions configures a memoized exploration.
type MemoOptions struct {
	// MaxSteps bounds each replay as in Config (0 = DefaultMaxSteps).
	MaxSteps int
	// Merge combines two subtree contributions into a new value. It
	// must be pure: no mutation of either argument (they remain live
	// as memoized contributions of other nodes), associativity and
	// commutativity up to the final aggregate's equality — the same
	// order-insensitivity merging a sharded run's ranges demands.
	// Required whenever Leaf returns non-nil contributions.
	Merge func(a, b any) any
}

// MemoStats counts the work a memoized exploration did and saved.
type MemoStats struct {
	// Executions is the number of leaves of the exhaustive tree the
	// aggregate accounts for — equal to the run count ExploreAll
	// would report.
	Executions int
	// Replays is the number of system runs actually performed (one
	// per explored node, halted early on memo hits). The memoized
	// win is Replays ≪ Executions·avg-depth replay steps.
	Replays int
	// StatesVisited is the number of distinct (canonical state,
	// depth) nodes stored in the memo.
	StatesVisited int
	// StatesPruned is the number of subtrees reused from the memo
	// instead of re-explored.
	StatesPruned int
}

// errMemoState reports a MemoInstance without the required State seam.
var errMemoState = errors.New("sched: MemoInstance.State is required")

// memoKey identifies a node of the schedule tree up to canonical-state
// equivalence: same fingerprint at the same depth ⇒ same subtree
// contribution (depth pins the remaining step budget).
type memoKey struct {
	state StateKey
	depth int
}

// memoEntry is a completed node: its subtree's merged contribution and
// leaf count. contrib is immutable once stored.
type memoEntry struct {
	contrib any
	leaves  int
}

// memoProbe is the recorder scheduler of one replay: it forces the
// prefix, records the canonical state at every decision point at or
// past the prefix, and halts the run the moment a state is already in
// the memo. The decisions it lets through are recorded by its replay,
// whose record gives the DFS the path taken and the branches not.
type memoProbe struct {
	replay Replay
	state  func() StateKey
	memo   map[memoKey]memoEntry
	from   int // depth of the first decision not forced by the prefix
	depth  int
	keys   []StateKey // keys[d-from] is the state before decision d
	hit    bool
	entry  memoEntry
}

// reset rearms a pooled probe for one replay under prefix, keying
// decision points with state.
func (m *memoProbe) reset(prefix []int, state func() StateKey) {
	m.replay.reset(prefix)
	m.state, m.from, m.depth = state, len(prefix), 0
	m.keys, m.hit, m.entry = m.keys[:0], false, memoEntry{}
}

func (m *memoProbe) Next(enabled []int) Decision {
	if m.depth >= m.from {
		k := m.state()
		if e, ok := m.memo[memoKey{state: k, depth: m.depth}]; ok {
			m.hit, m.entry = true, e
			return Decision{Pid: Halt}
		}
		m.keys = append(m.keys, k)
	}
	m.depth++
	return m.replay.Next(enabled)
}

// ExploreMemo explores the whole schedule tree of a deterministic
// system in memoized mode, returning the merged contribution of every
// leaf, the exploration counters, and the first error. factory must
// return a fully deterministic instance in its initial state on every
// call; it may return the previous instance reset in place (see
// MemoInstance).
func ExploreMemo(factory func() MemoInstance, opts MemoOptions) (any, MemoStats, error) {
	return ExploreMemoPrefixes(factory, opts, [][]int{{}})
}

// ExploreMemoPrefixes is ExploreMemo restricted to the subtrees under
// the given forced prefixes (the memoized analogue of
// ExplorePrefixes): the aggregate covers exactly the executions whose
// decision sequence extends one of roots, each counted once. Roots
// follow the ExplorePrefixes contract — live, pairwise prefix-free
// (PartitionRoots output qualifies); a root the scheduler cannot
// follow fails with ErrPrefixNotLive. The memoized union over any
// partition of roots equals the exhaustive whole-tree aggregate,
// which is what lets the sharded layers adopt the mode slice by
// slice. An empty roots slice explores nothing. factory follows the
// ExploreMemo contract, across roots as within one.
func ExploreMemoPrefixes(factory func() MemoInstance, opts MemoOptions, roots [][]int) (any, MemoStats, error) {
	var stats MemoStats
	if len(roots) == 0 {
		return nil, stats, nil
	}

	memo := make(map[memoKey]memoEntry)
	var mergeErr error
	mergeInto := func(into, from any) any {
		switch {
		case from == nil:
			return into
		case into == nil:
			return from
		case opts.Merge == nil:
			// Leaves that only validate (returning nil) need no Merge;
			// combining real contributions without one is a mistake.
			if mergeErr == nil {
				mergeErr = errors.New("sched: MemoOptions.Merge is required to combine non-nil Leaf contributions")
			}
			return into
		default:
			return opts.Merge(into, from)
		}
	}

	// Replay state: a frame's probe (its decision record and state
	// keys) is read while its branches are explored, so probes are
	// pooled per active DFS frame and recycled across sibling subtrees.
	// The Result and the runner are idle once a replay's Leaf has run,
	// so the whole DFS shares one of each: one kept runner whose
	// process goroutines serve every replay, stopped however the
	// exploration returns.
	res := &Result{}
	var rn *runner
	defer func() { rn.stop() }()
	var freeProbe []*memoProbe
	getProbe := func() *memoProbe {
		if k := len(freeProbe); k > 0 {
			p := freeProbe[k-1]
			freeProbe = freeProbe[:k-1]
			return p
		}
		return &memoProbe{memo: memo}
	}
	// branches[n] is the one buffer every forced prefix of length n is
	// built in. Prefixes strictly lengthen down the active recursion, so
	// no live frame's prefix shares a buffer with a deeper one, and
	// nothing reads a prefix after its dfs returns (a pooled probe's
	// Replay.Prefix is overwritten by its next reset), so siblings reuse
	// it.
	var branches [][]int
	branchBuf := func(n int) []int {
		for len(branches) <= n {
			branches = append(branches, make([]int, len(branches)))
		}
		return branches[n]
	}

	var dfs func(prefix []int, seed bool) (any, int, error)
	dfs = func(prefix []int, seed bool) (any, int, error) {
		inst := factory()
		if inst.State == nil {
			return nil, 0, errMemoState
		}
		probe := getProbe()
		probe.reset(prefix, inst.State)
		rec := &probe.replay
		rn = keptRunner(rn, len(inst.Procs))
		if _, err := runInto(Config{Scheduler: probe, MaxSteps: opts.MaxSteps}, inst.Procs, res, rn); err != nil {
			return nil, 0, err
		}
		stats.Replays++
		if seed && !replayedExactly(rec, prefix) {
			return nil, 0, fmt.Errorf("%w: %v", ErrPrefixNotLive, prefix)
		}

		// top is the depth the replay reached: the depth of the memo
		// hit, or the leaf's depth on a complete execution.
		top := len(rec.picks)
		var contrib any
		var leaves int
		if probe.hit {
			stats.StatesPruned++
			contrib, leaves = probe.entry.contrib, probe.entry.leaves
		} else {
			// A complete execution: one leaf. Store its terminal state
			// too, so sibling paths converging on it halt immediately.
			// (The probe never fingerprints terminal states — they have
			// no decision point — so an equivalent leaf may already be
			// stored; keep the first.)
			if inst.Leaf != nil {
				res.Schedule = rec.picks
				contrib = inst.Leaf(res)
			}
			leaves = 1
			tk := memoKey{state: inst.State(), depth: top}
			if _, ok := memo[tk]; !ok {
				memo[tk] = memoEntry{contrib: contrib, leaves: leaves}
				stats.StatesVisited++
			}
		}

		// Bottom-up: descend every untaken branch below each decision
		// point, deepest first, folding sibling subtrees into this
		// path's contribution; each node's completed entry is stored at
		// its depth. Sibling recursions store only at depths strictly
		// below their own prefix length (> i), so no entry written here
		// is ever overwritten.
		for i := top - 1; i >= len(prefix); i-- {
			chosen := rec.picks[i]
			for _, alt := range rec.set(i) {
				if alt <= chosen {
					continue
				}
				branch := branchBuf(i + 1)
				copy(branch, rec.picks[:i])
				branch[i] = alt
				sub, subLeaves, err := dfs(branch, false)
				if err != nil {
					return nil, 0, err
				}
				contrib = mergeInto(contrib, sub)
				leaves += subLeaves
			}
			memo[memoKey{state: probe.keys[i-len(prefix)], depth: i}] = memoEntry{contrib: contrib, leaves: leaves}
			stats.StatesVisited++
		}

		freeProbe = append(freeProbe, probe)
		return contrib, leaves, nil
	}

	var total any
	for _, root := range roots {
		contrib, leaves, err := dfs(root, true)
		if err == nil {
			err = mergeErr
		}
		if err != nil {
			return nil, stats, err
		}
		total = mergeInto(total, contrib)
		stats.Executions += leaves
	}
	if mergeErr != nil {
		return nil, stats, mergeErr
	}
	return total, stats, nil
}
