// Package impossibility makes the Theorem 1.1 lower bound (§3.1, §4)
// constructive: when more than half of the processes may crash, bounded
// registers cap the achievable ε of approximate agreement.
//
// Impossibility cannot be "run", but the proof's combinatorial core can:
//
//   - the execution graph of a 2-process protocol restricted to inputs
//     (0,1) connects the two solo vertices by a path along which outputs
//     move by at most ε (else the processes would solve consensus,
//     contradicting Lemma 2.1);
//   - a register of s bits takes at most 2^s values, so across the path's
//     Ω(1/ε) output classes, two executions with far-apart outputs leave
//     identical register contents (pigeonhole on 2^{2s} memory states);
//   - a third process arriving after those executions reads only the
//     registers, cannot tell the two apart, and any decision it makes is
//     ≥ 2ε away from some already-decided output — violating
//     ε-agreement.
//
// The package exhibits all three steps on Algorithm 1 (whose coordination
// registers have s = 1 bit) and produces the counting table of
// Proposition 4.1 for general widths.
package impossibility

import (
	"fmt"
	"sort"

	"repro/internal/agreement"
)

// Vertex is a final protocol state in the execution graph: process Pid
// decided output Num (over the protocol's common denominator).
type Vertex struct {
	Pid int
	Num int
}

// ExecutionGraph is the graph G of §3.1 for Algorithm 1 with inputs
// (0,1): vertices are (process, decision) pairs, edges join decisions
// that co-occur in some execution.
type ExecutionGraph struct {
	// K is the Algorithm 1 parameter; Den = 2k+1.
	K, Den int
	// Adj is the adjacency structure.
	Adj map[Vertex]map[Vertex]bool
	// Executions counts the interleavings enumerated.
	Executions int
}

// outcome is what this package reads from one Algorithm 1 execution
// with inputs (0,1) in which both processes decided: the two decision
// numerators and the final coordination registers.
type outcome struct {
	nums [2]int
	mem  MemoryState
}

// outcomeSet is the memo aggregate of a subtree: its distinct outcomes.
type outcomeSet map[outcome]struct{}

// outcomes explores every interleaving of Algorithm 1 with k rounds and
// inputs (0,1) through the canonical-state memo
// (agreement.ExploreAlg1Memo), returning the distinct outcomes and the
// number of executions accounted.
//
// An outcome tells p0 from p1, which the memo's process-relabelling
// reduction allows only because it never merges a state with its
// mirror image here: each process's first step writes its input,
// memory.Component folds that input into the process's component, and
// the inputs differ, so every reachable state but the initial one
// pins which component is whose.
func outcomes(k int) (outcomeSet, int, error) {
	leaf := func(ar *agreement.Alg1Run) any {
		set := outcomeSet{}
		if ar.Decided[0] && ar.Decided[1] {
			set[outcome{nums: [2]int{ar.Outs[0].Num, ar.Outs[1].Num}, mem: ar.FinalRegisters()}] = struct{}{}
		}
		return set
	}
	// merge builds a fresh set: both arguments stay live as memo entries.
	merge := func(a, b any) any {
		out := make(outcomeSet, len(a.(outcomeSet))+len(b.(outcomeSet)))
		for o := range a.(outcomeSet) {
			out[o] = struct{}{}
		}
		for o := range b.(outcomeSet) {
			out[o] = struct{}{}
		}
		return out
	}
	agg, stats, err := agreement.ExploreAlg1Memo(k, [2]uint64{0, 1}, leaf, merge)
	if err != nil {
		return nil, 0, err
	}
	set, _ := agg.(outcomeSet)
	return set, stats.Executions, nil
}

// BuildAlg1Graph enumerates every interleaving of Algorithm 1 with
// k rounds and inputs (0,1), building the execution graph.
func BuildAlg1Graph(k int) (*ExecutionGraph, error) {
	set, runs, err := outcomes(k)
	if err != nil {
		return nil, err
	}
	g := &ExecutionGraph{K: k, Den: agreement.Alg1Den(k), Adj: map[Vertex]map[Vertex]bool{}, Executions: runs}
	for o := range set {
		a := Vertex{Pid: 0, Num: o.nums[0]}
		b := Vertex{Pid: 1, Num: o.nums[1]}
		if g.Adj[a] == nil {
			g.Adj[a] = map[Vertex]bool{}
		}
		if g.Adj[b] == nil {
			g.Adj[b] = map[Vertex]bool{}
		}
		g.Adj[a][b] = true
		g.Adj[b][a] = true
	}
	return g, nil
}

// SoloVertices returns v1 = (p0 solo, 0) and v2 = (p1 solo, 1): the
// endpoints the connectivity argument needs (a solo process decides its
// own input, Lemma 5.6).
func (g *ExecutionGraph) SoloVertices() (Vertex, Vertex) {
	return Vertex{Pid: 0, Num: 0}, Vertex{Pid: 1, Num: g.Den}
}

// Path returns a path from v1 to v2 in the graph, or nil if disconnected
// (which would let the two processes solve consensus — impossible by
// Lemma 2.1).
func (g *ExecutionGraph) Path() []Vertex {
	v1, v2 := g.SoloVertices()
	prev := map[Vertex]Vertex{v1: v1}
	queue := []Vertex{v1}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == v2 {
			var path []Vertex
			for at := v2; ; at = prev[at] {
				path = append([]Vertex{at}, path...)
				if prev[at] == at {
					return path
				}
			}
		}
		var nbs []Vertex
		for nb := range g.Adj[cur] {
			nbs = append(nbs, nb)
		}
		sort.Slice(nbs, func(a, b int) bool {
			if nbs[a].Pid != nbs[b].Pid {
				return nbs[a].Pid < nbs[b].Pid
			}
			return nbs[a].Num < nbs[b].Num
		})
		for _, nb := range nbs {
			if _, ok := prev[nb]; !ok {
				prev[nb] = cur
				queue = append(queue, nb)
			}
		}
	}
	return nil
}

// MemoryState is the observable content of the coordination registers
// (R1, R2) after both processes decided. The input registers hold (0,1)
// in every enumerated execution, so they add no information.
type MemoryState [2]uint64

// Collision groups the output pairs of executions that end in the same
// memory state: everything a late third process can distinguish.
type Collision struct {
	Mem MemoryState
	// Pairs lists the distinct (p0, p1) output-numerator pairs observed.
	Pairs [][2]int
	// MinNum and MaxNum bound the outputs across all pairs.
	MinNum, MaxNum int
}

// Gap is MaxNum - MinNum: twice the error a third process is forced to
// make (in units of 1/(2k+1)), since its decision is fixed per memory
// state while outputs Gap apart are both possible.
func (c Collision) Gap() int { return c.MaxNum - c.MinNum }

// FindCollisions enumerates Algorithm 1 executions with inputs (0,1) and
// groups them by final memory state, sorted by descending gap.
func FindCollisions(k int) ([]Collision, error) {
	set, _, err := outcomes(k)
	if err != nil {
		return nil, err
	}
	byMem := map[MemoryState]*Collision{}
	for o := range set {
		c := byMem[o.mem]
		if c == nil {
			c = &Collision{Mem: o.mem, MinNum: 1 << 30, MaxNum: -1}
			byMem[o.mem] = c
		}
		c.Pairs = append(c.Pairs, o.nums)
		c.MinNum = min(c.MinNum, o.nums[0], o.nums[1])
		c.MaxNum = max(c.MaxNum, o.nums[0], o.nums[1])
	}
	out := make([]Collision, 0, len(byMem))
	for _, c := range byMem {
		sort.Slice(c.Pairs, func(a, b int) bool {
			if c.Pairs[a][0] != c.Pairs[b][0] {
				return c.Pairs[a][0] < c.Pairs[b][0]
			}
			return c.Pairs[a][1] < c.Pairs[b][1]
		})
		out = append(out, *c)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Gap() != out[b].Gap() {
			return out[a].Gap() > out[b].Gap()
		}
		return out[a].Mem[0]*2+out[a].Mem[1] < out[b].Mem[0]*2+out[b].Mem[1]
	})
	return out, nil
}

// WorstCollision returns the memory state with the largest output gap.
func WorstCollision(k int) (Collision, error) {
	cs, err := FindCollisions(k)
	if err != nil {
		return Collision{}, err
	}
	if len(cs) == 0 {
		return Collision{}, fmt.Errorf("impossibility: no executions enumerated")
	}
	return cs[0], nil
}

// AchievableOutputSets verifies Claim 4.1 constructively for Algorithm 1
// with inputs (0,1): for every m ∈ {0..2k}, some execution's output set
// is exactly the adjacent pair {m, m+1} (over denominator 2k+1). This is
// the family of mutually exclusive output classes the pigeonhole
// argument counts. It returns achieved[m] for m = 0..2k: index m
// reports the pair {m, m+1}.
func AchievableOutputSets(k int) ([]bool, error) {
	set, _, err := outcomes(k)
	if err != nil {
		return nil, err
	}
	achieved := make([]bool, agreement.Alg1Den(k)) // pair {m, m+1} for m = 0..2k
	for o := range set {
		a, b := min(o.nums[0], o.nums[1]), max(o.nums[0], o.nums[1])
		if b == a+1 {
			achieved[a] = true
		}
	}
	return achieved, nil
}

// CountingRow is one row of the Proposition 4.1 pigeonhole table.
type CountingRow struct {
	// Bits is the register width f(n).
	Bits int
	// N and T are the system parameters (t > n/2 required for the bound).
	N, T int
	// States is the number of distinguishable memory contents of the
	// n-t+1 registers the early processes write: 2^{Bits·(n-t+1)}.
	States uint64
	// KThreshold is the paper's k = 2·States + 1: with ε = 1/k, the
	// k+1 mutually exclusive output classes outnumber the memory states
	// and a collision is forced.
	KThreshold uint64
}

// EpsFloorDen returns the denominator of the forced ε floor: ε-agreement
// with ε < 1/KThreshold is unsolvable with Bits-bit registers.
func (r CountingRow) EpsFloorDen() uint64 { return r.KThreshold }

// CountingTable builds the pigeonhole table for widths 1..maxBits.
func CountingTable(n, t, maxBits int) ([]CountingRow, error) {
	if 2*t <= n {
		return nil, fmt.Errorf("impossibility: need t > n/2, got n=%d t=%d", n, t)
	}
	rows := make([]CountingRow, 0, maxBits)
	for s := 1; s <= maxBits; s++ {
		writers := n - t + 1
		states := uint64(1) << (s * writers)
		rows = append(rows, CountingRow{
			Bits: s, N: n, T: t,
			States:     states,
			KThreshold: 2*states + 1,
		})
	}
	return rows, nil
}
