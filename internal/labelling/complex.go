package labelling

import (
	"fmt"
	"slices"
)

// procAbs is the abstract per-process state of the Algorithm 6 + labelling
// composition, sufficient to determine all future behaviour: the round in
// progress, the pending operation, the exact count of the other process's
// writes observed (Lemma 8.5: the ring arithmetic computes exactly this),
// the consecutive-solo counter, the path position, the writes performed,
// and the packed history window of the last Δ+1 bits written (bit j of
// Hist is the bit of round W-j).
type procAbs struct {
	Round int
	Phase int // 0 = write pending, 1 = read pending, 2 = done
	C     int
	Pos   int
	W     int
	Hist  uint32
	Final int // round at which the process finished (Phase == 2)
}

type jointAbs struct {
	A, B procAbs
}

// ValueMap is the label→path-position table of the simulated protocol
// complex: the final states of Algorithm 6 over all executions form a
// chromatic path (§8, "protocol graph"); Index orders it from process 0's
// all-solo endpoint. The ε-agreement of Theorem 8.1 decides
// Index[label] / (Len-1), oriented by the inputs.
type ValueMap struct {
	Cfg Alg6Config
	// Index maps each reachable final label to its path position 0..Len-1.
	Index map[Label]int
	// Len is the number of path vertices (distinct final labels).
	Len int
	// PairCount is the number of distinct co-final label pairs (path
	// edges), i.e. distinct complete executions up to indistinguishability.
	PairCount int
}

// BuildValueMap enumerates the reachable joint states of Algorithm 6 (an
// exact breadth-first search of the 2-choice transition graph — which
// process takes the next register operation) and orders the final-state
// complex as a path. It fails if the complex is not a path, which would
// falsify the §8 structure.
func BuildValueMap(cfg Alg6Config) (*ValueMap, error) {
	start := jointAbs{
		A: procAbs{Round: 1, Pos: InitialPos(0)},
		B: procAbs{Round: 1, Pos: InitialPos(1)},
	}
	// adj lists each final label's distinct co-final partners; a path
	// vertex has at most two.
	adj := map[Label][]Label{}
	addEdge := func(a, b Label) {
		if !slices.Contains(adj[a], b) {
			adj[a] = append(adj[a], b)
			adj[b] = append(adj[b], a)
		}
	}

	// Each transition is one register operation, and a process's
	// operation count is 2W minus one while its read is pending, so a
	// joint state fixes its own depth: the state graph is layered and a
	// state can only be rediscovered within its level. The search keeps
	// one level and the next, never every state reached, and reuses
	// their buffers from level to level.
	level, nextLevel := []jointAbs{start}, []jointAbs(nil)
	seen := map[jointAbs]bool{}
	for len(level) > 0 {
		clear(seen)
		nextLevel = nextLevel[:0]
		for _, cur := range level {
			if cur.A.Phase == 2 && cur.B.Phase == 2 {
				la := Label{Pid: 0, Round: cur.A.Final, Pos: cur.A.Pos}
				lb := Label{Pid: 1, Round: cur.B.Final, Pos: cur.B.Pos}
				addEdge(la, lb)
				continue
			}
			for _, actor := range []int{0, 1} {
				next := cur
				var self, other *procAbs
				if actor == 0 {
					self, other = &next.A, &next.B
				} else {
					self, other = &next.B, &next.A
				}
				if self.Phase == 2 {
					continue
				}
				if err := stepAbs(cfg, self, other); err != nil {
					return nil, err
				}
				if !seen[next] {
					seen[next] = true
					nextLevel = append(nextLevel, next)
				}
			}
		}
		level, nextLevel = nextLevel, level
	}

	// The final complex must be a path; order it from process 0's
	// all-solo endpoint (solo from round 1, exits at round Δ, position 0).
	origin := Label{Pid: 0, Round: cfg.Delta, Pos: 0}
	if _, ok := adj[origin]; !ok {
		return nil, fmt.Errorf("labelling: all-solo endpoint %v unreachable", origin)
	}
	if len(adj[origin]) != 1 {
		return nil, fmt.Errorf("labelling: endpoint %v has degree %d", origin, len(adj[origin]))
	}
	index := map[Label]int{origin: 0}
	prev, cur := Label{}, origin
	hasPrev := false
	for i := 1; ; i++ {
		var nxt Label
		found := 0
		for _, nb := range adj[cur] {
			if hasPrev && nb == prev {
				continue
			}
			nxt = nb
			found++
		}
		if found == 0 {
			break // reached the other endpoint
		}
		if found > 1 {
			return nil, fmt.Errorf("labelling: vertex %v has degree > 2; complex is not a path", cur)
		}
		index[nxt] = i
		prev, cur, hasPrev = cur, nxt, true
	}
	if len(index) != len(adj) {
		return nil, fmt.Errorf("labelling: path covers %d of %d vertices; complex disconnected", len(index), len(adj))
	}
	// Every edge joins a process-0 label to a process-1 label, so each
	// co-final pair is counted once from each end.
	degrees := 0
	for _, nbs := range adj {
		degrees += len(nbs)
	}
	return &ValueMap{Cfg: cfg, Index: index, Len: len(index), PairCount: degrees / 2}, nil
}

// stepAbs performs self's pending operation. other is read-only except
// that reads observe its W and Hist.
func stepAbs(cfg Alg6Config, self, other *procAbs) error {
	switch self.Phase {
	case 0: // write of round Round
		bit := uint32(Bit(self.Pos))
		self.Hist = ((self.Hist << 1) | bit) & ((1 << (cfg.Delta + 1)) - 1)
		self.W++
		self.Phase = 1
		return nil
	case 1: // read of round Round
		r := self.Round
		o := other.W // what the ring arithmetic computes (Lemma 8.5)
		sawOther := r <= o
		var bitVal uint64
		if sawOther {
			idx := o - r
			if idx > cfg.Delta {
				return fmt.Errorf("labelling: abstract history index %d > Δ (Corollary 8.2 violated)", idx)
			}
			bitVal = uint64((other.Hist >> idx) & 1)
			self.C = 0
		} else {
			self.C++
		}
		np, err := Step(self.Pos, sawOther, bitVal, Pow3(r-1))
		if err != nil {
			return err
		}
		self.Pos = np
		if self.C == cfg.Delta || r == cfg.R {
			self.Phase = 2
			self.Final = r
			return nil
		}
		self.Round++
		self.Phase = 0
		return nil
	default:
		return fmt.Errorf("labelling: step on finished process")
	}
}

// Value returns the path value of a label as (num, den): its index over
// the path length minus one.
func (vm *ValueMap) Value(l Label) (num, den int, err error) {
	idx, ok := vm.Index[l]
	if !ok {
		return 0, 0, fmt.Errorf("labelling: label %v not in value map", l)
	}
	return idx, vm.Len - 1, nil
}
