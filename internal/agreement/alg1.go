package agreement

import (
	"fmt"

	"repro/internal/memory"
	"repro/internal/sched"
)

// Alg1Bits is the width of the coordination registers used by Algorithm 1.
const Alg1Bits = 1

// Alg1MaxSteps returns the paper's worst-case step complexity of
// Algorithm 1 per process: 2k+3 read/write operations (k loop iterations
// of one write and one read, plus the input write and the two input
// reads).
func Alg1MaxSteps(k int) int { return 2*k + 3 }

// Alg1Den returns the common denominator 2k+1 of all Algorithm 1 outputs.
func Alg1Den(k int) int { return 2*k + 1 }

// NewAlg1Memory returns the shared memory Algorithm 1 runs on: two 1-bit
// SWMR registers (plus the two write-once input registers).
func NewAlg1Memory() *memory.Shared { return memory.New(2, Alg1Bits) }

// Alg1Proc returns the code of process me ∈ {0,1} running the paper's
// Algorithm 1 (approximate agreement protocol A_k for two processes) with
// the given binary input. The decision y = out.Num/out.Den with
// out.Den == 2k+1 is stored through out before the process returns;
// *decided is set once the decision is made.
//
// The protocol solves 1/(2k+1)-agreement wait-free (Proposition 5.1):
// each process alternates writing 0 and 1 into its 1-bit register and
// reads the other register, leaving the loop when it reads the same value
// twice; the exit round's parity determines how the output is interpolated
// between the two inputs.
func Alg1Proc(m *memory.Shared, k int, input uint64, out *Decision, decided *bool) sched.ProcFunc {
	return func(p *sched.Proc) error {
		d, err := Alg1Inline(p, m, k, input)
		if err != nil {
			return err
		}
		*out = d
		*decided = true
		return nil
	}
}

// Alg1Inline runs Algorithm 1 inside an already-scheduled process p, on the
// dedicated 2-process memory m (1-bit registers). It is the form used when
// Algorithm 1 serves as a subprotocol, as in the paper's Algorithm 2 (§5.2)
// where its two per-process registers (the {⊥,0,1} input field and the
// 1-bit coordination bit) account for 3 of the 3 register bits.
func Alg1Inline(p *sched.Proc, m *memory.Shared, k int, input uint64) (Decision, error) {
	if input > 1 {
		return Decision{}, fmt.Errorf("alg1: input %d not binary", input)
	}
	pm := memory.Bind(p, m)
	me, other := p.ID, 1-p.ID
	den := Alg1Den(k)

	// Line 2: publish the input.
	if err := pm.WriteInput(input); err != nil {
		return Decision{}, err
	}

	// Lines 3-7: alternate writing r mod 2, read the other register,
	// break on reading the same value twice.
	prec := uint64(0)
	var newv uint64
	r := 0
	broke := false
	for r = 1; r <= k; r++ {
		if err := pm.Write(uint64(r % 2)); err != nil {
			return Decision{}, err
		}
		nv, err := asWord(pm.Read(other))
		if err != nil {
			return Decision{}, err
		}
		newv = nv
		if newv != prec {
			prec = newv
		} else {
			broke = true
			break
		}
	}
	if !broke {
		r = k
	}

	// Lines 8-9: read both inputs.
	xme, err := asWord(pm.ReadInput(me))
	if err != nil {
		return Decision{}, err
	}
	xotherAny := pm.ReadInput(other)

	// Line 10: same input seen (or none): decide own input.
	if xotherAny == nil {
		return Dec(int(xme)*den, den), nil
	}
	xother, err := asWord(xotherAny)
	if err != nil {
		return Decision{}, err
	}
	if xme == xother {
		return Dec(int(xme)*den, den), nil
	}

	xof := func(who int) uint64 {
		if who == me {
			return xme
		}
		return xother
	}

	// Lines 12-14: the for-loop completed all k iterations normally.
	if r == k && newv == uint64(k%2) {
		var who int
		if r%2 == 0 {
			who = me
		} else {
			who = other
		}
		return Dec(int(xof(who))+k, den), nil
	}

	// Lines 15-17: left the loop after reading the same value twice.
	var who int
	if r%2 == 0 {
		who = other
	} else {
		who = me
	}
	if xof(who) == 0 {
		return Dec(r-1, den), nil
	}
	return Dec(den-(r-1), den), nil
}

// Alg1Run describes one complete execution of Algorithm 1.
type Alg1Run struct {
	Inputs  [2]uint64
	Outs    [2]Decision
	Decided [2]bool
	Result  *sched.Result
	// Mem is the shared memory of the run (for inspecting final register
	// contents, as the Theorem 1.1 pigeonhole experiment does).
	Mem *memory.Shared
}

// FinalRegisters returns the contents of the two coordination registers
// at the end of the execution.
func (ar *Alg1Run) FinalRegisters() [2]uint64 {
	var out [2]uint64
	for i := 0; i < 2; i++ {
		if w, ok := ar.Mem.Peek(i).(uint64); ok {
			out[i] = w
		}
	}
	return out
}

// Check validates the run against the 1/(2k+1)-agreement specification.
func (ar *Alg1Run) Check(k int) error {
	return CheckBinaryEps(ar.Inputs[:], ar.Outs[:], ar.Decided[:], 1, Alg1Den(k))
}

// newAlg1Run builds a fresh Algorithm 1 system: the run record (with its
// own shared memory) and the two process closures wired into it. Every
// runner and explorer goes through it, so every enumeration executes
// identical systems.
func newAlg1Run(k int, inputs [2]uint64) (*Alg1Run, []sched.ProcFunc) {
	m := NewAlg1Memory()
	ar := &Alg1Run{Inputs: inputs, Mem: m}
	return ar, []sched.ProcFunc{
		Alg1Proc(m, k, inputs[0], &ar.Outs[0], &ar.Decided[0]),
		Alg1Proc(m, k, inputs[1], &ar.Outs[1], &ar.Decided[1]),
	}
}

// RunAlg1 executes Algorithm 1 for both processes under the given
// scheduler and returns the run.
func RunAlg1(k int, inputs [2]uint64, scheduler sched.Scheduler) (*Alg1Run, error) {
	ar, procs := newAlg1Run(k, inputs)
	res, err := sched.Run(sched.Config{Scheduler: scheduler}, procs)
	if err != nil {
		return nil, err
	}
	ar.Result = res
	return ar, nil
}

// ExploreAlg1 enumerates every crash-free interleaving of Algorithm 1 for
// the given inputs and calls visit on each completed run. It returns the
// number of executions explored.
func ExploreAlg1(k int, inputs [2]uint64, visit func(*Alg1Run)) (int, error) {
	var cur *Alg1Run
	factory := func() []sched.ProcFunc {
		var procs []sched.ProcFunc
		cur, procs = newAlg1Run(k, inputs)
		return procs
	}
	return sched.ExploreAll(factory, 0, func(r *sched.Result) {
		cur.Result = r
		visit(cur)
	})
}

// ExploreAlg1Prefixes explores exactly the Algorithm 1 executions
// extending the given schedule prefixes (sched.ExplorePrefixes): the
// slice of the exploration space one shard of a distributed run owns.
// Roots come from Alg1Roots; the union of visits over any partition of
// those roots is exactly the ExploreAlg1 execution set, and the single
// empty prefix is the whole tree. visit runs serially under the
// explorer's lock but in nondeterministic order, so it must aggregate
// order-insensitively. workers <= 0 means sched.DefaultExploreWorkers.
func ExploreAlg1Prefixes(k int, inputs [2]uint64, workers int, roots [][]int, visit func(*Alg1Run)) (int, error) {
	factory := func() sched.Instance {
		cur, procs := newAlg1Run(k, inputs)
		return sched.Instance{
			Procs: procs,
			Done: func(r *sched.Result) {
				cur.Result = r
				visit(cur)
			},
		}
	}
	return sched.ExplorePrefixes(factory, 0, workers, roots)
}

// ExploreAlg1Memo is the memoized analogue of ExploreAlg1
// (sched.ExploreMemo): it explores the same schedule tree through the
// canonical-state memo, merging leaf's per-execution contributions
// with merge instead of visiting every execution. The aggregate —
// and the reported execution count — are exactly the exhaustive
// ones, at a fraction of the replays.
//
// leaf runs on each *visited* leaf and must obey the memo contract
// (sched.MemoInstance.Leaf): return a fresh value determined by the
// run's final state, never retain the Alg1Run or its pooled
// Result, and — because the memory's canonical key applies the
// process-relabelling reduction — be invariant under swapping the two
// processes' roles whenever the inputs are equal. merge must be pure
// (sched.MemoOptions.Merge).
func ExploreAlg1Memo(k int, inputs [2]uint64, leaf func(*Alg1Run) any, merge func(a, b any) any) (any, sched.MemoStats, error) {
	return ExploreAlg1MemoPrefixes(k, inputs, [][]int{{}}, leaf, merge)
}

// ExploreAlg1MemoPrefixes is ExploreAlg1Memo restricted to the
// subtrees under the given schedule prefixes
// (sched.ExploreMemoPrefixes): the memoized form of the slice a shard
// of a distributed run owns. The memoized union over any partition of
// Alg1Roots equals the exhaustive whole-tree aggregate.
func ExploreAlg1MemoPrefixes(k int, inputs [2]uint64, roots [][]int, leaf func(*Alg1Run) any, merge func(a, b any) any) (any, sched.MemoStats, error) {
	return sched.ExploreMemoPrefixes(alg1MemoFactory(k, inputs, leaf), sched.MemoOptions{Merge: merge}, roots)
}

// alg1MemoFactory builds the memoized explorer's MemoInstance
// factory: a fresh Algorithm 1 run per instance, fingerprinted by the
// memory's canonical (relabelling-reduced) key, with leaf wrapped to
// see the current run.
func alg1MemoFactory(k int, inputs [2]uint64, leaf func(*Alg1Run) any) func() sched.MemoInstance {
	return func() sched.MemoInstance {
		cur, procs := newAlg1Run(k, inputs)
		inst := sched.MemoInstance{
			Procs: procs,
			State: cur.Mem.CanonicalKey,
		}
		if leaf != nil {
			inst.Leaf = func(r *sched.Result) any {
				cur.Result = r
				defer func() { cur.Result = nil }()
				return leaf(cur)
			}
		}
		return inst
	}
}

// Alg1Roots enumerates the live schedule prefixes of the Algorithm 1
// exploration at the given cut depth (sched.PartitionRoots): the
// deterministic partition a coordinator carves into per-worker ranges.
func Alg1Roots(k int, inputs [2]uint64, depth int) ([][]int, error) {
	factory := func() []sched.ProcFunc {
		_, procs := newAlg1Run(k, inputs)
		return procs
	}
	return sched.PartitionRoots(factory, 0, depth)
}
