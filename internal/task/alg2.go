package task

import (
	"fmt"

	"repro/internal/agreement"
	"repro/internal/memory"
	"repro/internal/sched"
)

// Alg2Bits is the number of coordination-register bits per process used by
// Algorithm 2: the 1-bit alternating register of the ε-agreement
// subprotocol plus its {⊥,0,1} input field (2 bits), per §5.2.3. Task
// inputs travel through the write-once input registers, which carry no
// width restriction.
const Alg2Bits = 3

// Alg2System is one instance of Algorithm 2: the plan shared by both
// processes plus the shared memories. The ε-agreement subprotocol runs on
// its own 2-register memory of 1-bit registers (its {⊥,0,1} input field is
// the subprotocol's write-once register); per §2 a constant number of
// SWMR registers per process is emulated by a single register, giving the
// 3-bit bound.
type Alg2System struct {
	Plan *Plan
	// memTask carries the task input registers I_1, I_2 (write-once).
	memTask *memory.Shared
	// memAgree carries Algorithm 1's registers.
	memAgree *memory.Shared

	Outs    [2]int
	Decided [2]bool
}

// NewAlg2System builds a fresh instance for one execution.
func NewAlg2System(plan *Plan) *Alg2System {
	return &Alg2System{
		Plan:     plan,
		memTask:  memory.New(2, 1), // coordination registers unused; only I_i
		memAgree: memory.New(2, agreement.Alg1Bits),
	}
}

// StateKey fingerprints the system's global state for the memoized
// explorer (sched.ExploreMemo): each process's component combines its
// observation history and register contents across both shared
// memories, and the canonicalizer applies the process-relabelling
// reduction over the combined components. A process's local state —
// including a decided output — is a function of the fixed plan, its
// input, and its joint observation history, all of which the
// components capture, so equal keys at equal depth imply isomorphic
// continuations.
func (s *Alg2System) StateKey() sched.StateKey {
	var c sched.Canonicalizer
	for i := 0; i < 2; i++ {
		c.Proc(sched.MixKey(s.memTask.Component(i), s.memAgree.Component(i)))
	}
	return c.Key()
}

// Proc returns the code of process me ∈ {0,1} with the given task input.
func (s *Alg2System) Proc(me int, input int) sched.ProcFunc {
	return func(p *sched.Proc) error {
		if p.ID != me {
			return fmt.Errorf("alg2: process handle %d for code %d", p.ID, me)
		}
		out, err := s.run(p, input)
		if err != nil {
			return err
		}
		s.Outs[me] = out
		s.Decided[me] = true
		return nil
	}
}

func (s *Alg2System) run(p *sched.Proc, input int) (int, error) {
	plan := s.Plan
	pm := memory.Bind(p, s.memTask)
	me, other := p.ID, 1-p.ID
	l := plan.L

	// Lines 2-4: publish the task input, read the other one, derive the
	// ε-agreement input (1 = the other input is missing).
	if err := pm.WriteInput(input); err != nil {
		return 0, err
	}
	xotherAny := pm.ReadInput(other)
	var myInput uint64
	if xotherAny == nil {
		myInput = 1
	}

	// Line 5: ε-agreement with ε = 1/(L+1) via Algorithm 1 with k = L/2.
	d, err := agreement.Alg1Inline(p, s.memAgree, l/2, myInput)
	if err != nil {
		return 0, err
	}
	num := d.Num // decision is num/(L+1), num ∈ {0..L+1}

	switch {
	case num == 0:
		// Lines 6-8: full input seen (Lemma 5.6: ε-input was 0).
		if xotherAny == nil {
			return 0, fmt.Errorf("alg2: decided 0 in ε-agreement without seeing the other input")
		}
		fullX, err := s.pairOf(me, input, xotherAny)
		if err != nil {
			return 0, err
		}
		y0, ok := plan.DeltaFull[fullX]
		if !ok {
			return 0, fmt.Errorf("alg2: input %v not in task %s", fullX, plan.Task.Name)
		}
		return y0[me], nil

	case num == l+1:
		// Lines 19-21: d = 1, the other input was never seen.
		var partial Pair
		partial[me] = input
		partial[other] = Bot
		yl, ok := plan.DeltaPartial[partial]
		if !ok {
			return 0, fmt.Errorf("alg2: partial input %v not in plan", partial)
		}
		return yl[me], nil

	default:
		// Lines 10-18: 0 < d < 1. The other process participated, so its
		// input is now published (§5.2.4).
		xotherAny = pm.ReadInput(other)
		if xotherAny == nil {
			return 0, fmt.Errorf("alg2: 0<d<1 but other input still missing")
		}
		fullX, err := s.pairOf(me, input, xotherAny)
		if err != nil {
			return 0, err
		}
		missing := me
		if myInput == 1 {
			missing = other
		}
		path, ok := plan.Path(fullX, missing)
		if !ok {
			return 0, fmt.Errorf("alg2: no path for (%v, %d)", fullX, missing)
		}
		// Map the decision num/(L+1) to a path index in 0..L-1:
		// consecutive decisions map to equal or adjacent indices, and
		// Y_L is only reachable via d = 1.
		idx := num
		if idx > l-1 {
			idx = l - 1
		}
		return path[idx][me], nil
	}
}

func (s *Alg2System) pairOf(me, input int, otherVal any) (Pair, error) {
	xo, ok := otherVal.(int)
	if !ok {
		return Pair{}, fmt.Errorf("alg2: input register holds %T, want int", otherVal)
	}
	var x Pair
	x[me] = input
	x[1-me] = xo
	return x, nil
}

// Run executes Algorithm 2 for both processes on the given input under
// the scheduler.
func RunAlg2(plan *Plan, input Pair, scheduler sched.Scheduler) (*Alg2System, *sched.Result, error) {
	sys := NewAlg2System(plan)
	res, err := sched.Run(sched.Config{Scheduler: scheduler}, []sched.ProcFunc{
		sys.Proc(0, input[0]),
		sys.Proc(1, input[1]),
	})
	if err != nil {
		return nil, nil, err
	}
	return sys, res, nil
}

// CheckRun validates the decisions of one execution against the task:
// if both processes decided, the pair must be legal for the input; if one
// decided, its value must extend to a legal output.
func CheckRun(t *Task, input Pair, sys *Alg2System) error {
	switch {
	case sys.Decided[0] && sys.Decided[1]:
		y := Pair{sys.Outs[0], sys.Outs[1]}
		if !t.Legal(input, y) {
			return fmt.Errorf("task %s: output %v illegal for input %v", t.Name, y, input)
		}
	case sys.Decided[0]:
		if !t.LegalPartial(input, 0, sys.Outs[0]) {
			return fmt.Errorf("task %s: partial output %d by p0 not extendable for %v", t.Name, sys.Outs[0], input)
		}
	case sys.Decided[1]:
		if !t.LegalPartial(input, 1, sys.Outs[1]) {
			return fmt.Errorf("task %s: partial output %d by p1 not extendable for %v", t.Name, sys.Outs[1], input)
		}
	}
	return nil
}

// ExploreAlg2 enumerates all crash-free interleavings of Algorithm 2 on
// the given input and validates each execution, returning the number of
// executions explored.
func ExploreAlg2(plan *Plan, input Pair) (int, error) {
	var sys *Alg2System
	factory := func() []sched.ProcFunc {
		sys = NewAlg2System(plan)
		return []sched.ProcFunc{sys.Proc(0, input[0]), sys.Proc(1, input[1])}
	}
	var checkErr error
	runs, err := sched.ExploreAll(factory, 0, func(r *sched.Result) {
		if checkErr != nil {
			return
		}
		if e := r.Err(); e != nil {
			checkErr = e
			return
		}
		if e := CheckRun(plan.Task, input, sys); e != nil {
			checkErr = fmt.Errorf("schedule %v: %w", r.Decisions, e)
		}
	})
	if err != nil {
		return runs, err
	}
	return runs, checkErr
}

// Alg2Roots enumerates the live schedule prefixes of the exhaustive
// Algorithm 2 exploration at the given cut depth
// (sched.PartitionRoots), so the validation sweep can be carved into
// disjoint ranges like any other exploration space.
func Alg2Roots(plan *Plan, input Pair, depth int) ([][]int, error) {
	factory := func() []sched.ProcFunc {
		sys := NewAlg2System(plan)
		return []sched.ProcFunc{sys.Proc(0, input[0]), sys.Proc(1, input[1])}
	}
	return sched.PartitionRoots(factory, 0, depth)
}

// ExploreAlg2Prefixes validates exactly the Algorithm 2 executions
// extending the given schedule prefixes, with a bounded goroutine
// fan-out (sched.ExplorePrefixes). The run count is the shard's
// order-insensitive aggregate: counts from any partition of an
// Alg2Roots root set sum to the ExploreAlg2 total, and a violation in
// any slice surfaces as that slice's error.
func ExploreAlg2Prefixes(plan *Plan, input Pair, workers int, roots [][]int) (int, error) {
	// Done runs serially under the explorer's lock, so checkErr needs
	// no further synchronization.
	var checkErr error
	factory := func() sched.Instance {
		sys := NewAlg2System(plan)
		return sched.Instance{
			Procs: []sched.ProcFunc{sys.Proc(0, input[0]), sys.Proc(1, input[1])},
			Done: func(r *sched.Result) {
				if checkErr != nil {
					return
				}
				if e := r.Err(); e != nil {
					checkErr = e
					return
				}
				if e := CheckRun(plan.Task, input, sys); e != nil {
					checkErr = fmt.Errorf("schedule %v: %w", r.Decisions, e)
				}
			},
		}
	}
	runs, err := sched.ExplorePrefixes(factory, 0, workers, roots)
	if err != nil {
		return runs, err
	}
	return runs, checkErr
}

// ExploreAlg2Memo is the memoized analogue of ExploreAlg2
// (sched.ExploreMemo): the same execution count, with each *visited*
// leaf validated by CheckRun and pruned subtrees vouched for by their
// memoized twins — a pruned leaf's canonical state equals a validated
// one's, and the CheckRun verdict is a function of that state.
func ExploreAlg2Memo(plan *Plan, input Pair) (sched.MemoStats, error) {
	return ExploreAlg2MemoPrefixes(plan, input, [][]int{{}})
}

// ExploreAlg2MemoPrefixes is ExploreAlg2Memo restricted to the
// subtrees under the given schedule prefixes
// (sched.ExploreMemoPrefixes). Stats.Executions from any partition of
// an Alg2Roots root set sum to the ExploreAlg2 total, and a
// validation violation in any visited leaf surfaces as the slice's
// error.
func ExploreAlg2MemoPrefixes(plan *Plan, input Pair, roots [][]int) (sched.MemoStats, error) {
	// Leaf runs serially inside the explorer's DFS, so checkErr needs
	// no synchronization. It returns no contribution: the execution
	// count in MemoStats is the aggregate.
	var checkErr error
	factory := func() sched.MemoInstance {
		sys := NewAlg2System(plan)
		return sched.MemoInstance{
			Procs: []sched.ProcFunc{sys.Proc(0, input[0]), sys.Proc(1, input[1])},
			State: sys.StateKey,
			Leaf: func(r *sched.Result) any {
				if checkErr != nil {
					return nil
				}
				if e := r.Err(); e != nil {
					checkErr = e
					return nil
				}
				if e := CheckRun(plan.Task, input, sys); e != nil {
					checkErr = fmt.Errorf("schedule %v: %w", r.Decisions, e)
				}
				return nil
			},
		}
	}
	_, stats, err := sched.ExploreMemoPrefixes(factory, sched.MemoOptions{}, roots)
	if err != nil {
		return stats, err
	}
	return stats, checkErr
}
