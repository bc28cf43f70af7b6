// Package sched implements the asynchronous execution model of the paper:
// n deterministic processes take atomic steps on a shared memory, with the
// interleaving chosen by an adversary (the Scheduler), and crash failures
// that permanently stop a process.
//
// Each process runs in its own goroutine (goroutines model asynchrony), and
// every shared-memory operation is gated by Step: the process blocks until
// the scheduler grants it the step. There is no central runner. The step is
// a baton held by exactly one process goroutine: the one that just reached
// Step, or one that just returned or was crashed. The holder asks the
// Scheduler for the next decision itself. If it chose itself it simply
// continues, with no channel operation; otherwise it hands the baton to the
// chosen process with one send on that process's grant channel and parks.
// Before the first grant the processes run concurrently up to their first
// Step, where an atomic arrival count lets the last to arrive take the
// baton.
//
// Atomicity holds because exactly one process goroutine runs between
// grants: every other live process is parked at a step, so register
// operations are atomic exactly as in the paper's model (§2: "two
// concurrent accesses to a same register never occur"), and the Scheduler,
// the enabling conditions and the Result are used only by the baton holder.
// Each handoff is a channel send (or, at the start, the arrival count), so
// one holder's writes happen before the next holder's reads.
//
// Crashes are scheduler decisions: a process whose step request is answered
// with a crash unwinds its goroutine and never takes another step.
//
// Every explorer is serial: the exhaustive replay DFS (Explore, ExploreAll,
// ExplorePrefixes), the canonical-state memo (ExploreMemo,
// ExploreMemoPrefixes) and PartitionRoots replay one run at a time and call
// back on the caller's goroutine, in DFS order. Concurrency is the
// caller's: several explorations at once are several calls, each over its
// own freshly built systems.
//
// A one-shot Run starts its process goroutines and they end with it. The
// explorers replay one system thousands of times, so each keeps one runner
// whose process goroutines outlive a run: the first replay starts them,
// every later one hands each goroutine its next process function over a
// per-slot channel, and the explorer stops the runner on every way it
// returns, panics included. A replay then starts no goroutine and runs on
// stacks already grown by the ones before it.
//
// A run records counters and outcomes, not a per-step trace, so its
// allocations do not grow with its length. The explorers read the path a
// replay took from the record of the Replay scheduler they drive.
package sched

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Decision is a scheduler's answer: which process takes the next step, and
// whether that process instead crashes (takes no step, now or ever).
// Pid == Halt stops the execution, crashing every remaining process.
type Decision struct {
	Pid   int
	Crash bool
}

// Halt is the Decision.Pid value that stops the execution.
const Halt = -1

// Scheduler chooses the next step among the enabled processes. enabled is
// sorted ascending and non-empty. The returned Pid must be an element of
// enabled, or Halt. enabled is valid only during the call: the runner
// builds every decision's set in one reused buffer, so a Scheduler that
// keeps a set past Next must copy it (Replay does, for the explorers).
type Scheduler interface {
	Next(enabled []int) Decision
}

// ProcFunc is the code of one process. It must perform every shared-memory
// operation through the Proc handle (directly or via a memory binding).
// Returning a non-nil error marks the process as failed in the Result.
type ProcFunc func(p *Proc) error

// Config configures a run.
type Config struct {
	// Scheduler chooses interleavings and crashes. Required.
	Scheduler Scheduler
	// MaxSteps bounds the total number of steps across all processes; the
	// run is aborted (Result.BudgetExceeded) beyond it. 0 means a default
	// of 1<<22.
	MaxSteps int
}

// DefaultMaxSteps is the step budget used when Config.MaxSteps is 0.
const DefaultMaxSteps = 1 << 22

// Result describes a completed execution by its counters and outcomes,
// with no per-step trace: the explorers keep theirs in Replay.
type Result struct {
	// Steps[i] is the number of steps taken by process i.
	Steps []int
	// TotalSteps is the sum of Steps.
	TotalSteps int
	// Crashed[i] reports whether process i was crashed by the adversary.
	Crashed []bool
	// Errs[i] is the error returned by process i (nil for crashed procs).
	Errs []error
	// Schedule is the pid of every scheduler decision, in order. The
	// explorers set it before handing the Result to their callbacks
	// (the exhaustive explorers' visit, MemoInstance.Leaf); it aliases
	// the explorer's replay record, so it is valid only until the
	// callback returns. Run leaves it nil.
	Schedule []int
	// Deadlocked reports that at some point every live process was blocked
	// on an unsatisfied StepWhen condition. Remaining processes were
	// crashed to unwind.
	Deadlocked bool
	// BudgetExceeded reports that MaxSteps was hit.
	BudgetExceeded bool
}

// reset prepares a Result for reuse by runInto, keeping the Steps,
// Crashed and Errs arrays so a replay loop settles into zero per-run
// allocations.
func (r *Result) reset(n int) {
	if cap(r.Steps) < n {
		r.Steps = make([]int, n)
		r.Crashed = make([]bool, n)
		r.Errs = make([]error, n)
	} else {
		r.Steps = r.Steps[:n]
		r.Crashed = r.Crashed[:n]
		r.Errs = r.Errs[:n]
		for i := 0; i < n; i++ {
			r.Steps[i] = 0
			r.Crashed[i] = false
			r.Errs[i] = nil
		}
	}
	r.TotalSteps = 0
	r.Schedule = nil
	r.Deadlocked = false
	r.BudgetExceeded = false
}

// Correct reports whether process i is correct in this execution: it was
// not crashed and returned no error.
func (r *Result) Correct(i int) bool {
	return !r.Crashed[i] && r.Errs[i] == nil
}

// Err returns the first process error, the deadlock error, or the budget
// error, if any.
func (r *Result) Err() error {
	if r.BudgetExceeded {
		return ErrBudget
	}
	if r.Deadlocked {
		return ErrDeadlock
	}
	for i, err := range r.Errs {
		if err != nil {
			return fmt.Errorf("process %d: %w", i, err)
		}
	}
	return nil
}

var (
	// ErrDeadlock reports that all live processes were blocked on
	// unsatisfiable StepWhen conditions.
	ErrDeadlock = errors.New("sched: deadlock (all live processes blocked)")
	// ErrBudget reports that the step budget was exhausted.
	ErrBudget = errors.New("sched: step budget exceeded")
)

// crashSignal unwinds a crashed process's goroutine. It never escapes the
// package: the per-process wrapper recovers it.
type crashSignal struct{}

// Proc is a process's handle onto the runtime. Shared-memory bindings call
// Step (or StepWhen) exactly once per atomic operation.
type Proc struct {
	// ID is the process index in 0..n-1.
	ID int
	// N is the number of processes in the system.
	N int

	r *runner
}

// Step blocks until the scheduler grants this process its next atomic step.
// If the adversary crashes the process instead, the goroutine unwinds (the
// process function never resumes).
func (p *Proc) Step() { p.StepWhen(nil) }

// StepWhen is Step with an enabling condition: the scheduler will only
// grant the step while ready() holds. It models waiting (e.g. for a
// message or a register change) without unbounded busy-wait polling: the
// process is simply not enabled until the condition is true. ready is
// evaluated only while every other live process is parked, so it may read
// shared state without races.
func (p *Proc) StepWhen(ready func() bool) {
	r, s := p.r, &p.r.slots[p.ID]
	s.ready, s.parked = ready, true
	if !s.arrived {
		s.arrived = true
		if !r.arrive() {
			r.await(p.ID)
			return
		}
	}
	if !r.pass(p.ID) {
		r.await(p.ID)
	}
}

// runner is the shared state of one run. Once every process has arrived
// at its first step (or returned before it), only the goroutine holding
// the step reads or writes it. Its process count is len(slots).
type runner struct {
	procs []Proc
	slots []procSlot
	done  chan struct{}
	keep  *keeper // nil on a one-shot runner (Run's)

	// arrivals counts processes that reached their first step or
	// returned before it; the n-th arrival takes the step.
	arrivals atomic.Int32

	sched    Scheduler
	maxSteps int
	res      *Result
	enabled  []int // the current decision's enabled set, rebuilt for each
	live     int   // processes not yet returned or crashed
	abort    bool  // the run is over: unwind every parked process
	err      error // the scheduler broke its contract
}

// keeper is the part of a kept runner that outlives a run: the first run
// starts the process goroutines, each later run hands goroutine i its
// function over start[i], and stop ends them. The explorer that owns a
// kept runner calls stop on every way it returns. A one-shot runner has
// none, and its goroutines end with their run.
type keeper struct {
	start   []chan ProcFunc
	started bool           // the first run has started the goroutines
	exited  sync.WaitGroup // counts the goroutines out after stop
}

// procSlot is one process's part of the runner. Before the n-th arrival
// each process writes only its own slot.
type procSlot struct {
	grant    chan bool
	ready    func() bool // the pending step's enabling condition
	parked   bool        // waiting at a step for its grant
	arrived  bool        // reached its first step, or returned before it
	panicked any         // a panic recovered from the process goroutine
}

// newRunner builds the grant channels for an n-process run, and a
// keeper if the runner is kept. Every channel is drained by the time a
// run returns, so a runner is reusable across replays of same-arity
// systems.
func newRunner(n int, kept bool) *runner {
	r := &runner{
		procs:   make([]Proc, n),
		slots:   make([]procSlot, n),
		done:    make(chan struct{}),
		enabled: make([]int, 0, n),
	}
	for i := range r.slots {
		r.procs[i] = Proc{ID: i, N: n, r: r}
		r.slots[i].grant = make(chan bool)
	}
	if kept {
		r.keep = &keeper{start: make([]chan ProcFunc, n)}
		for i := range r.keep.start {
			// One slot of buffer: a replay hands out its functions
			// without waiting for a goroutine still returning from the
			// last run.
			r.keep.start[i] = make(chan ProcFunc, 1)
		}
	}
	return r
}

// keptRunner returns rn if it runs n processes. Otherwise it stops rn
// (nil is fine) and returns a new kept runner for n; an explorer's
// factory builds the same system every time, so that happens once.
func keptRunner(rn *runner, n int) *runner {
	if rn != nil && len(rn.slots) == n {
		return rn
	}
	rn.stop()
	return newRunner(n, true)
}

// stop ends a kept runner's process goroutines after its last run: it
// closes their start channels and returns once every one has exited. It
// is a no-op on a nil runner or one that never ran.
func (r *runner) stop() {
	if r == nil || !r.keep.started {
		return
	}
	for _, c := range r.keep.start {
		close(c)
	}
	r.keep.exited.Wait()
}

// Run executes the processes under the configured scheduler until every
// process has returned, crashed, or the run is aborted (deadlock/budget).
// The returned error is non-nil only for configuration mistakes; execution
// outcomes (including deadlock) are reported in the Result. A panic in a
// process is raised again on the caller's goroutine, naming the process,
// once every other process has unwound.
func Run(cfg Config, procs []ProcFunc) (*Result, error) {
	return runInto(cfg, procs, nil, nil)
}

// runInto is Run with reusable buffers for replay loops: res is reset
// and reused when non-nil (its contents are valid until the next
// runInto call with the same res), and rn, which must run len(procs)
// processes, is reused when non-nil. Passing nil for both is Run. On a
// kept rn the first run starts the process goroutines and every later
// one hands them procs; a panic raised here leaves rn idle, ready for
// its owner's stop.
func runInto(cfg Config, procs []ProcFunc, res *Result, rn *runner) (*Result, error) {
	n := len(procs)
	if n == 0 {
		return nil, errors.New("sched: no processes")
	}
	if cfg.Scheduler == nil {
		return nil, errors.New("sched: nil scheduler")
	}
	maxSteps := cfg.MaxSteps
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}

	r := rn
	if r == nil {
		r = newRunner(n, false)
	}
	if res == nil {
		res = &Result{}
	}
	res.reset(n)
	r.sched, r.maxSteps, r.res = cfg.Scheduler, maxSteps, res
	r.live, r.abort, r.err = 0, false, nil
	r.arrivals.Store(0)
	for i := range r.slots {
		s := &r.slots[i]
		s.ready, s.parked, s.arrived, s.panicked = nil, false, false, nil
	}

	switch k := r.keep; {
	case k == nil:
		for i, fn := range procs {
			go r.runProc(i, fn)
		}
	case !k.started:
		k.started = true
		k.exited.Add(n)
		for i, fn := range procs {
			go r.serve(i, fn)
		}
	default:
		for i, fn := range procs {
			k.start[i] <- fn
		}
	}
	<-r.done

	r.sched, r.res = nil, nil
	for pid := range r.slots {
		if rec := r.slots[pid].panicked; rec != nil {
			panic(fmt.Errorf("sched: process %d panicked: %v", pid, rec))
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	return res, nil
}

// serve is one process goroutine of a kept runner: it runs fn, then the
// function each later run hands it, until stop closes its channel.
func (r *runner) serve(pid int, fn ProcFunc) {
	defer r.keep.exited.Done()
	for ok := true; ok; fn, ok = <-r.keep.start[pid] {
		r.runProc(pid, fn)
	}
}

// runProc runs one process of a run on its goroutine: it runs fn,
// records how it ended, and passes the step on. It touches no runner
// state after passing the step, so the next run may reset the runner
// while this goroutine is still returning.
func (r *runner) runProc(pid int, fn ProcFunc) {
	rec, err := call(fn, &r.procs[pid])
	s := &r.slots[pid]
	if !s.arrived {
		// Ended before its first step: the run has no holder yet, so
		// only this process's own slot may be written.
		s.arrived, s.panicked = true, rec
		r.res.Errs[pid] = err
		if !r.arrive() {
			return
		}
	} else {
		s.parked = false
		r.live--
		if !r.res.Crashed[pid] {
			r.res.Errs[pid] = err
		}
		if rec != nil {
			s.panicked, r.abort = rec, true
		}
	}
	r.passExited(pid)
}

// call runs a process function, turning the crash unwind into a return
// and recovering any other panic.
func call(fn ProcFunc, p *Proc) (rec any, err error) {
	defer func() {
		if rec = recover(); rec != nil {
			if _, ok := rec.(crashSignal); ok {
				rec = nil
			}
		}
	}()
	return nil, fn(p)
}

// arrive counts one arrival and reports whether it was the last, in which
// case the caller takes the step: it tallies the live processes and
// aborts the run if one panicked before its first step.
func (r *runner) arrive() bool {
	if int(r.arrivals.Add(1)) < len(r.slots) {
		return false
	}
	for i := range r.slots {
		s := &r.slots[i]
		if s.parked {
			r.live++
		}
		if s.panicked != nil {
			r.abort = true
		}
	}
	return true
}

// await parks a process until the holder grants it the step, and unwinds
// it if the holder crashes it instead.
func (r *runner) await(pid int) {
	if !<-r.slots[pid].grant {
		panic(crashSignal{})
	}
}

// passExited is pass for a holder that has returned or unwound. A panic
// in the Scheduler or an enabling condition here has no process function
// above it to unwind, so it is recorded against the holder and the run
// aborted; the abort path calls neither.
func (r *runner) passExited(pid int) {
	defer func() {
		if rec := recover(); rec != nil {
			r.slots[pid].panicked, r.abort = rec, true
			r.pass(pid)
		}
	}()
	r.pass(pid)
}

// pass runs on the goroutine holding the step once process self has
// parked at a step or exited. It makes the next scheduling decision and
// reports whether self takes the step; otherwise the step has passed to
// another process and a parked self must await its grant. A decision to
// crash self unwinds self directly.
func (r *runner) pass(self int) bool {
	res := r.res
	if r.live == 0 {
		r.done <- struct{}{}
		return false
	}
	if r.abort {
		return r.unwind(self)
	}
	enabled := r.enabledSet()
	switch {
	case len(enabled) == 0:
		res.Deadlocked = true
		return r.unwind(self)
	case res.TotalSteps >= r.maxSteps:
		res.BudgetExceeded = true
		return r.unwind(self)
	}
	d := r.sched.Next(enabled)
	if d.Pid == Halt {
		return r.unwind(self)
	}
	if !slices.Contains(enabled, d.Pid) {
		r.err = fmt.Errorf("sched: scheduler chose pid %d not in enabled set %v", d.Pid, enabled)
		return r.unwind(self)
	}
	s := &r.slots[d.Pid]
	s.parked = false
	if d.Crash {
		res.Crashed[d.Pid] = true
		if d.Pid == self {
			panic(crashSignal{})
		}
		s.grant <- false
		return false
	}
	res.Steps[d.Pid]++
	res.TotalSteps++
	if d.Pid == self {
		return true
	}
	s.grant <- true
	return false
}

// unwind aborts the run by crashing one parked process, self first. Each
// crashed process passes the step on as it unwinds, so the chain ends
// with the last live process signalling done.
func (r *runner) unwind(self int) bool {
	r.abort = true
	pid := self
	if !r.slots[pid].parked {
		pid = 0
		for !r.slots[pid].parked {
			pid++
		}
	}
	r.slots[pid].parked = false
	r.res.Crashed[pid] = true
	if pid == self {
		panic(crashSignal{})
	}
	r.slots[pid].grant <- false
	return false
}

// enabledSet builds the enabled set in pid order in the runner's one
// buffer, which every decision of every run on this runner reuses: the
// set is valid only until the next decision (the Scheduler.Next
// contract).
func (r *runner) enabledSet() []int {
	r.enabled = r.enabled[:0]
	for pid := range r.slots {
		s := &r.slots[pid]
		if s.parked && (s.ready == nil || s.ready()) {
			r.enabled = append(r.enabled, pid)
		}
	}
	return r.enabled
}
