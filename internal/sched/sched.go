//go:build go1.23

// Package sched implements the asynchronous execution model of the paper:
// n deterministic processes take atomic steps on a shared memory, with the
// interleaving chosen by an adversary (the Scheduler), and crash failures
// that permanently stop a process.
//
// Each process runs as a coroutine (iter.Pull) resumed from the goroutine
// that calls Run, and every shared-memory operation is gated by Step: the
// process parks until the scheduler grants it the step. The step is a
// baton held by exactly one process: the one that just reached Step, or
// one that just returned or was crashed. The holder asks the Scheduler
// for the next decision itself. If it chose itself it simply continues,
// with no switch; otherwise it yields the chosen pid to the driver loop,
// which resumes that process: two coroutine switches, and no goroutine is
// scheduled or woken. The driver starts the processes in pid order, each
// up to its first Step, and then makes the first decision itself.
//
// Atomicity holds because exactly one of the driver and the coroutines
// runs at a time: every other live process is parked at a step, so
// register operations are atomic exactly as in the paper's model (§2:
// "two concurrent accesses to a same register never occur"), and the
// Scheduler, the enabling conditions and the Result are used only by the
// holder. Every switch synchronises, so one holder's writes happen before
// the next holder's reads.
//
// Crashes are scheduler decisions: a process whose step request is
// answered with a crash unwinds its function and never takes another
// step. Its coroutine lives on, parked until the next run or the end of
// its runner.
//
// Every explorer is serial: the exhaustive replay DFS (Explore, ExploreAll,
// ExplorePrefixes), the canonical-state memo (ExploreMemo,
// ExploreMemoPrefixes) and PartitionRoots replay one run at a time and call
// back on the caller's goroutine, in DFS order. Concurrency is the
// caller's: several explorations at once are several calls, each over its
// own freshly built systems.
//
// A one-shot Run makes its coroutines and stops them before it returns.
// The explorers replay one system thousands of times, so each keeps one
// runner whose coroutines outlive a run: each loops over the process
// function every replay hands it, and the explorer stops the runner on
// every way it returns, panics included. A replay then starts no
// goroutine and runs on stacks already grown by the ones before it.
//
// A run records counters and outcomes, not a per-step trace, so its
// allocations do not grow with its length. The explorers read the path a
// replay took from the record of the Replay scheduler they drive.
package sched

import (
	"errors"
	"fmt"
	"iter"
	"slices"
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

// crashSignal unwinds a crashed process's function. It never escapes the
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
// If the adversary crashes the process instead, the process function
// unwinds (it never resumes).
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
	if r.starting {
		r.await(p.ID, Halt) // the driver starts the next process
	} else if next := r.pass(p.ID); next != p.ID {
		r.await(p.ID, next)
	}
}

// runner is the shared state of one run and the coroutines that run its
// processes. Only the holder of the step, a process or the driver, reads
// or writes it, and only the driver resumes a coroutine. Its process
// count is len(slots).
type runner struct {
	procs []Proc
	slots []procSlot
	kept  bool // an explorer's: stopped by its owner, not by each run

	sched    Scheduler
	maxSteps int
	res      *Result
	enabled  []int // the current decision's enabled set, rebuilt for each
	live     int   // processes not yet returned or crashed
	starting bool  // the driver is running each process up to its first step
	abort    bool  // the run is over: unwind every parked process
	err      error // the scheduler broke its contract
}

// procSlot is one process's part of the runner: its coroutine, and its
// state in the current run.
type procSlot struct {
	next  func() (int, bool) // resumes the coroutine, returning the pid it yields
	stop  func()             // ends the coroutine
	yield func(int) bool     // the coroutine's side: hands the driver a pid and parks
	fn    ProcFunc           // the current run's process function

	ready    func() bool // the pending step's enabling condition
	parked   bool        // waiting at a step to be resumed
	grant    bool        // resumed with the step; false crashes it
	panicked any         // a panic recovered from the process function
}

// newRunner makes the coroutines of an n-process runner. A kept runner
// (an explorer's) runs every replay of one system until its owner stops
// it; a one-shot runner (Run's) is stopped by its run.
func newRunner(n int, kept bool) *runner {
	r := &runner{
		procs:   make([]Proc, n),
		slots:   make([]procSlot, n),
		kept:    kept,
		enabled: make([]int, 0, n),
	}
	for pid := range r.slots {
		r.procs[pid] = Proc{ID: pid, N: n, r: r}
		r.slots[pid].next, r.slots[pid].stop = iter.Pull(r.coroutine(pid))
	}
	return r
}

// coroutine is process pid's coroutine. It runs the process function
// each run hands it, then yields the pid its exit handed the step to and
// parks until the next run starts it again, or stop ends it.
func (r *runner) coroutine(pid int) iter.Seq[int] {
	return func(yield func(int) bool) {
		r.slots[pid].yield = yield
		for yield(r.runProc(pid)) {
		}
	}
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

// stop ends the runner's coroutines, each parked where its last process
// function ended, or not yet started. The explorer that owns a kept
// runner calls it on every way it returns; a one-shot runner's run calls
// it before returning. It is a no-op on a nil or stopped runner.
func (r *runner) stop() {
	if r == nil {
		return
	}
	for i := range r.slots {
		r.slots[i].stop()
	}
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
// processes, is reused when non-nil. Passing nil for both is Run. The
// calling goroutine drives the run: it resumes each coroutine up to its
// process's first step, in pid order, makes the first decision, and then
// resumes whichever process each holder hands the step to until every
// process has ended. A panic raised here leaves a kept rn idle, ready for
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
	r.live, r.abort, r.err = n, false, nil

	r.starting = true
	for pid := range r.slots {
		s := &r.slots[pid]
		s.fn, s.ready, s.parked, s.panicked = procs[pid], nil, false, nil
		s.next()
	}
	r.starting = false
	for pid := r.passExited(Halt); pid != Halt; {
		pid, _ = r.slots[pid].next()
	}
	if !r.kept {
		r.stop()
	}

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

// runProc runs process pid's function for the current run in its
// coroutine, records how it ended, and returns the pid the driver
// resumes next: the one its exit hands the step to, or Halt when the run
// is over or when the process ended before its first step, since the
// driver makes the first decision.
func (r *runner) runProc(pid int) int {
	s := &r.slots[pid]
	rec, err := call(s.fn, &r.procs[pid])
	s.parked = false
	r.live--
	if !r.res.Crashed[pid] {
		r.res.Errs[pid] = err
	}
	if rec != nil {
		s.panicked, r.abort = rec, true
	}
	if r.starting {
		return Halt
	}
	return r.passExited(pid)
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

// await parks process pid, handing the driver next: the process to
// resume, or Halt while the driver is starting the processes. It returns
// when the driver resumes pid with the step, and unwinds pid if it is
// resumed with a crash instead.
func (r *runner) await(pid, next int) {
	s := &r.slots[pid]
	s.yield(next)
	if !s.grant {
		panic(crashSignal{})
	}
}

// passExited is pass for a holder with no process function above it to
// unwind: process self once it has returned or unwound, or the driver
// (self == Halt) making the first decision. A panic in the Scheduler or
// an enabling condition here is recorded against self, or against the
// last process started if the driver was deciding, and the run aborted;
// the abort path calls neither.
func (r *runner) passExited(self int) (next int) {
	defer func() {
		if rec := recover(); rec != nil {
			blame := self
			if blame == Halt {
				blame = len(r.slots) - 1
			}
			r.slots[blame].panicked, r.abort = rec, true
			next = r.pass(self)
		}
	}()
	return r.pass(self)
}

// pass runs on the holder of the step: process self, parked at a step
// or just ended, or the driver (self == Halt). It makes the next
// scheduling decision and returns the process that runs next: self if
// it keeps the step, another for the driver to resume with the step or a
// crash, or Halt once every process has ended. A decision to crash self
// unwinds self directly.
func (r *runner) pass(self int) int {
	res := r.res
	if r.live == 0 {
		return Halt
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
	if d.Crash {
		return r.crash(self, d.Pid)
	}
	s := &r.slots[d.Pid]
	s.parked, s.grant = false, true
	res.Steps[d.Pid]++
	res.TotalSteps++
	return d.Pid
}

// unwind aborts the run by crashing one parked process, self first. Each
// crashed process passes the step on as it unwinds, so the chain ends
// with the last live process handing the driver Halt.
func (r *runner) unwind(self int) int {
	r.abort = true
	pid := self
	if pid == Halt || !r.slots[pid].parked {
		pid = 0
		for !r.slots[pid].parked {
			pid++
		}
	}
	return r.crash(self, pid)
}

// crash crashes parked process pid. Self unwinds at once; any other pid
// is returned for the driver to resume with a false grant, so that it
// unwinds in its own coroutine.
func (r *runner) crash(self, pid int) int {
	s := &r.slots[pid]
	s.parked, s.grant = false, false
	r.res.Crashed[pid] = true
	if pid == self {
		panic(crashSignal{})
	}
	return pid
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
