// Package memory implements the shared memory of the model: one SWMR
// register per process (bounded or unbounded), the write-once input
// registers I_1..I_n, and the derived operations collect and atomic
// snapshot. The sched-aware bindings in this package charge exactly one
// scheduler step per atomic operation.
//
// The memory is also the canonical-state seam of the memoized explorer
// (sched.ExploreMemo): alongside the register contents it maintains one
// rolling observation-history hash per process. A deterministic process
// is a function of its parameters and the sequence of values it has
// observed, so (register contents, per-process history hashes) is a
// sound fingerprint of the global state — it can over-distinguish
// states (costing only reduction, never correctness) and under-
// distinguishes only on 64-bit hash collisions. Histories record
// register indices relative to the acting process, which makes the
// per-process components invariant under process relabelling and lets
// CanonicalKey apply the symmetry reduction for id-symmetric protocols.
package memory

import (
	"fmt"
	"hash/fnv"

	"repro/internal/register"
	"repro/internal/sched"
)

// Value is a register content (alias of register.Value).
type Value = register.Value

// Operation tags folded into the per-process history hash. Distinct
// tags keep e.g. "read R_other = 0" and "read I_other = 0" apart.
const (
	opWrite uint64 = iota + 1
	opRead
	opSnapshot
	opWriteInput
	opReadInput
	opError
)

// Shared is the shared memory for n processes: registers R_1..R_n of a
// common width, and input registers I_1..I_n. It performs no internal
// locking: atomicity comes from the scheduler runtime, which lets only one
// process take a step at a time.
type Shared struct {
	regs   []*register.SWMR
	inputs []*register.WriteOnce

	// hist[i] is process i's rolling observation-history hash: every
	// operation i performs folds in the operation tag, the register
	// index relative to i, and the value observed or written.
	hist []uint64

	reads, writes, snapshots int

	canon sched.Canonicalizer
}

// New returns a shared memory for n processes with registers of the given
// width in bits (0 = unbounded). Coordination registers are initialized to
// the zero word for bounded memories and to nil for unbounded ones,
// matching the paper's initializations.
func New(n, width int) *Shared {
	m := &Shared{
		regs:   make([]*register.SWMR, n),
		inputs: make([]*register.WriteOnce, n),
		hist:   make([]uint64, n),
	}
	for i := range m.regs {
		var initial Value
		if width > 0 {
			initial = uint64(0)
		}
		m.regs[i] = register.NewSWMR(width, initial)
		m.inputs[i] = register.NewWriteOnce()
		m.hist[i] = sched.KeySeed()
	}
	return m
}

// Reset puts the memory back in the state New built it in, without
// allocating: every register holds its initial word (nil when
// unbounded), every input register is unwritten, every history hash is
// back at its seed, and the operation counters read zero. It lets an
// explorer's factory run every replay on one memory; no process may be
// mid-run on m while it resets.
func (m *Shared) Reset() {
	for i := range m.regs {
		m.regs[i].Reset()
		m.inputs[i].Reset()
		m.hist[i] = sched.KeySeed()
	}
	m.reads, m.writes, m.snapshots = 0, 0, 0
}

// N returns the number of processes (and registers).
func (m *Shared) N() int { return len(m.regs) }

// Width returns the register width in bits (0 = unbounded).
func (m *Shared) Width() int { return m.regs[0].Width() }

// Ops returns the operation counters (reads, writes, snapshots) accumulated
// so far. Collect counts as one read per register.
func (m *Shared) Ops() (reads, writes, snapshots int) {
	return m.reads, m.writes, m.snapshots
}

// rel maps register index j to its offset from process pid, so that the
// history hash of a process never mentions absolute process ids.
func (m *Shared) rel(pid, j int) uint64 {
	n := len(m.regs)
	return uint64(((j-pid)%n + n) % n)
}

// observe folds one operation into process pid's history hash.
func (m *Shared) observe(pid int, words ...uint64) {
	m.hist[pid] = sched.MixKey(m.hist[pid], words...)
}

// valueSeed domain-separates value words from observation-history
// chains. Both are MixKey chains over small tags, and with a shared
// seed a history prefix can equal a value word exactly — e.g.
// MixKey(seed, opRead, rel=1) == valueWord(uint64(1)) when opRead and
// the uint64 tag are both 2 — at which point the xor step cancels the
// chain to zero and distinct histories collapse (the memory fuzzer
// found exactly that, colliding "read own register = 0" with "read
// other's register = 1"). Any constant other than sched.KeySeed()
// restores independence; this is the splitmix64 increment.
const valueSeed = 0x9e3779b97f4a7c15

// valueWord compresses a register content into one hash word. Bounded
// registers hold uint64 words; unbounded ones may hold any comparable
// value, hashed through its printed form on the (rare) slow path.
func valueWord(v Value) uint64 {
	// Tag and payload fold as two separate hash steps: a single
	// (tag ^ word) step would collide whenever tag-xor-word ties
	// (e.g. uint64(1) under tag 2 vs int(0) under tag 3).
	seed := uint64(valueSeed)
	switch x := v.(type) {
	case nil:
		return sched.MixKey(seed, 1)
	case uint64:
		return sched.MixKey(seed, 2, x)
	case int:
		return sched.MixKey(seed, 3, uint64(x))
	case bool:
		if x {
			return sched.MixKey(seed, 4, 1)
		}
		return sched.MixKey(seed, 4, 0)
	case string:
		h := fnv.New64a()
		h.Write([]byte(x))
		return sched.MixKey(seed, 5, h.Sum64())
	default:
		h := fnv.New64a()
		fmt.Fprintf(h, "%T:%v", v, v)
		return sched.MixKey(seed, 6, h.Sum64())
	}
}

// write stores v in register i (no scheduling; use Mem for model runs).
func (m *Shared) write(i int, v Value) error {
	m.writes++
	if err := m.regs[i].Write(v); err != nil {
		m.observe(i, opError, opWrite, valueWord(v))
		return fmt.Errorf("R%d: %w", i, err)
	}
	m.observe(i, opWrite, valueWord(v))
	return nil
}

// read returns the content of register j as observed by process pid.
func (m *Shared) read(pid, j int) Value {
	m.reads++
	v := m.regs[j].Read()
	m.observe(pid, opRead, m.rel(pid, j), valueWord(v))
	return v
}

// snapshot returns an atomic copy of all registers, observed by pid.
// The history records the values rotated to start at pid's own
// register, keeping the hash relabelling-invariant.
func (m *Shared) snapshot(pid int) []Value {
	m.snapshots++
	n := len(m.regs)
	out := make([]Value, n)
	words := make([]uint64, 0, n+1)
	words = append(words, opSnapshot)
	for i := 0; i < n; i++ {
		out[i] = m.regs[i].Read()
	}
	for off := 0; off < n; off++ {
		words = append(words, valueWord(out[(pid+off)%n]))
	}
	m.observe(pid, words...)
	return out
}

// writeInput stores v in input register i (write-once).
func (m *Shared) writeInput(i int, v Value) error {
	if err := m.inputs[i].Write(v); err != nil {
		m.observe(i, opError, opWriteInput, valueWord(v))
		return fmt.Errorf("I%d: %w", i, err)
	}
	m.observe(i, opWriteInput, valueWord(v))
	return nil
}

// readInput returns the content of input register j, nil (⊥) if unwritten,
// as observed by process pid.
func (m *Shared) readInput(pid, j int) Value {
	v := m.inputs[j].Read()
	m.observe(pid, opReadInput, m.rel(pid, j), valueWord(v))
	return v
}

// Component returns process i's canonical-state component: its history
// hash folded with its register and input-register contents. Absolute
// process ids appear nowhere in it, so for id-symmetric protocols the
// multiset of components determines the global state up to relabelling.
func (m *Shared) Component(i int) uint64 {
	w := sched.MixKey(m.hist[i], valueWord(m.regs[i].Read()))
	if m.inputs[i].Written() {
		return sched.MixKey(w, 1, valueWord(m.inputs[i].Read()))
	}
	return sched.MixKey(w, 0)
}

// CanonicalKey fingerprints the global state (register contents plus
// per-process local state via history hashes), with process-relabelling
// symmetry reduction. It must be called only while no process is mid-
// operation — in explorations, from a Scheduler.Next hook, where every
// live process is parked. Sound as a memo key for id-symmetric systems
// with relabelling-invariant aggregates; see sched.Canonicalizer.
func (m *Shared) CanonicalKey() sched.StateKey {
	m.canon.Reset()
	for i := range m.regs {
		m.canon.Proc(m.Component(i))
	}
	return m.canon.Key()
}

// Peek returns the current content of register j without counting an
// operation. It is intended for test assertions and StepWhen conditions,
// not for protocol steps.
func (m *Shared) Peek(j int) Value { return m.regs[j].Read() }

// InputWritten reports whether input register I_j has been written. Like
// Peek it counts no operation and is meant for StepWhen conditions.
func (m *Shared) InputWritten(j int) bool { return m.inputs[j].Written() }

// PeekAll returns a copy of all register contents without counting an
// operation (for assertions).
func (m *Shared) PeekAll() []Value {
	out := make([]Value, len(m.regs))
	for i, r := range m.regs {
		out[i] = r.Read()
	}
	return out
}

// Mem binds a process handle to a shared memory. Every method performs
// exactly one scheduler step, making it one atomic operation of the model.
type Mem struct {
	P *sched.Proc
	S *Shared
}

// Bind returns the memory binding for process p.
func Bind(p *sched.Proc, s *Shared) Mem { return Mem{P: p, S: s} }

// Write writes v to the process's own register R_me (one step).
func (pm Mem) Write(v Value) error {
	pm.P.Step()
	return pm.S.write(pm.P.ID, v)
}

// Read returns the content of register R_j (one step).
func (pm Mem) Read(j int) Value {
	pm.P.Step()
	return pm.S.read(pm.P.ID, j)
}

// Snapshot returns an atomic snapshot of all registers (one step). The
// model grants snapshot as a primitive; Lemma 2.3 (Borowsky-Gafni) shows
// it is implementable from read/write, and package iis contains that
// implementation in the iterated setting.
func (pm Mem) Snapshot() []Value {
	pm.P.Step()
	return pm.S.snapshot(pm.P.ID)
}

// Collect reads all n registers one by one in index order (n steps).
func (pm Mem) Collect() []Value {
	out := make([]Value, pm.S.N())
	for j := range out {
		out[j] = pm.Read(j)
	}
	return out
}

// WriteInput writes the process's input to its write-once register I_me
// (one step).
func (pm Mem) WriteInput(v Value) error {
	pm.P.Step()
	return pm.S.writeInput(pm.P.ID, v)
}

// ReadInput returns the content of input register I_j (one step).
func (pm Mem) ReadInput(j int) Value {
	pm.P.Step()
	return pm.S.readInput(pm.P.ID, j)
}

// AwaitRead blocks until cond holds of register R_j's content, then reads
// it (one step). It stands for the fair busy-wait loops of the paper's
// §6 constructions: the process is simply not enabled until the condition
// holds, which keeps executions finite while preserving solvability.
func (pm Mem) AwaitRead(j int, cond func(Value) bool) Value {
	pm.P.StepWhen(func() bool { return cond(pm.S.Peek(j)) })
	return pm.S.read(pm.P.ID, j)
}
