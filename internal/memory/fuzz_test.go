package memory

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/sched"
)

// fuzzKeys records every canonical key the fuzzer has produced and the
// canonical description of the memory state it fingerprinted: two
// different descriptions landing on one key would be a genuine hash
// collision on the small spaces the fuzzer explores.
var fuzzKeys = struct {
	sync.Mutex
	m map[sched.StateKey]string
}{m: map[sched.StateKey]string{}}

// FuzzCanonicalState drives random operation streams against a small
// 2-process bounded memory and checks the canonicalization contract:
// idempotent, invariant under process relabelling (the mirrored
// stream lands on the same key), and collision-free across every
// distinct state the corpus reaches. It also checks Reset: the memory
// it leaves matches a fresh one, and replaying the stream on it
// reproduces the first key.
func FuzzCanonicalState(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x29, 0x12, 0x3b, 0x04})
	f.Add([]byte{0x23, 0x23, 0x01, 0x18, 0x30, 0x0a})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		m := New(2, 1)
		mir := New(2, 1)
		// logs[i] is the shadow model of process i's observations,
		// written in relabelling-invariant terms (relative indices).
		logs := [2][]string{}
		regs := [2]uint64{}
		inputs := [2]*uint64{}

		for _, b := range ops {
			pid := int(b>>3) & 1
			j := int(b>>4) & 1
			val := uint64(b>>5) & 1
			rel := (j - pid + 2) % 2
			err, merr := fuzzOp(m, b, 0), fuzzOp(mir, b, 1)
			if (err == nil) != (merr == nil) {
				t.Fatalf("mirror diverged on op %#x: %v vs %v", b, err, merr)
			}
			switch b % 5 {
			case 0: // write own register
				if err != nil {
					t.Fatalf("width-1 write of %d failed: %v", val, err)
				}
				regs[pid] = val
				logs[pid] = append(logs[pid], fmt.Sprintf("w%d", val))
			case 1: // read register j
				logs[pid] = append(logs[pid], fmt.Sprintf("r%d=%d", rel, regs[j]))
			case 2: // snapshot
				logs[pid] = append(logs[pid], fmt.Sprintf("s%d,%d", regs[pid], regs[pid^1]))
			case 3: // write input
				if err != nil {
					logs[pid] = append(logs[pid], fmt.Sprintf("wi!%d", val))
				} else {
					inputs[pid] = &val
					logs[pid] = append(logs[pid], fmt.Sprintf("wi%d", val))
				}
			case 4: // read input j
				if inputs[j] == nil {
					logs[pid] = append(logs[pid], fmt.Sprintf("ri%d=bot", rel))
				} else {
					logs[pid] = append(logs[pid], fmt.Sprintf("ri%d=%d", rel, *inputs[j]))
				}
			}
		}

		key := m.CanonicalKey()
		if again := m.CanonicalKey(); again != key {
			t.Fatalf("canonicalization not idempotent: %x then %x", key, again)
		}
		if mk := mir.CanonicalKey(); mk != key {
			t.Fatalf("mirrored stream landed on %x, original on %x", mk, key)
		}

		// A reset memory is indistinguishable from a fresh one, and
		// the same stream replayed on it lands on the same key.
		m.Reset()
		fresh := New(2, 1)
		if got, want := m.CanonicalKey(), fresh.CanonicalKey(); got != want {
			t.Fatalf("reset memory keys %x, a fresh one %x", got, want)
		}
		for i := 0; i < 2; i++ {
			if got, want := m.Component(i), fresh.Component(i); got != want {
				t.Fatalf("reset component %d = %x, fresh %x", i, got, want)
			}
			if m.InputWritten(i) != fresh.InputWritten(i) {
				t.Fatalf("reset input register %d written = %v", i, m.InputWritten(i))
			}
		}
		if got, want := m.PeekAll(), fresh.PeekAll(); !slices.Equal(got, want) {
			t.Fatalf("reset registers %v, fresh %v", got, want)
		}
		if r, w, sn := m.Ops(); r != 0 || w != 0 || sn != 0 {
			t.Fatalf("reset Ops = (%d,%d,%d), want (0,0,0)", r, w, sn)
		}
		for _, b := range ops {
			fuzzOp(m, b, 0)
		}
		if again := m.CanonicalKey(); again != key {
			t.Fatalf("stream replayed after Reset landed on %x, first run on %x", again, key)
		}

		// Collision check: the canonical description (sorted
		// per-process components in relabelling-invariant terms) must
		// map one-to-one onto keys across the whole corpus.
		desc := make([]string, 2)
		for i := 0; i < 2; i++ {
			in := "bot"
			if inputs[i] != nil {
				in = fmt.Sprint(*inputs[i])
			}
			desc[i] = fmt.Sprintf("reg=%d in=%s log=%v", regs[i], in, logs[i])
		}
		sort.Strings(desc)
		state := fmt.Sprint(desc)
		fuzzKeys.Lock()
		defer fuzzKeys.Unlock()
		if prev, ok := fuzzKeys.m[key]; ok {
			if prev != state {
				t.Fatalf("canonical key collision on %x:\n  %s\n  %s", key, prev, state)
			}
		} else {
			fuzzKeys.m[key] = state
		}
	})
}

// fuzzOp applies the operation fuzz byte b encodes to m, with the
// process and register indices xored with flip (1 runs the mirrored
// stream), and returns the operation's error.
func fuzzOp(m *Shared, b byte, flip int) error {
	pid := int(b>>3)&1 ^ flip
	j := int(b>>4)&1 ^ flip
	val := uint64(b>>5) & 1
	switch b % 5 {
	case 0: // write own register
		return m.write(pid, val)
	case 1: // read register j
		m.read(pid, j)
	case 2: // snapshot
		m.snapshot(pid)
	case 3: // write input
		return m.writeInput(pid, val)
	case 4: // read input j
		m.readInput(pid, j)
	}
	return nil
}
