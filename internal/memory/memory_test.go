package memory

import (
	"errors"
	"testing"

	"repro/internal/register"
	"repro/internal/sched"
)

func TestSharedBoundedInit(t *testing.T) {
	m := New(3, 2)
	if m.N() != 3 {
		t.Fatalf("N = %d", m.N())
	}
	if m.Width() != 2 {
		t.Fatalf("Width = %d", m.Width())
	}
	for j := 0; j < 3; j++ {
		if got := m.Peek(j); got != uint64(0) {
			t.Fatalf("R%d initial = %v, want 0", j, got)
		}
	}
}

func TestSharedUnboundedInit(t *testing.T) {
	m := New(2, 0)
	for j := 0; j < 2; j++ {
		if got := m.Peek(j); got != nil {
			t.Fatalf("R%d initial = %v, want nil", j, got)
		}
	}
}

// TestSharedResetUnbounded: Reset puts an unbounded memory's registers
// back to nil, unwrites its inputs and zeroes its counters, leaving
// the key of a fresh memory, and it allocates nothing.
func TestSharedResetUnbounded(t *testing.T) {
	m := New(2, 0)
	res := runOne(t, m, 2, func(pm Mem) error {
		if err := pm.Write("v"); err != nil {
			return err
		}
		_ = pm.Read(1)
		return pm.WriteInput(7)
	})
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	m.Reset()
	for j := 0; j < 2; j++ {
		if got := m.Peek(j); got != nil {
			t.Errorf("R%d after Reset = %v, want nil", j, got)
		}
		if m.InputWritten(j) {
			t.Errorf("I%d written after Reset", j)
		}
	}
	if r, w, s := m.Ops(); r != 0 || w != 0 || s != 0 {
		t.Errorf("Ops after Reset = (%d,%d,%d), want (0,0,0)", r, w, s)
	}
	if got, want := m.CanonicalKey(), New(2, 0).CanonicalKey(); got != want {
		t.Errorf("reset memory keys %x, a fresh one %x", got, want)
	}
	if n := testing.AllocsPerRun(10, m.Reset); n != 0 {
		t.Errorf("Reset allocates %v times, want 0", n)
	}
}

// runOne runs a single process against the memory with a trivial scheduler.
func runOne(t *testing.T, m *Shared, n int, body func(pm Mem) error) *sched.Result {
	t.Helper()
	procs := make([]sched.ProcFunc, n)
	for i := range procs {
		procs[i] = func(p *sched.Proc) error {
			if p.ID == 0 {
				return body(Bind(p, m))
			}
			return nil
		}
	}
	res, err := sched.Run(sched.Config{Scheduler: sched.Lowest{}}, procs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestMemWriteReadSteps(t *testing.T) {
	m := New(2, 3)
	res := runOne(t, m, 2, func(pm Mem) error {
		if err := pm.Write(uint64(5)); err != nil {
			return err
		}
		if got := pm.Read(0); got != uint64(5) {
			t.Errorf("Read(0) = %v", got)
		}
		if got := pm.Read(1); got != uint64(0) {
			t.Errorf("Read(1) = %v", got)
		}
		return nil
	})
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if res.Steps[0] != 3 {
		t.Fatalf("Steps[0] = %d, want 3 (1 write + 2 reads)", res.Steps[0])
	}
}

func TestMemBoundedViolation(t *testing.T) {
	m := New(2, 1)
	res := runOne(t, m, 2, func(pm Mem) error {
		return pm.Write(uint64(2)) // 2 bits into a 1-bit register
	})
	if err := res.Errs[0]; !errors.Is(err, register.ErrTooWide) {
		t.Fatalf("Errs[0] = %v, want ErrTooWide", err)
	}
}

func TestMemSnapshotAtomicSingleStep(t *testing.T) {
	m := New(3, 4)
	res := runOne(t, m, 3, func(pm Mem) error {
		if err := pm.Write(uint64(7)); err != nil {
			return err
		}
		s := pm.Snapshot()
		if len(s) != 3 {
			t.Errorf("snapshot len = %d", len(s))
		}
		if s[0] != uint64(7) || s[1] != uint64(0) || s[2] != uint64(0) {
			t.Errorf("snapshot = %v", s)
		}
		return nil
	})
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if res.Steps[0] != 2 {
		t.Fatalf("Steps[0] = %d, want 2 (write + snapshot)", res.Steps[0])
	}
}

func TestMemCollectCostsNSteps(t *testing.T) {
	m := New(4, 0)
	res := runOne(t, m, 4, func(pm Mem) error {
		_ = pm.Collect()
		return nil
	})
	if res.Steps[0] != 4 {
		t.Fatalf("Steps[0] = %d, want 4 (one read per register)", res.Steps[0])
	}
}

func TestMemInputRegisters(t *testing.T) {
	m := New(2, 1)
	procs := []sched.ProcFunc{
		func(p *sched.Proc) error {
			pm := Bind(p, m)
			if err := pm.WriteInput("left"); err != nil {
				return err
			}
			if got := pm.ReadInput(1); got != nil {
				t.Errorf("ReadInput(1) before write = %v, want ⊥", got)
			}
			return nil
		},
		func(p *sched.Proc) error {
			pm := Bind(p, m)
			if err := pm.WriteInput("right"); err != nil {
				return err
			}
			if got := pm.ReadInput(0); got != "left" {
				t.Errorf("ReadInput(0) = %v, want left", got)
			}
			return nil
		},
	}
	res, err := sched.Run(sched.Config{Scheduler: sched.Lowest{}}, procs)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestMemInputWriteOnce(t *testing.T) {
	m := New(1, 1)
	res := runOne(t, m, 1, func(pm Mem) error {
		if err := pm.WriteInput(uint64(1)); err != nil {
			return err
		}
		return pm.WriteInput(uint64(0))
	})
	if !errors.Is(res.Errs[0], register.ErrAlreadyWritten) {
		t.Fatalf("Errs[0] = %v, want ErrAlreadyWritten", res.Errs[0])
	}
}

func TestMemAwaitRead(t *testing.T) {
	m := New(2, 1)
	procs := []sched.ProcFunc{
		func(p *sched.Proc) error {
			pm := Bind(p, m)
			got := pm.AwaitRead(1, func(v Value) bool { return v == uint64(1) })
			if got != uint64(1) {
				t.Errorf("AwaitRead = %v", got)
			}
			return nil
		},
		func(p *sched.Proc) error {
			pm := Bind(p, m)
			pm.P.Step() // burn a step so the waiter parks first under RR
			return pm.Write(uint64(1))
		},
	}
	res, err := sched.Run(sched.Config{Scheduler: &sched.RoundRobin{}}, procs)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestMemOpCounters(t *testing.T) {
	m := New(2, 0)
	res := runOne(t, m, 2, func(pm Mem) error {
		if err := pm.Write("v"); err != nil {
			return err
		}
		_ = pm.Read(1)
		_ = pm.Snapshot()
		return nil
	})
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	r, w, s := m.Ops()
	if r != 1 || w != 1 || s != 1 {
		t.Fatalf("Ops = (%d,%d,%d), want (1,1,1)", r, w, s)
	}
}

func TestMemInterleavedVisibility(t *testing.T) {
	// Under exhaustive exploration, a reader sees either the old or the
	// new value, and after the writer's write has been scheduled it always
	// sees the new one.
	factory := func() []sched.ProcFunc {
		m := New(2, 1)
		return []sched.ProcFunc{
			func(p *sched.Proc) error {
				return Bind(p, m).Write(uint64(1))
			},
			func(p *sched.Proc) error {
				pm := Bind(p, m)
				v := pm.Read(0)
				if v != uint64(0) && v != uint64(1) {
					t.Errorf("impossible read %v", v)
				}
				return nil
			},
		}
	}
	runs, err := sched.ExploreAll(factory, 0, func(r *sched.Result) {
		if e := r.Err(); e != nil {
			t.Errorf("execution failed: %v", e)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Fatalf("runs = %d, want 2", runs)
	}
}
