package snapshot

import (
	"fmt"
	"testing"

	"repro/internal/memory"
	"repro/internal/sched"
)

// scanRecord is what a test process observed: the per-process update
// counters visible in one scan (0 = unseen).
type scanRecord struct {
	pid  int
	vers []int
}

// versOf converts a scan's values (ints = update counters) to a vector.
func versOf(n int, view []memory.Value) []int {
	out := make([]int, n)
	for i, v := range view {
		if u, ok := v.(int); ok {
			out[i] = u
		}
	}
	return out
}

// atomicSystem builds n processes that each perform `updates` updates
// (writing their running counter) interleaved with scans, recording all
// scans.
func atomicSystem(n, updates int, scans *[]scanRecord) []sched.ProcFunc {
	mem := memory.New(n, 0)
	procs := make([]sched.ProcFunc, n)
	for i := 0; i < n; i++ {
		procs[i] = func(p *sched.Proc) error {
			obj := NewAtomic(memory.Bind(p, mem))
			for u := 1; u <= updates; u++ {
				if err := obj.Update(u); err != nil {
					return err
				}
				view, err := obj.Scan()
				if err != nil {
					return err
				}
				*scans = append(*scans, scanRecord{pid: p.ID, vers: versOf(n, view)})
			}
			return nil
		}
	}
	return procs
}

// checkScans verifies the linearizability witnesses: all scan version
// vectors pairwise comparable, and each process's own scans monotone and
// self-inclusive.
func checkScans(n, updates int, scans []scanRecord) error {
	for i := 0; i < len(scans); i++ {
		for j := i + 1; j < len(scans); j++ {
			if !Comparable(scans[i].vers, scans[j].vers) {
				return fmt.Errorf("scans %v and %v incomparable", scans[i], scans[j])
			}
		}
	}
	last := map[int][]int{}
	progress := map[int]int{}
	for _, s := range scans {
		progress[s.pid]++
		// Self-inclusion: a scan after my u-th update shows ≥ u for me.
		if s.vers[s.pid] < progress[s.pid] {
			return fmt.Errorf("process %d scan %v misses own update %d", s.pid, s.vers, progress[s.pid])
		}
		if prev, ok := last[s.pid]; ok {
			for c := 0; c < n; c++ {
				if s.vers[c] < prev[c] {
					return fmt.Errorf("process %d scans regressed: %v then %v", s.pid, prev, s.vers)
				}
			}
		}
		last[s.pid] = s.vers
	}
	return nil
}

func TestAtomicSnapshotExhaustiveTwoProcs(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive exploration")
	}
	var scans []scanRecord
	factory := func() []sched.ProcFunc {
		scans = nil
		return atomicSystem(2, 1, &scans)
	}
	runs, err := sched.ExploreAll(factory, 1<<16, func(r *sched.Result) {
		if e := r.Err(); e != nil {
			t.Fatalf("%v", e)
		}
		if err := checkScans(2, 1, scans); err != nil {
			t.Fatalf("schedule %v: %v", r.Schedule, err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if runs == 0 {
		t.Fatal("no runs")
	}
}

func TestAtomicSnapshotRandomSchedules(t *testing.T) {
	for _, n := range []int{3, 4} {
		for seed := int64(0); seed < 40; seed++ {
			var scans []scanRecord
			procs := atomicSystem(n, 3, &scans)
			res, err := sched.Run(sched.Config{Scheduler: sched.NewRandom(seed)}, procs)
			if err != nil {
				t.Fatal(err)
			}
			if e := res.Err(); e != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, e)
			}
			if err := checkScans(n, 3, scans); err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
		}
	}
}

func TestAtomicSnapshotUnderCrashes(t *testing.T) {
	n := 3
	for seed := int64(0); seed < 20; seed++ {
		var scans []scanRecord
		procs := atomicSystem(n, 2, &scans)
		scheduler := sched.NewCrashAt(sched.NewRandom(seed), map[int]int{int(seed) % n: int(seed * 3)})
		res, err := sched.Run(sched.Config{Scheduler: scheduler}, procs)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range res.Errs {
			if e != nil {
				t.Fatalf("seed %d: proc %d: %v", seed, i, e)
			}
		}
		// Scans of the surviving processes must still be comparable.
		for i := 0; i < len(scans); i++ {
			for j := i + 1; j < len(scans); j++ {
				if !Comparable(scans[i].vers, scans[j].vers) {
					t.Fatalf("seed %d: incomparable scans under crash", seed)
				}
			}
		}
	}
}

func TestAtomicSnapshotSequentialSemantics(t *testing.T) {
	// With processes running one after another, each later scan contains
	// every earlier update.
	n := 3
	var scans []scanRecord
	procs := atomicSystem(n, 2, &scans)
	res, err := sched.Run(sched.Config{Scheduler: sched.Sequential{Order: []int{0, 1, 2}}}, procs)
	if err != nil {
		t.Fatal(err)
	}
	if e := res.Err(); e != nil {
		t.Fatal(e)
	}
	final := scans[len(scans)-1]
	for c := 0; c < n; c++ {
		if final.vers[c] != 2 {
			t.Fatalf("final scan %v missing updates", final.vers)
		}
	}
}

func TestComparable(t *testing.T) {
	tests := []struct {
		a, b []int
		want bool
	}{
		{[]int{1, 2}, []int{1, 2}, true},
		{[]int{1, 2}, []int{2, 2}, true},
		{[]int{2, 1}, []int{1, 2}, false},
		{[]int{0, 0}, []int{5, 9}, true},
	}
	for _, tc := range tests {
		if got := Comparable(tc.a, tc.b); got != tc.want {
			t.Errorf("Comparable(%v,%v) = %v", tc.a, tc.b, got)
		}
	}
}

// --- immediate snapshot ----------------------------------------------------

// immediateSystem runs the one-shot object with values 10+pid.
func immediateSystem(n int, snaps [][]memory.Value) []sched.ProcFunc {
	mem := memory.New(n, 0)
	procs := make([]sched.ProcFunc, n)
	for i := 0; i < n; i++ {
		procs[i] = func(p *sched.Proc) error {
			obj := NewImmediate(memory.Bind(p, mem))
			view, err := obj.WriteSnapshot(10 + p.ID)
			if err != nil {
				return err
			}
			snaps[p.ID] = view
			return nil
		}
	}
	return procs
}

// checkIS verifies validity, self-containment, inclusion, and immediacy.
func checkIS(n int, snaps [][]memory.Value, have []bool) error {
	val := func(j int) memory.Value { return 10 + j }
	subset := func(a, b []memory.Value) bool {
		for j := 0; j < n; j++ {
			if a[j] != nil && b[j] != a[j] {
				return false
			}
		}
		return true
	}
	for i := 0; i < n; i++ {
		if !have[i] {
			continue
		}
		s := snaps[i]
		if s[i] != val(i) {
			return fmt.Errorf("self-containment: S_%d = %v", i, s)
		}
		for j := 0; j < n; j++ {
			if s[j] != nil && s[j] != val(j) {
				return fmt.Errorf("validity: S_%d[%d] = %v", i, j, s[j])
			}
		}
		for j := 0; j < n; j++ {
			if i == j || !have[j] {
				continue
			}
			if !subset(s, snaps[j]) && !subset(snaps[j], s) {
				return fmt.Errorf("inclusion: S_%d=%v vs S_%d=%v", i, s, j, snaps[j])
			}
			if s[j] != nil && !subset(snaps[j], s) {
				return fmt.Errorf("immediacy: S_%d contains %d but S_%d ⊄ S_%d", i, j, j, i)
			}
		}
	}
	return nil
}

func TestImmediateSnapshotExhaustiveTwoProcs(t *testing.T) {
	outcomes := map[string]bool{}
	var snaps [][]memory.Value
	factory := func() []sched.ProcFunc {
		snaps = make([][]memory.Value, 2)
		return immediateSystem(2, snaps)
	}
	runs, err := sched.ExploreAll(factory, 1<<16, func(r *sched.Result) {
		if e := r.Err(); e != nil {
			t.Fatal(e)
		}
		if err := checkIS(2, snaps, []bool{true, true}); err != nil {
			t.Fatalf("schedule %v: %v", r.Schedule, err)
		}
		outcomes[fmt.Sprint(snaps)] = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if runs == 0 {
		t.Fatal("no runs")
	}
	// The one-round 2-process IS complex has exactly 3 facets.
	if len(outcomes) != 3 {
		t.Fatalf("distinct outcomes = %d, want 3", len(outcomes))
	}
}

func TestImmediateSnapshotRandomSchedules(t *testing.T) {
	for _, n := range []int{3, 4, 5} {
		for seed := int64(0); seed < 60; seed++ {
			snaps := make([][]memory.Value, n)
			procs := immediateSystem(n, snaps)
			res, err := sched.Run(sched.Config{Scheduler: sched.NewRandom(seed)}, procs)
			if err != nil {
				t.Fatal(err)
			}
			if e := res.Err(); e != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, e)
			}
			have := make([]bool, n)
			for i := range have {
				have[i] = true
			}
			if err := checkIS(n, snaps, have); err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
		}
	}
}

func TestImmediateSnapshotSolo(t *testing.T) {
	// A solo process obtains the singleton snapshot of itself.
	n := 3
	snaps := make([][]memory.Value, n)
	procs := immediateSystem(n, snaps)
	res, err := sched.Run(sched.Config{Scheduler: sched.Solo{Pid: 1}}, procs)
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	if snaps[1] == nil {
		t.Fatal("solo process got no snapshot")
	}
	for j := 0; j < n; j++ {
		want := memory.Value(nil)
		if j == 1 {
			want = 11
		}
		if snaps[1][j] != want {
			t.Fatalf("solo snapshot = %v", snaps[1])
		}
	}
}

func TestImmediateSnapshotUnderCrashes(t *testing.T) {
	n := 4
	for seed := int64(0); seed < 20; seed++ {
		snaps := make([][]memory.Value, n)
		procs := immediateSystem(n, snaps)
		victim := int(seed) % n
		scheduler := sched.NewCrashAt(sched.NewRandom(seed), map[int]int{victim: int(seed)})
		res, err := sched.Run(sched.Config{Scheduler: scheduler}, procs)
		if err != nil {
			t.Fatal(err)
		}
		have := make([]bool, n)
		for i := range have {
			have[i] = res.Correct(i) && snaps[i] != nil
		}
		if err := checkIS(n, snaps, have); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Wait-freedom: every correct process obtained a snapshot.
		for i := 0; i < n; i++ {
			if res.Correct(i) && snaps[i] == nil {
				t.Fatalf("seed %d: correct process %d got no snapshot", seed, i)
			}
		}
	}
}

func BenchmarkAtomicScan(b *testing.B) {
	var scans []scanRecord
	for i := 0; i < b.N; i++ {
		scans = nil
		procs := atomicSystem(4, 2, &scans)
		if _, err := sched.Run(sched.Config{Scheduler: sched.NewRandom(int64(i))}, procs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkImmediateSnapshot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		snaps := make([][]memory.Value, 5)
		procs := immediateSystem(5, snaps)
		if _, err := sched.Run(sched.Config{Scheduler: sched.NewRandom(int64(i))}, procs); err != nil {
			b.Fatal(err)
		}
	}
}
