package impossibility

import (
	"testing"

	"repro/internal/agreement"
)

func TestExecutionGraphConnected(t *testing.T) {
	// §3.1: the two solo vertices must be connected — otherwise the two
	// processes would solve consensus (Lemma 2.1).
	for k := 1; k <= 4; k++ {
		g, err := BuildAlg1Graph(k)
		if err != nil {
			t.Fatal(err)
		}
		path := g.Path()
		if path == nil {
			t.Fatalf("k=%d: solo vertices disconnected", k)
		}
		v1, v2 := g.SoloVertices()
		if path[0] != v1 || path[len(path)-1] != v2 {
			t.Fatalf("k=%d: path endpoints %v..%v", k, path[0], path[len(path)-1])
		}
	}
}

func TestExecutionGraphPathLength(t *testing.T) {
	// The path carries outputs from 0 to 1 in ε = 1/(2k+1) hops, so its
	// length is at least 1/ε = 2k+1.
	for k := 1; k <= 4; k++ {
		g, err := BuildAlg1Graph(k)
		if err != nil {
			t.Fatal(err)
		}
		path := g.Path()
		if len(path)-1 < g.Den {
			t.Errorf("k=%d: path length %d < 1/ε = %d", k, len(path)-1, g.Den)
		}
	}
}

func TestExecutionGraphEdgesRespectEps(t *testing.T) {
	// Every edge joins decisions at most ε apart (the protocol is
	// correct), so consecutive path outputs differ by ≤ 1 numerator unit.
	g, err := BuildAlg1Graph(3)
	if err != nil {
		t.Fatal(err)
	}
	for a, nbs := range g.Adj {
		for b := range nbs {
			d := a.Num - b.Num
			if d < 0 {
				d = -d
			}
			if d > 1 {
				t.Fatalf("edge %v-%v violates ε", a, b)
			}
		}
	}
	path := g.Path()
	for i := 1; i < len(path); i++ {
		d := path[i].Num - path[i-1].Num
		if d < 0 {
			d = -d
		}
		if d > 1 {
			t.Fatalf("path step %v→%v jumps by %d", path[i-1], path[i], d)
		}
	}
}

func TestCollisionsPigeonhole(t *testing.T) {
	// With 1-bit registers there are at most 2^2 = 4 memory states, so
	// for every k the executions fall into ≤ 4 buckets.
	for k := 1; k <= 4; k++ {
		cs, err := FindCollisions(k)
		if err != nil {
			t.Fatal(err)
		}
		if len(cs) > 4 {
			t.Fatalf("k=%d: %d memory states with 1-bit registers", k, len(cs))
		}
		for _, c := range cs {
			if c.Mem[0] > 1 || c.Mem[1] > 1 {
				t.Fatalf("k=%d: memory state %v exceeds 1 bit", k, c.Mem)
			}
		}
	}
}

func TestCollisionForcedBeyondThreshold(t *testing.T) {
	// Prop 4.1's mechanism: once the output classes outnumber the memory
	// states (2k+1 > 2^{2s+1} = 8, i.e. k ≥ 4), some memory state is
	// shared by executions whose outputs are ≥ 2 units apart — a late
	// third process is forced ≥ 2ε from one of them.
	c, err := WorstCollision(4)
	if err != nil {
		t.Fatal(err)
	}
	if c.Gap() < 2 {
		t.Fatalf("k=4: worst collision gap %d < 2 (pairs %v)", c.Gap(), c.Pairs)
	}
}

func TestCollisionGapGrowsWithPrecision(t *testing.T) {
	// Fixing the register width at 1 bit and refining ε, the gap within
	// a single memory state keeps growing (3, 3, 5, 7 at k = 2, 4, 6,
	// 8): bounded registers cannot track the finer output scale — the
	// quantitative heart of Theorem 1.1.
	for k, want := range map[int]int{2: 3, 4: 3, 6: 5, 8: 7} {
		c, err := WorstCollision(k)
		if err != nil {
			t.Fatal(err)
		}
		if c.Gap() != want {
			t.Errorf("k=%d: worst gap %d (mem %v, pairs %v), want %d", k, c.Gap(), c.Mem, c.Pairs, want)
		}
	}
}

func TestCountingTable(t *testing.T) {
	rows, err := CountingTable(3, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	// n=3, t=2: n-t+1 = 2 writers; s bits → 2^{2s} states, k = 2^{2s+1}+1.
	for i, r := range rows {
		s := i + 1
		if r.States != uint64(1)<<(2*s) {
			t.Errorf("s=%d: states %d", s, r.States)
		}
		if r.KThreshold != 2*r.States+1 {
			t.Errorf("s=%d: threshold %d", s, r.KThreshold)
		}
	}
	// The floor is strictly monotone in the width: wider registers allow
	// finer agreement before the pigeonhole bites.
	for i := 1; i < len(rows); i++ {
		if rows[i].EpsFloorDen() <= rows[i-1].EpsFloorDen() {
			t.Error("ε floor not monotone in register width")
		}
	}
}

func TestCountingTableRequiresMajorityFailures(t *testing.T) {
	if _, err := CountingTable(5, 2, 3); err == nil {
		t.Fatal("accepted t ≤ n/2 — the bound only holds for t > n/2")
	}
}

func TestClaim41AchievableOutputSets(t *testing.T) {
	// Claim 4.1's constructive half: every adjacent output pair {m, m+1}
	// is the exact output set of some 2-process execution — these are
	// the mutually exclusive classes the pigeonhole argument counts.
	for _, k := range []int{2, 3, 4} {
		achieved, err := AchievableOutputSets(k)
		if err != nil {
			t.Fatal(err)
		}
		for m, ok := range achieved {
			if !ok {
				t.Errorf("k=%d: output set {%d,%d}/%d never achieved", k, m, m+1, 2*k+1)
			}
		}
	}
}

func TestCollisionReportsDeterministic(t *testing.T) {
	a, err := FindCollisions(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FindCollisions(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("nondeterministic collision count")
	}
	for i := range a {
		if a[i].Mem != b[i].Mem || a[i].Gap() != b[i].Gap() {
			t.Fatal("nondeterministic collision ordering")
		}
	}
}

// TestOutcomesMatchExhaustive pins the memoized outcome sets every
// analysis here derives from to the exhaustive ExploreAlg1 walk: the
// same distinct (decisions, final registers) outcomes and the same
// execution count. -short stops at k = 3, before the exhaustive walks
// that take seconds.
func TestOutcomesMatchExhaustive(t *testing.T) {
	maxK := 5
	if testing.Short() {
		maxK = 3
	}
	for k := 1; k <= maxK; k++ {
		want := outcomeSet{}
		runs, err := agreement.ExploreAlg1(k, [2]uint64{0, 1}, func(ar *agreement.Alg1Run) {
			if ar.Decided[0] && ar.Decided[1] {
				want[outcome{nums: [2]int{ar.Outs[0].Num, ar.Outs[1].Num}, mem: ar.FinalRegisters()}] = struct{}{}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		got, execs, err := outcomes(k)
		if err != nil {
			t.Fatal(err)
		}
		if execs != runs {
			t.Errorf("k=%d: memo accounts %d executions, exhaustive ran %d", k, execs, runs)
		}
		if len(got) != len(want) {
			t.Errorf("k=%d: %d distinct outcomes, exhaustive has %d", k, len(got), len(want))
		}
		for o := range want {
			if _, ok := got[o]; !ok {
				t.Errorf("k=%d: memo misses outcome %+v", k, o)
			}
		}
	}
}
