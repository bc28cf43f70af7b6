package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestMain lets the smoke test's runs start this test binary as their
// probe server, the way the benchmark binary starts itself.
func TestMain(m *testing.M) {
	probeMain(os.Args[1:])
	os.Exit(m.Run())
}

func TestPercentileIsNearestRankSample(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	for _, c := range []struct{ q, want float64 }{
		{0.50, 50}, {0.90, 90}, {0.99, 99}, {1, 100}, {0, 1}, {0.001, 1},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{3, 1, 2}, 0.9); got != 3 {
		t.Errorf("p90 of three samples = %v, want the largest", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 3, 2, 1}, 1.25, 3.75},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{10, 20, 30, 40, 50}, 15, 45},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := relSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("relSpread = %v, want 1", got)
	}
}

func at(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

func TestIntervalUnionAndSelfTime(t *testing.T) {
	ivs := []interval{{at(10), at(20)}, {at(15), at(30)}, {at(40), at(45)}, {at(41), at(42)}}
	if got := unionLength(ivs); got != 25*time.Millisecond {
		t.Errorf("union = %v, want 25ms", got)
	}
	if got := unionLength(nil); got != 0 {
		t.Errorf("union of nothing = %v", got)
	}
	// A request from 0 to 50 whose fetches cover 25ms of it, plus one
	// fetch sticking out past its end (clipped to the request).
	req := interval{at(0), at(50)}
	children := append(ivs, interval{at(48), at(60)})
	if got := selfTime(req, children); got != 23*time.Millisecond {
		t.Errorf("self time = %v, want 23ms", got)
	}
}

func TestRotationsAreSeededPermutations(t *testing.T) {
	const n, passes = 23, 4
	// walk returns each client's first passes rotations, in order.
	walk := func(seed int64) [][]int {
		var out [][]int
		for _, r := range rotations(seed, 2, n) {
			var order []int
			for k := 0; k < passes*n; k++ {
				order = append(order, r.next())
			}
			out = append(out, order)
		}
		return out
	}
	a := walk(7)
	if !reflect.DeepEqual(a, walk(7)) {
		t.Fatal("same seed gave different rotations")
	}
	if reflect.DeepEqual(a, walk(8)) {
		t.Fatal("different seeds gave the same rotations")
	}
	if reflect.DeepEqual(a[0], a[1]) {
		t.Fatal("both clients walk the same order")
	}
	for c, order := range a {
		if reflect.DeepEqual(order[:n], order[n:2*n]) {
			t.Errorf("client %d repeats its first rotation", c)
		}
		for p := 0; p < passes; p++ {
			s := append([]int(nil), order[p*n:(p+1)*n]...)
			sort.Ints(s)
			for i, v := range s {
				if v != i {
					t.Fatalf("client %d rotation %d, %v, is not a permutation of 0..%d", c, p, order[p*n:(p+1)*n], n-1)
				}
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name  string
		a, b  []float64
		dir   string
		bound float64
		want  string
	}{
		{"faster by 20% in every pair", base, scale(base, 0.8), "lower", 0.1, "improved"},
		{"slower by 20%", base, scale(base, 1.2), "lower", 0.1, "worse"},
		{"throughput down 20%", base, scale(base, 0.8), "higher", 0.1, "worse"},
		{"same numbers", base, base, "lower", 0.1, "unchanged"},
		{"slower by 5%, within the bound", base, scale(base, 1.05), "lower", 0.1, "unchanged"},
		{"spread wider than the bound", base, []float64{60, 140, 70, 130, 100, 90, 110, 80, 120, 100}, "lower", 0.1, "unresolved"},
		{"per-layer metric, every pair lost", base, scale(base, 1.2), "lower", 0, "worse"},
		{"per-layer metric, mixed", base, []float64{99, 102, 98, 101, 100, 99, 101, 100, 98, 102}, "lower", 0, "unchanged"},
	} {
		if got, _, _ := verdict(c.a, c.b, c.dir, c.bound); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
	// A gain needs nine tenths of the pairs: 8 wins of 10 is not one.
	b := scale(base, 0.8)
	b[0], b[1] = 200, 200
	if got, wins, pairs := verdict(base, b, "lower", 0.5); got == "improved" || wins != 8 || pairs != 10 {
		t.Errorf("8/10 wins: verdict %s with %d/%d wins", got, wins, pairs)
	}
}

// runsOf builds run files of one workload whose metric reads xs, with
// the runs at the indexes in bad marked not correct.
func runsOf(xs []float64, bad ...int) []runFile {
	out := make([]runFile, len(xs))
	for i, x := range xs {
		rep := report{result: result{Correct: true, Metrics: map[string]metric{"m": {x, "ms"}}}}
		for _, j := range bad {
			if i == j {
				rep.Correct = false
			}
		}
		out[i] = runFile{Workloads: map[string]report{"w": rep}}
	}
	return out
}

// A failed run drops its pair, and every later run keeps its partner.
func TestPairsStayAlignedAcrossAFailedRun(t *testing.T) {
	a := runsOf([]float64{1, 2, 3, 4})
	b := runsOf([]float64{10, 20, 30, 40, 50}, 1)
	va, vb := pairs(a, b, "w", "m")
	if !reflect.DeepEqual(va, []float64{1, 3, 4}) || !reflect.DeepEqual(vb, []float64{10, 30, 40}) {
		t.Errorf("pairs = %v, %v; want [1 3 4], [10 30 40]", va, vb)
	}
	var out bytes.Buffer
	sp := &spec{Workloads: []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{{Name: "w"}}, EndToEnd: []specMetric{{Name: "m", Unit: "ms", Better: "lower", Bound: 0.1}}}
	if code := compareTable(&out, sp, a, b); code != 1 || !strings.Contains(out.String(), "B run 2 was not correct") {
		t.Errorf("a failed run of B: exit %d\n%s", code, out.String())
	}
}

// A cycle on a host running at half speed reads, once normalised, the
// same as one on a host at full speed: its latencies and CPU times are
// halved and its rate doubled. Each set-up is normalised by its own
// batch's index.
func TestNormalisation(t *testing.T) {
	if got := speedIndex(probeNominal); got != 1 {
		t.Errorf("index at the nominal rate = %v, want 1", got)
	}
	if got := speedIndex(probeNominal * math.Pow(2, 1/speedExponent)); math.Abs(got-2) > 1e-12 {
		t.Errorf("index = %v, want 2", got)
	}
	cycleOf := func(n int, lat, cpu time.Duration, speed float64) cycle {
		c := cycle{dur: time.Second, cpu: cpu, speed: speed}
		for i := 0; i < n; i++ {
			c.samples = append(c.samples, sample{start: at(0), end: at(0).Add(lat)})
		}
		return c
	}
	w := &window{cycles: []cycle{
		cycleOf(10, 2*time.Millisecond, 20*time.Millisecond, 0.5), // half speed
		cycleOf(20, time.Millisecond, 20*time.Millisecond, 1),
	}}
	if got, want := w.stats(0.99, true), (windowStats{throughput: 20, p50: 1, tail: 1, cpuPerOp: 1}); got != want {
		t.Errorf("normalised %+v, want %+v", got, want)
	}
	if got, want := w.stats(0.99, false), (windowStats{throughput: 15, p50: 1, tail: 2, cpuPerOp: 40.0 / 30}); got != want {
		t.Errorf("raw %+v, want %+v", got, want)
	}
	e := &env{}
	su := setups{times: []float64{0.04, 0.04, 0.02}, speeds: []float64{0.5, 0.5, 1}}
	rep := e.newReport(newLayerSet(), su, w, &failures{}, 0.99, 10)
	if got := rep.Metrics["setup_s"].Value; got != 0.02 {
		t.Errorf("setup_s = %v, want 0.02: every set-up normalised", got)
	}
	if got := rep.Raw["setup_s"].Value; got != 0.04 {
		t.Errorf("raw setup_s = %v, want 0.04", got)
	}
}

// The system's CPU time is charged to the cycle from its start to the
// end of the probe slice after it, so work the system does while the
// probe runs counts against the cycle before.
func TestMeasureChargesProbeTimeCPU(t *testing.T) {
	var (
		cpu     atomic.Int64 // the fake system's CPU time, in ns
		pending atomic.Bool  // a cycle has ended; its deferred work is due
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if pending.Swap(false) {
			cpu.Add(int64(7 * time.Millisecond)) // work deferred into the probe
		}
		w.Write(probeBody)
	}))
	defer srv.Close()
	e := &env{probeBase: srv.URL, probeClient: srv.Client(), window: probeSlice * 3 / 2}
	cpu.Add(int64(time.Second)) // earlier CPU time is no cycle's
	run := func(ctx context.Context) ([]sample, error) {
		cpu.Add(int64(10 * time.Millisecond))
		pending.Store(true)
		return []sample{{start: at(0), end: at(1)}}, nil
	}
	w, err := e.measure(context.Background(), run, func() (time.Duration, error) { return time.Duration(cpu.Load()), nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(w.cycles) != 2 || len(w.probes) != 3 {
		t.Fatalf("%d cycles and %d probe slices, want 2 and 3", len(w.cycles), len(w.probes))
	}
	for i, c := range w.cycles {
		if c.cpu != 17*time.Millisecond {
			t.Errorf("cycle %d charged %v, want 10ms in the cycle + 7ms in the probe after it", i, c.cpu)
		}
		if c.speed <= 0 {
			t.Errorf("cycle %d speed index %v", i, c.speed)
		}
	}
}

func TestBucketQuantileInterpolates(t *testing.T) {
	// Ten observations in the bucket (le/2^(1/4), le] for le = 1ms.
	b := buckets{1: 10}
	lo := 1 / bucketGrowth
	if got, n := b.quantile(0.5); n != 10 || math.Abs(got-(lo+0.5*(1-lo))) > 1e-12 {
		t.Errorf("p50 = %v over %d, want the bucket's midpoint", got, n)
	}
	b = buckets{1: 1, 2: 3}
	if got, _ := b.quantile(0.25); math.Abs(got-1) > 1e-12 {
		t.Errorf("p25 = %v, want the first bucket's bound", got)
	}
	if got, n := (buckets{}).quantile(0.5); got != 0 || n != 0 {
		t.Errorf("empty histogram quantile = %v over %d", got, n)
	}
}

func TestShardLayersTiesFetchesToRequests(t *testing.T) {
	ops := []op{{name: "E2", fetches: 4}, {name: "E1", fetches: 1}}
	samples := []sample{
		{op: 0, id: "bench-0-0", start: at(0), end: at(100)},
		{op: 1, id: "bench-1-0", start: at(0), end: at(10)},
		{op: 0, id: "bench-1-1", start: at(20), end: at(100)}, // coalesced: no fetches
	}
	recs := []fetchRec{
		{id: "bench-0-0", start: at(10), end: at(50), status: 200, bytes: 100},
		{id: "bench-0-0", start: at(10), end: at(60), status: 200, bytes: 100},
		{id: "bench-0-0", start: at(20), end: at(40), status: 200, bytes: 100},
		{id: "bench-0-0", start: at(70), end: at(80), status: 200, bytes: 100},
		{id: "bench-1-0", start: at(2), end: at(8), status: 200, bytes: 50},
		{id: "", start: at(0), end: at(1), status: 200}, // a health probe
	}
	ls := newLayerSet()
	var fails failures
	shardLayers(ls, samples, ops, recs, &fails)
	if fails.n != 0 {
		t.Fatalf("unexpected failures: %v", fails.errors)
	}
	for name, want := range map[string]float64{
		"shard.fetches_per_op":     2.5, // 5 fetches over 2 fetching requests
		"shard.coalesced_frac":     1.0 / 3,
		"shard.fetch_bytes_per_op": 225,
		"shard.fetch_errors":       0,
		"shard.fanout_skew.p50_ms": 40, // 50ms slowest − 10ms fastest
		"shard.self.p50_ms":        4,  // E1: 10ms − 6ms
		"shard.self.p99_ms":        40, // E2: 100ms − 60ms of fetches
	} {
		if got := ls.values[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	// A request that fetches other than its carve is a failure.
	shardLayers(newLayerSet(), samples[:1], []op{{name: "E2", fetches: 3}}, recs, &fails)
	if fails.n != 1 {
		t.Errorf("a 4-fetch answer to a 3-range carve was not a failure")
	}
}

func TestEndpointMeanIsExact(t *testing.T) {
	before := statsWire{Endpoints: map[string]histWire{"slice": {Count: 10, SumMillis: 50}}}
	after := statsWire{Endpoints: map[string]histWire{
		"slice": {Count: 14, SumMillis: 70}, // 4 more at 5ms
		"param": {Count: 1, SumMillis: 10},  // first param request
	}}
	if got := endpointMean([]scrape{{before, after}}); math.Abs(got-30.0/5) > 1e-12 {
		t.Errorf("mean = %v, want 6", got)
	}
	if got := endpointMean([]scrape{{after, after}}); got != 0 {
		t.Errorf("mean of an idle window = %v, want 0", got)
	}
}

func TestLayerSetApplyDeclaresEveryPerLayerMetric(t *testing.T) {
	sp := &spec{PerLayer: []specMetric{
		{Name: "server.mean_ms", Unit: "ms"}, {Name: "sched.step_ns", Unit: "ns"},
	}}
	ls := newLayerSet()
	ls.set("server.mean_ms", "ms", 1.5)
	ls.set("shard.fetch.p50_ms", "ms", 2)
	ls.miss("the ladder does not build", "sched.step_ns")
	ls.miss("no coordinator", "shard.self.p50_ms")
	var rep report
	ls.apply(sp, &rep)
	if len(rep.Metrics) != 2 || rep.Metrics["server.mean_ms"].Value != 1.5 || rep.Metrics["sched.step_ns"].Unit != "ns" {
		t.Errorf("metrics = %+v", rep.Metrics)
	}
	if rep.Missing["sched.step_ns"] != "the ladder does not build" || rep.Missing["shard.self.p50_ms"] != "no coordinator" {
		t.Errorf("missing = %+v", rep.Missing)
	}
	if _, ok := rep.Layers["shard.fetch.p50_ms"]; !ok || len(rep.Layers) != 1 {
		t.Errorf("layers = %+v", rep.Layers)
	}
}

func TestJoinBoolValues(t *testing.T) {
	got := joinBoolValues([]string{"--workload", "warm", "--trace", "1", "-seed", "3"}, "trace")
	want := []string{"--workload", "warm", "--trace=1", "-seed", "3"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %q, want %q", got, want)
	}
	got = joinBoolValues([]string{"-trace", "-o", "x.json"}, "trace")
	if !reflect.DeepEqual(got, []string{"-trace", "-o", "x.json"}) {
		t.Errorf("bare -trace rewritten: %q", got)
	}
}

// TestSmoke runs every workload for about a second through the real
// binaries, checking that each answers correctly and reports exactly
// the end-to-end metrics BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-seconds", "1", "-seed", "5"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	sp, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	var results []result
	for _, line := range strings.Split(stdout.String(), "\n") {
		if strings.HasPrefix(line, "{") {
			var r result
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatalf("result line %q: %v", line, err)
			}
			results = append(results, r)
		}
	}
	if len(results) != len(sp.Workloads) {
		t.Fatalf("%d result lines, want one per workload (%d)", len(results), len(sp.Workloads))
	}
	for i, r := range results {
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: %+v", sp.Workloads[i].Name, r)
		}
		for _, m := range sp.EndToEnd {
			if v, ok := r.Metrics[m.Name]; !ok || v.Unit != m.Unit || v.Value <= 0 {
				t.Errorf("%s: metric %s = %+v", sp.Workloads[i].Name, m.Name, v)
			}
		}
	}
}
