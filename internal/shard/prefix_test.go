package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/experiments"
	"repro/internal/server"
	"repro/internal/trace"
)

// sliceAgg is the synthetic order-insensitive aggregate of the test
// shardable: slices sum counts and pid totals.
type sliceAgg struct {
	Count int `json:"count"`
	Sum   int `json:"sum"`
}

func (a *sliceAgg) Merge(o experiments.Aggregate) error {
	b, ok := o.(*sliceAgg)
	if !ok {
		return fmt.Errorf("cannot merge %T", o)
	}
	a.Count += b.Count
	a.Sum += b.Sum
	return nil
}

// fixtureCounts tallies a synthetic fixture's calls: runs and slice
// explorations (execs), Roots (carves) and Decode (decodes).
type fixtureCounts struct{ execs, carves, decodes atomic.Int64 }

// newTestShardable builds a synthetic prefix-shardable experiment
// over a fixed 8-root partition, with counters of its Explore calls
// (the shard-level analogue of the registries' execution counters),
// its Roots calls and its Decode calls.
func newTestShardable(id string) (experiments.Shardable, *fixtureCounts) {
	n := new(fixtureCounts)
	sh := experiments.Shardable{
		Roots: func() ([][]int, error) {
			n.carves.Add(1)
			return [][]int{{0}, {1}, {2}, {3}, {4}, {5}, {6}, {7}}, nil
		},
		Explore: func(roots [][]int) (experiments.Aggregate, error) {
			n.execs.Add(1)
			a := &sliceAgg{}
			for _, r := range roots {
				a.Count++
				a.Sum += r[0]
			}
			return a, nil
		},
		Decode: func(data []byte) (experiments.Aggregate, error) {
			n.decodes.Add(1)
			var a sliceAgg
			if err := json.Unmarshal(data, &a); err != nil {
				return nil, err
			}
			return &a, nil
		},
		Finish: func(agg experiments.Aggregate) (*experiments.Table, error) {
			a, ok := agg.(*sliceAgg)
			if !ok {
				return nil, fmt.Errorf("finish on %T", agg)
			}
			return &experiments.Table{
				ID:      id,
				Title:   "synthetic shardable " + id,
				Headers: []string{"quantity", "value"},
				Rows: [][]string{
					{"ranges", fmt.Sprint(a.Count)},
					{"pid sum", fmt.Sprint(a.Sum)},
				},
				Notes: []string{"aggregate must cover the whole partition"},
			}, nil
		},
	}
	return sh, n
}

// shardableRunner is the whole-space run of a Shardable — the local
// baseline a sharded run must re-encode byte-identically.
func shardableRunner(sh experiments.Shardable) func() (*experiments.Table, error) {
	return func() (*experiments.Table, error) {
		roots, err := sh.Roots()
		if err != nil {
			return nil, err
		}
		agg, err := sh.Explore(roots)
		if err != nil {
			return nil, err
		}
		return sh.Finish(agg)
	}
}

// shardableFixture stands up a registry of one synthetic
// prefix-shardable experiment, with its slice-exploration counter.
func shardableFixture(id string) (map[string]experiments.Experiment, *atomic.Int64) {
	sh, n := newTestShardable(id)
	e := experiments.Fixed(id, shardableRunner(sh))
	e.Shardable = func(experiments.ParamSet) experiments.Shardable { return sh }
	return map[string]experiments.Experiment{id: e}, &n.execs
}

// unsharded strips every entry's Shardable seam: a worker serving the
// result answers ?prefixes= with a 400, like one that predates the
// protocol.
func unsharded(reg map[string]experiments.Experiment) map[string]experiments.Experiment {
	out := make(map[string]experiments.Experiment, len(reg))
	for id, e := range reg {
		e.Shardable = nil
		out[id] = e
	}
	return out
}

// prefixBaseline renders the local single-process bytes of the
// synthetic shardable experiment.
func prefixBaseline(t *testing.T, id string) []byte {
	t.Helper()
	reg, _ := shardableFixture(id)
	results, err := experiments.Run(context.Background(), experiments.Options{
		IDs: []string{id}, Jobs: 1, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return encodeAll(t, results)
}

// newShardableWorker stands up a worker that serves both whole
// experiments and prefix slices of the synthetic shardable.
func newShardableWorker(t *testing.T, id string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	reg, execs := shardableFixture(id)
	ts := httptest.NewServer(server.New(server.Options{Registry: reg}))
	t.Cleanup(ts.Close)
	return ts, execs
}

// TestPrefixShardedByteIdentical: with two healthy workers, a
// shardable experiment is split into prefix ranges across the fleet
// and the merged table re-encodes byte-identically to a local run,
// with nothing explored locally.
func TestPrefixShardedByteIdentical(t *testing.T) {
	const id = "E2"
	w1, execs1 := newShardableWorker(t, id)
	w2, execs2 := newShardableWorker(t, id)

	localReg, localExecs := shardableFixture(id)
	coord, err := New(Options{
		Workers: []string{w1.URL, w2.URL},
		Local:   experiments.Options{Registry: localReg, Jobs: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	results, err := coord.Run(context.Background(), []string{id})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := encodeAll(t, results), prefixBaseline(t, id); !bytes.Equal(got, want) {
		t.Errorf("prefix-sharded output differs from local run:\n%s\nvs\n%s", got, want)
	}
	if n := localExecs.Load(); n != 0 {
		t.Errorf("%d slices explored locally despite a healthy fleet", n)
	}
	if execs1.Load()+execs2.Load() == 0 {
		t.Error("no worker explored any slice")
	}
	st := coord.Stats()
	if st.PrefixSharded != 1 || st.RangesReassigned != 0 {
		t.Errorf("stats = %+v", st)
	}
	// 8 roots over 2 selectable workers carve into 4 ranges.
	if st.PrefixRangesRemote != 4 {
		t.Errorf("remote ranges = %d, want 4", st.PrefixRangesRemote)
	}
	if st.Remote != 0 || st.Local != 0 {
		t.Errorf("whole-experiment counters moved on a prefix-sharded run: %+v", st)
	}
}

// TestPrefixRangeFailoverMidBatch is the failover gate: a worker that
// passes the startup probe and then dies before serving its prefix
// ranges has every range reassigned to the survivor — the merged
// table stays byte-identical, no range is dropped, and the dead
// worker leaves the healthy set.
func TestPrefixRangeFailoverMidBatch(t *testing.T) {
	const id = "E2"
	reg, _ := shardableFixture(id)
	inner := server.New(server.Options{Registry: reg})
	doomed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/experiments/") {
			// Dead mid-batch: cut the connection so the coordinator
			// sees a transport error, not an HTTP failure.
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer doomed.Close()
	survivor, survivorExecs := newShardableWorker(t, id)

	localReg, localExecs := shardableFixture(id)
	coord, err := New(Options{
		Workers: []string{doomed.URL, survivor.URL},
		Local:   experiments.Options{Registry: localReg, Jobs: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := coord.Stats().WorkersHealthy; got != 2 {
		t.Fatalf("healthy before batch = %d", got)
	}
	results, err := coord.Run(context.Background(), []string{id})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := encodeAll(t, results), prefixBaseline(t, id); !bytes.Equal(got, want) {
		t.Errorf("output differs after mid-batch kill:\n%s\nvs\n%s", got, want)
	}
	st := coord.Stats()
	if st.RangesReassigned == 0 {
		t.Error("no range reassigned despite a dead worker")
	}
	if st.PrefixRangesRemote != 4 {
		t.Errorf("remote ranges = %d, want all 4 served by the survivor", st.PrefixRangesRemote)
	}
	if n := localExecs.Load(); n != 0 {
		t.Errorf("%d slices explored locally despite a survivor", n)
	}
	if survivorExecs.Load() == 0 {
		t.Error("survivor explored nothing")
	}
	if st.WorkersHealthy != 1 {
		t.Errorf("healthy after batch = %d, want 1", st.WorkersHealthy)
	}
	if st.PrefixSharded != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestPrefixFleetWithoutSliceSupport: a fleet that rejects ?prefixes=
// (version skew: workers predate the protocol, spelled here as a
// registry without Shardable seams) fails every range attempt, so the
// point is served by one whole fetch instead: every range attempt
// reassigned, nothing explored on the coordinator, bytes unchanged.
func TestPrefixFleetWithoutSliceSupport(t *testing.T) {
	const id = "E2"
	reg, workerExecs := shardableFixture(id)
	w1 := httptest.NewServer(server.New(server.Options{
		Registry: unsharded(reg),
	}))
	defer w1.Close()
	w2 := httptest.NewServer(server.New(server.Options{
		Registry: unsharded(reg),
	}))
	defer w2.Close()

	localReg, localExecs := shardableFixture(id)
	logs := new(logLines)
	coord, err := New(Options{
		Workers: []string{w1.URL, w2.URL},
		Local:   experiments.Options{Registry: localReg, Jobs: 1},
		Logf:    logs.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	results, err := coord.Run(trace.WithID(context.Background(), "req-no-slices"), []string{id})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := encodeAll(t, results), prefixBaseline(t, id); !bytes.Equal(got, want) {
		t.Errorf("output differs when fleet lacks slice support:\n%s\nvs\n%s", got, want)
	}
	logs.checkTraced(t, "req-no-slices", "reassigning", "fetching whole")
	st := coord.Stats()
	// 8 roots over two workers carve into 4 ranges, each refused by
	// both workers.
	if st.PrefixSharded != 1 || st.PrefixRangesRemote != 0 || st.RangesReassigned != 8 {
		t.Errorf("stats = %+v, want one carve whose 8 range attempts were all reassigned", st)
	}
	if st.Remote != 1 || st.Local != 0 {
		t.Errorf("stats = %+v, want the point served by one whole fetch", st)
	}
	if n := localExecs.Load(); n != 0 {
		t.Errorf("coordinator explored %d times, want none", n)
	}
	if n := workerExecs.Load(); n != 1 {
		t.Errorf("fleet explored %d times, want the one whole run", n)
	}
	// A 400 is an HTTP-level failure: the workers stay healthy.
	if st.WorkersHealthy != 2 {
		t.Errorf("healthy = %d, want 2", st.WorkersHealthy)
	}
}

// TestPrefixShardingNeedsTwoWorkers: with a single worker there is no
// intra-experiment parallelism to win, so the shardable experiment is
// fetched whole (keeping the worker's cache in play).
func TestPrefixShardingNeedsTwoWorkers(t *testing.T) {
	const id = "E2"
	w, execs := newShardableWorker(t, id)
	localReg, _ := shardableFixture(id)
	coord, err := New(Options{
		Workers: []string{w.URL},
		Local:   experiments.Options{Registry: localReg, Jobs: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	results, err := coord.Run(context.Background(), []string{id})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := encodeAll(t, results), prefixBaseline(t, id); !bytes.Equal(got, want) {
		t.Errorf("single-worker output differs:\n%s\nvs\n%s", got, want)
	}
	st := coord.Stats()
	if st.PrefixSharded != 0 || st.Remote != 1 {
		t.Errorf("stats = %+v, want one whole remote fetch", st)
	}
	if n := execs.Load(); n != 1 {
		t.Errorf("worker explorations = %d, want 1 whole run", n)
	}
}

// TestPrefixDeadFleetFallsBackWhole: a shardable experiment over an
// entirely dead fleet degrades like any other — the whole experiment
// runs through the local engine, bytes unchanged.
func TestPrefixDeadFleetFallsBackWhole(t *testing.T) {
	const id = "E2"
	localReg, _ := shardableFixture(id)
	coord, err := New(Options{
		Workers: []string{deadAddr(t), deadAddr(t)},
		Local:   experiments.Options{Registry: localReg, Jobs: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	results, err := coord.Run(context.Background(), []string{id})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := encodeAll(t, results), prefixBaseline(t, id); !bytes.Equal(got, want) {
		t.Errorf("dead-fleet output differs:\n%s\nvs\n%s", got, want)
	}
	st := coord.Stats()
	if st.PrefixSharded != 0 || st.Local != 1 {
		t.Errorf("stats = %+v, want one whole local run", st)
	}
}

// TestVersionSkewedWorkerRejected: a worker on a different experiment
// generation answers 200 with decodable bytes from the wrong
// registry. The per-answer header check fails every fetch that
// reaches it, without evicting it (it answers; its answers are just
// not this generation's), so the run flows to the same-generation
// worker and the bytes stay byte-identical.
func TestVersionSkewedWorkerRejected(t *testing.T) {
	ids := []string{"E1", "E2"}
	reg, _ := syntheticRegistry(ids...)
	current := newWorker(t, reg)

	// A worker from another generation: valid table responses, but the
	// response header advertises a different registry.
	skewReg, _ := syntheticRegistry(ids...)
	skewed := rewriteWorker(t, server.New(server.Options{Registry: skewReg}), func(h http.Header, body []byte) []byte {
		h.Set(server.RegistryVersionHeader, "other-gen/v9")
		return body
	})

	localReg, localExecs := syntheticRegistry(ids...)
	coord, err := New(Options{
		Workers: []string{skewed, current.URL},
		Local:   experiments.Options{Registry: localReg, Jobs: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	results, err := coord.Run(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := encodeAll(t, results), localBaseline(t, ids); !bytes.Equal(got, want) {
		t.Errorf("output differs with a version-skewed worker in the fleet:\n%s\nvs\n%s", got, want)
	}
	if n := localExecs.Load(); n != 0 {
		t.Errorf("%d experiments fell back locally despite a current worker", n)
	}
	st := coord.Stats()
	if sk := st.Workers[0]; sk.Errors != sk.Fetches || st.Failovers != sk.Errors || st.Remote != 2 {
		t.Errorf("stats = %+v, want every skewed answer failed over and both served remotely", st)
	}
	if st.WorkersHealthy != 2 {
		t.Errorf("healthy = %d, want 2 (a rejected answer fails the attempt, not the worker)", st.WorkersHealthy)
	}

	// Force a fetch at the skewed worker and watch the attempt fail.
	wk := coord.workers[0]
	if _, err := coord.fetch(context.Background(), wk, "E1", experiments.ParamSet{}); err == nil {
		t.Fatal("fetch from a version-skewed worker succeeded")
	}
}

// TestHeaderlessAnswerRejected: an answer without the generation
// header names no generation, so it is refused like a skewed one,
// whole or range: every answer of the header-less worker fails its
// attempt, the worker stays in rotation, and its peer serves the
// point, byte-identically.
func TestHeaderlessAnswerRejected(t *testing.T) {
	const id = "E2"
	whole, _ := syntheticRegistry(id)
	carved, _ := shardableFixture(id)
	for _, tc := range []struct {
		name string
		reg  map[string]experiments.Experiment
	}{{"whole", whole}, {"range", carved}} {
		t.Run(tc.name, func(t *testing.T) {
			bare := rewriteWorker(t, server.New(server.Options{Registry: tc.reg}), func(h http.Header, body []byte) []byte {
				h.Del(server.RegistryVersionHeader)
				return body
			})
			peer := newWorker(t, tc.reg)
			coord, err := New(Options{
				Workers: []string{bare, peer.URL},
				Local:   experiments.Options{Registry: tc.reg, Jobs: 1},
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := coord.RunParam(context.Background(), id, experiments.ParamSet{})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := encodeAll(t, []experiments.Result{res}), runLocal(t, tc.reg, id); !bytes.Equal(got, want) {
				t.Errorf("output differs from the local run:\n%s\nvs\n%s", got, want)
			}
			st := coord.Stats()
			if b := st.Workers[0]; b.Fetches == 0 || b.Errors != b.Fetches || st.Workers[1].Errors != 0 || st.Local != 0 {
				t.Errorf("stats = %+v, want every header-less answer failed over to the peer", st)
			}
			if st.WorkersHealthy != 2 {
				t.Errorf("healthy = %d, want 2 (a rejected answer fails the attempt, not the worker)", st.WorkersHealthy)
			}
		})
	}
}

// memCache is a minimal experiments.Cache for coordinator tests: whole
// results only, every slice a miss.
type memCache struct {
	mu sync.Mutex
	m  map[string]experiments.Result
}

func newMemCache() *memCache { return &memCache{m: make(map[string]experiments.Result)} }

func (c *memCache) GetParam(id, params string) (experiments.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.m[id+"?"+params]
	return r, ok
}

func (c *memCache) PutParam(id, params string, r experiments.Result) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[id+"?"+params] = r
	return nil
}

func (c *memCache) GetSlice(id, params, prefixes string) (experiments.ShardEnvelope, bool) {
	return experiments.ShardEnvelope{}, false
}

func (c *memCache) PutSlice(experiments.ShardEnvelope) error { return nil }

// TestPrefixShardedWarmCacheHit: a warm whole result must stay a
// cache hit — the coordinator consults its own store before carving
// (slices bypass every content-addressed cache), and a sharded
// success warms that store for the next run.
func TestPrefixShardedWarmCacheHit(t *testing.T) {
	const id = "E2"
	w1, execs1 := newShardableWorker(t, id)
	w2, execs2 := newShardableWorker(t, id)
	localReg, localExecs := shardableFixture(id)
	cache := newMemCache()
	coord, err := New(Options{
		Workers: []string{w1.URL, w2.URL},
		Local:   experiments.Options{Registry: localReg, Jobs: 1, Cache: cache},
	})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := coord.Run(context.Background(), []string{id})
	if err != nil {
		t.Fatal(err)
	}
	fleetCold := execs1.Load() + execs2.Load()
	if fleetCold == 0 {
		t.Fatal("cold run explored nothing remotely")
	}
	warm, err := coord.Run(context.Background(), []string{id})
	if err != nil {
		t.Fatal(err)
	}
	if n := execs1.Load() + execs2.Load(); n != fleetCold {
		t.Errorf("warm run explored %d more slices on the fleet", n-fleetCold)
	}
	if n := localExecs.Load(); n != 0 {
		t.Errorf("warm run explored %d slices locally", n)
	}
	if !warm[0].Cached {
		t.Error("warm result not marked cached")
	}
	if got, want := encodeAll(t, warm), encodeAll(t, cold); !bytes.Equal(got, want) {
		t.Errorf("warm bytes differ from cold:\n%s\nvs\n%s", got, want)
	}
	st := coord.Stats()
	if st.PrefixSharded != 1 {
		t.Errorf("stats = %+v, want exactly the cold run sharded", st)
	}
}

// TestSplitRanges pins the carving rule: contiguous, near-even,
// non-empty, order-preserving.
func TestSplitRanges(t *testing.T) {
	roots := [][]int{{0}, {1}, {2}, {3}, {4}, {5}, {6}, {7}}
	for _, tc := range []struct {
		n    int
		want []int // range sizes
	}{
		{1, []int{8}},
		{2, []int{4, 4}},
		{3, []int{2, 3, 3}},
		{8, []int{1, 1, 1, 1, 1, 1, 1, 1}},
		{20, []int{1, 1, 1, 1, 1, 1, 1, 1}}, // capped at len(roots)
		{0, []int{8}},                       // floor of one range
	} {
		got := splitRanges(roots, tc.n)
		if len(got) != len(tc.want) {
			t.Fatalf("splitRanges(8 roots, %d) carved %d ranges, want %d", tc.n, len(got), len(tc.want))
		}
		next := 0
		for i, rng := range got {
			if len(rng) != tc.want[i] {
				t.Fatalf("splitRanges(8, %d) range %d has %d roots, want %d", tc.n, i, len(rng), tc.want[i])
			}
			for _, r := range rng {
				if r[0] != next {
					t.Fatalf("splitRanges(8, %d) not contiguous at %v", tc.n, r)
				}
				next++
			}
		}
		if next != len(roots) {
			t.Fatalf("splitRanges(8, %d) covered %d roots", tc.n, next)
		}
	}
}
