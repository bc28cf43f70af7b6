package shard

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/sched"
	"repro/internal/server"
)

// paramFixture builds a registry of one synthetic parameterized
// family (integer parameter x, default 1), an execution counter, and a
// counter of Roots calls summed over every point. With shardable set,
// every point of the family prefix-shards over the synthetic 8-root
// partition, with x folded into the aggregate so distinct points
// render distinct tables.
func paramFixture(id string, shardable bool) (reg map[string]experiments.Experiment, execs, carves *atomic.Int64) {
	execs = new(atomic.Int64)
	base, _, carves := newTestShardable(id)
	shAt := func(x int) experiments.Shardable {
		sh := base
		inner := sh.Explore
		sh.Explore = func(roots [][]int) (experiments.Aggregate, error) {
			execs.Add(1)
			agg, err := inner(roots)
			if err != nil {
				return nil, err
			}
			a := agg.(*sliceAgg)
			a.Sum += x * len(roots)
			return a, nil
		}
		finish := sh.Finish
		sh.Finish = func(agg experiments.Aggregate) (*experiments.Table, error) {
			tab, err := finish(agg)
			if err != nil {
				return nil, err
			}
			tab.Title = fmt.Sprintf("%s at x=%d", tab.Title, x)
			return tab, nil
		}
		return sh
	}
	fam := experiments.Experiment{
		ID:  id,
		Doc: "synthetic parameterized family",
		Params: []experiments.ParamSpec{
			{Name: "x", Kind: experiments.ParamInt, Default: "1", Min: 0, Max: 9, Doc: "the point"},
		},
		Run: func(ps experiments.ParamSet) (*experiments.Table, sched.MemoStats, error) {
			x := ps.Int("x")
			if shardable {
				tab, err := shardableRunner(shAt(x))()
				return tab, sched.MemoStats{}, err
			}
			execs.Add(1)
			return &experiments.Table{
				ID:      id,
				Title:   fmt.Sprintf("point x=%d", x),
				Headers: []string{"x"},
				Rows:    [][]string{{fmt.Sprint(x)}},
			}, sched.MemoStats{}, nil
		},
	}
	if shardable {
		fam.Shardable = func(ps experiments.ParamSet) experiments.Shardable {
			return shAt(ps.Int("x"))
		}
	}
	return map[string]experiments.Experiment{id: fam}, execs, carves
}

// newParamWorker stands up a worker serving the synthetic family's
// points, the default one included.
func newParamWorker(t *testing.T, id string, shardable bool) (addr string, execs *atomic.Int64) {
	t.Helper()
	reg, execs, _ := paramFixture(id, shardable)
	ts := httptest.NewServer(server.New(server.Options{Registry: reg}))
	t.Cleanup(ts.Close)
	return ts.URL, execs
}

// paramPoint parses "x=N" against the fixture family.
func paramPoint(t *testing.T, reg map[string]experiments.Experiment, id, list string) experiments.ParamSet {
	t.Helper()
	ps, err := experiments.ParseParamList(reg[id], list)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// TestRunParamDefaultPointAliasesFixed: the zero ParamSet routes
// as the plain id — remote fetch of the unparameterized URI,
// whole-experiment counters.
func TestRunParamDefaultPointAliasesFixed(t *testing.T) {
	const id = "E1"
	w, fleetExecs := newParamWorker(t, id, false)
	localReg, localExecs, _ := paramFixture(id, false)
	coord, err := New(Options{
		Workers: []string{w},
		Local:   experiments.Options{Registry: localReg, Jobs: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.RunParam(context.Background(), id, experiments.ParamSet{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil || res.Table == nil || res.Table.Title != "point x=1" {
		t.Fatalf("default point result = %+v", res)
	}
	if n := localExecs.Load(); n != 0 {
		t.Errorf("%d local executions with a healthy fleet", n)
	}
	if fleetExecs.Load() == 0 {
		t.Error("fleet executed nothing")
	}
	if st := coord.Stats(); st.Remote != 1 {
		t.Errorf("stats = %+v, want one remote whole fetch", st)
	}
}

// TestRunParamWholeFetchAndFrontCache: a non-default point of a
// non-shardable family is fetched whole from a worker, stored in the
// coordinator's front cache under id+params, and served from there on
// the second call without touching the fleet.
func TestRunParamWholeFetchAndFrontCache(t *testing.T) {
	const id = "E1"
	w, fleetExecs := newParamWorker(t, id, false)
	store, err := cache.Open(t.TempDir(), cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	localReg, localExecs, _ := paramFixture(id, false)
	coord, err := New(Options{
		Workers: []string{w},
		Local:   experiments.Options{Registry: localReg, Jobs: 1, Cache: store},
	})
	if err != nil {
		t.Fatal(err)
	}
	ps := paramPoint(t, localReg, id, "x=7")
	res, err := coord.RunParam(context.Background(), id, ps)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil || res.Table == nil || res.Table.Title != "point x=7" {
		t.Fatalf("point result = %+v", res)
	}
	if res.Cached {
		t.Error("cold point reported cached")
	}
	fetched := fleetExecs.Load()
	if fetched == 0 {
		t.Fatal("fleet executed nothing for the point")
	}
	again, err := coord.RunParam(context.Background(), id, ps)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.Table.Title != "point x=7" {
		t.Fatalf("warm point = %+v, want front-cache hit", again)
	}
	if n := fleetExecs.Load(); n != fetched {
		t.Errorf("warm call reached the fleet (%d -> %d executions)", fetched, n)
	}
	if n := localExecs.Load(); n != 0 {
		t.Errorf("%d local executions with a healthy fleet", n)
	}
}

// TestRunParamDeadFleetRunsLocally: every worker down, the point
// degrades to local evaluation exactly like a fixed experiment.
func TestRunParamDeadFleetRunsLocally(t *testing.T) {
	const id = "E1"
	localReg, localExecs, _ := paramFixture(id, false)
	coord, err := New(Options{
		Workers: []string{"http://" + deadAddr(t)},
		Local:   experiments.Options{Registry: localReg, Jobs: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ps := paramPoint(t, localReg, id, "x=3")
	res, err := coord.RunParam(context.Background(), id, ps)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil || res.Table == nil || res.Table.Title != "point x=3" {
		t.Fatalf("fallback result = %+v", res)
	}
	if n := localExecs.Load(); n != 1 {
		t.Errorf("local executions = %d, want 1", n)
	}
	if st := coord.Stats(); st.Local != 1 {
		t.Errorf("stats = %+v, want one local run", st)
	}
}

// TestRunParamUnknownFamily: a parameterized request for an experiment
// the coordinator's registry describes without parameters is a
// coordinator error, not a panic or a silent fixed-point run.
func TestRunParamUnknownFamily(t *testing.T) {
	reg, _ := syntheticRegistry("E1")
	coord, err := New(Options{
		Workers: []string{"http://" + deadAddr(t)},
		Local:   experiments.Options{Registry: reg, Jobs: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	fams, _, _ := paramFixture("E1", false)
	ps := paramPoint(t, fams, "E1", "x=2")
	if _, err := coord.RunParam(context.Background(), "E1", ps); err == nil ||
		!strings.Contains(err.Error(), "takes no parameters") {
		t.Fatalf("err = %v, want a takes-no-parameters error", err)
	}
}

// TestRunParamPrefixShardedByteIdentical: a non-default point of a
// shardable family carves across two workers at that point and merges
// to the bytes a local evaluation of the same point produces.
func TestRunParamPrefixShardedByteIdentical(t *testing.T) {
	const id = "E2"
	w1, execs1 := newParamWorker(t, id, true)
	w2, execs2 := newParamWorker(t, id, true)
	localReg, localExecs, _ := paramFixture(id, true)
	coord, err := New(Options{
		Workers: []string{w1, w2},
		Local:   experiments.Options{Registry: localReg, Jobs: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ps := paramPoint(t, localReg, id, "x=5")
	res, err := coord.RunParam(context.Background(), id, ps)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	baselineReg, _, _ := paramFixture(id, true)
	_ = baselineReg
	want, _, err := baselineReg[id].Run(paramPoint(t, baselineReg, id, "x=5"))
	if err != nil {
		t.Fatal(err)
	}
	got := encodeAll(t, []experiments.Result{res})
	wantBytes := encodeAll(t, []experiments.Result{{ID: id, Table: want}})
	if !bytes.Equal(got, wantBytes) {
		t.Errorf("sharded point differs from local point:\n%s\nvs\n%s", got, wantBytes)
	}
	if n := localExecs.Load(); n != 0 {
		t.Errorf("%d local explorations with a healthy fleet", n)
	}
	if execs1.Load()+execs2.Load() == 0 {
		t.Error("no worker explored any slice of the point")
	}
	if st := coord.Stats(); st.PrefixSharded != 1 || st.PrefixRangesLocal != 0 {
		t.Errorf("stats = %+v, want a fully remote prefix-sharded run", st)
	}
}
