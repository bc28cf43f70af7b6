package experiments

import (
	"bytes"
	"context"
	"fmt"
	"net/url"
	"sort"
	"testing"

	"repro/internal/agreement"
	"repro/internal/sched"
	"repro/internal/task"
)

// encodeAll renders a result slice in the three wire formats.
func encodeAll(t *testing.T, results []Result) (text, js, csv string) {
	t.Helper()
	var bt, bj, bc bytes.Buffer
	if err := EncodeText(&bt, results); err != nil {
		t.Fatal(err)
	}
	if err := EncodeJSON(&bj, results); err != nil {
		t.Fatal(err)
	}
	if err := EncodeCSV(&bc, results); err != nil {
		t.Fatal(err)
	}
	return bt.String(), bj.String(), bc.String()
}

// servedPoints returns every point of an experiment's schema that
// ParseParams accepts, enumerating each parameter's integer range.
func servedPoints(t *testing.T, fam Experiment) []ParamSet {
	t.Helper()
	points := []url.Values{{}}
	for _, spec := range fam.Params {
		var next []url.Values
		for _, q := range points {
			for v := int(spec.Min); v <= int(spec.Max); v++ {
				q2 := url.Values{}
				for name, vals := range q {
					q2[name] = vals
				}
				q2.Set(spec.Name, fmt.Sprint(v))
				next = append(next, q2)
			}
		}
		points = next
	}
	var out []ParamSet
	for _, q := range points {
		if ps, err := ParseParams(fam, q); err == nil {
			out = append(out, ps)
		}
	}
	return out
}

// exhaustiveE2 is the oracle side for E2: the exhaustive explorer over
// roots, folded by a collector of its own rather than the memo's leaf
// function, so the two sides share only finishE2 and the aggregate's
// wire form. The explorer visits serially on this goroutine, so the
// collector needs no lock.
func exhaustiveE2(t *testing.T, k int, inputs [2]uint64, roots [][]int) *alg1SweepAgg {
	t.Helper()
	agg := &alg1SweepAgg{}
	seen := map[int]bool{}
	_, err := agreement.ExploreAlg1Prefixes(k, inputs, roots, func(ar *agreement.Alg1Run) {
		agg.Execs++
		for i := 0; i < 2; i++ {
			seen[ar.Outs[i].Num] = true
			agg.MaxSteps = max(agg.MaxSteps, ar.Result.Steps[i])
		}
		agg.WorstNum = max(agg.WorstNum, ar.Outs[0].Num-ar.Outs[1].Num, ar.Outs[1].Num-ar.Outs[0].Num)
	})
	if err != nil {
		t.Fatal(err)
	}
	agg.Seen = []int{}
	for n := range seen {
		agg.Seen = append(agg.Seen, n)
	}
	sort.Ints(agg.Seen)
	return agg
}

// exhaustiveE15 is the oracle side for E15: every interleaving under
// roots replayed and validated by task.CheckRun.
func exhaustiveE15(t *testing.T, choice int, input task.Pair, roots [][]int) *alg2SweepAgg {
	t.Helper()
	plan, err := e15Plan(choice)
	if err != nil {
		t.Fatal(err)
	}
	execs, err := task.ExploreAlg2Prefixes(plan, input, roots)
	if err != nil {
		t.Fatal(err)
	}
	return &alg2SweepAgg{Execs: execs}
}

// carves splits roots the ways the serving layers do: one range, the
// four near-even ranges the shard coordinator carves for a two-worker
// fleet (two per selectable worker), and three uneven ranges.
func carves(roots [][]int) map[string][][][]int {
	even := make([][][]int, 0, 4)
	for i := 0; i < 4; i++ {
		even = append(even, roots[i*len(roots)/4:(i+1)*len(roots)/4])
	}
	a, b := len(roots)/5, len(roots)/2
	return map[string][][][]int{
		"one":    {roots},
		"fleet2": even,
		"uneven": {roots[:a], roots[a:b], roots[b:]},
	}
}

// TestReducedMatchesExhaustiveBytes is the oracle gate of the
// production explorer: at every point the E2 and E15 schemas accept,
// the memoized whole table encodes byte-identically, in all three
// formats, to the exhaustive explorer's aggregate rendered through the
// same finish function; and on E2 points with k ≤ 4 and every E15
// point, each range of three carves of Roots() gives the exhaustive
// range's aggregate and envelope bytes. The served space is finite, so
// this is a complete check. The explorers are serial; the points run
// as parallel subtests, each oracle call reporting to its own point.
func TestReducedMatchesExhaustiveBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive exploration")
	}
	type oracle struct {
		whole  func(t *testing.T, ps ParamSet, roots [][]int) Aggregate
		finish func(ps ParamSet, agg Aggregate) (*Table, error)
		carve  func(ps ParamSet) bool
		points int
	}
	oracles := map[string]oracle{
		"E2": {
			whole: func(t *testing.T, ps ParamSet, roots [][]int) Aggregate {
				return exhaustiveE2(t, ps.Int("k"), e2InputsOf(ps), roots)
			},
			finish: func(ps ParamSet, agg Aggregate) (*Table, error) {
				return finishE2(agg.(*alg1SweepAgg), ps.Int("k"), e2InputsOf(ps))
			},
			carve:  func(ps ParamSet) bool { return ps.Int("k") <= 4 },
			points: 24,
		},
		"E15": {
			whole: func(t *testing.T, ps ParamSet, roots [][]int) Aggregate {
				return exhaustiveE15(t, ps.Int("c"), e15InputOf(ps), roots)
			},
			finish: func(ps ParamSet, agg Aggregate) (*Table, error) {
				return finishE15(agg.(*alg2SweepAgg), ps.Int("c"), e15InputOf(ps))
			},
			carve:  func(ps ParamSet) bool { return true },
			points: 8,
		},
	}
	for id, o := range oracles {
		fam := Registry()[id]
		points := servedPoints(t, fam)
		if len(points) != o.points {
			t.Fatalf("%s: schema accepts %d points, want %d", id, len(points), o.points)
		}
		for _, ps := range points {
			name := ps.Canonical()
			if name == "" {
				name = "defaults"
			}
			t.Run(id+"/"+name, func(t *testing.T) {
				t.Parallel()
				got, stats, err := fam.Run(ps)
				if err != nil {
					t.Fatal(err)
				}
				want, err := o.finish(ps, o.whole(t, ps, [][]int{{}}))
				if err != nil {
					t.Fatal(err)
				}
				gt, gj, gc := encodeAll(t, []Result{{ID: id, Table: got}})
				wt, wj, wc := encodeAll(t, []Result{{ID: id, Table: want}})
				if gt != wt {
					t.Errorf("text diverges:\n--- exhaustive ---\n%s--- production ---\n%s", wt, gt)
				}
				if gj != wj || gc != wc {
					t.Errorf("json or csv diverges")
				}
				if stats.Executions == 0 || stats.Replays > stats.Executions {
					t.Errorf("counters %+v do not account a memoized exploration", stats)
				}
				if !o.carve(ps) {
					return
				}
				sh := fam.Shardable(ps)
				roots, err := sh.Roots()
				if err != nil {
					t.Fatal(err)
				}
				for name, ranges := range carves(roots) {
					for i, rng := range ranges {
						agg, err := sh.Explore(rng)
						if err != nil {
							t.Fatal(err)
						}
						var gotEnv, wantEnv bytes.Buffer
						if err := EncodeShard(&gotEnv, id, ps.Canonical(), rng, agg); err != nil {
							t.Fatal(err)
						}
						if err := EncodeShard(&wantEnv, id, ps.Canonical(), rng, o.whole(t, ps, rng)); err != nil {
							t.Fatal(err)
						}
						if gotEnv.String() != wantEnv.String() {
							t.Errorf("carve %s range %d/%d: envelope diverges:\n--- exhaustive ---\n%s--- production ---\n%s",
								name, i+1, len(ranges), wantEnv.String(), gotEnv.String())
						}
					}
				}
			})
		}
	}
}

// TestEngineReportsMemoCounters: every registry run that explores
// through the memo carries its counters on Result.Memo, serial for
// E2/E15 whatever the job count, and a cached result carries none.
func TestEngineReportsMemoCounters(t *testing.T) {
	cache := newFakeCache()
	results, err := Run(context.Background(), Options{IDs: []string{"E1", "E2", "E15"}, Jobs: 3, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
	want := map[string]sched.MemoStats{
		"E2":  {Executions: 22080, Replays: 146, StatesVisited: 242, StatesPruned: 126},
		"E15": {Executions: 28468, Replays: 308, StatesVisited: 504, StatesPruned: 272},
	}
	for _, r := range results {
		if r.Memo != want[r.ID] {
			t.Errorf("%s: Memo = %+v, want %+v", r.ID, r.Memo, want[r.ID])
		}
	}
	again, err := Run(context.Background(), Options{IDs: []string{"E2"}, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if r := again[0]; !r.Cached || r.Memo != (sched.MemoStats{}) {
		t.Errorf("warm E2: Cached=%v Memo=%+v, want a cache hit with no counters", r.Cached, r.Memo)
	}
}
