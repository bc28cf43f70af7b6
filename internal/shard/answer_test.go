package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/experiments"
	"repro/internal/server"
)

// rewriteWorker stands up a worker that serves inner and passes every
// /experiments/ response through rewrite, status kept, so a test can
// change a worker's answer — its body or its headers — between
// requests.
func rewriteWorker(t *testing.T, inner http.Handler, rewrite func(h http.Header, body []byte) []byte) string {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/experiments/") {
			inner.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		for k, vs := range rec.Header() {
			w.Header()[k] = vs
		}
		body := rewrite(w.Header(), rec.Body.Bytes())
		w.WriteHeader(rec.Code)
		w.Write(body)
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

// switchWorker stands up a worker that serves before until changed is
// set, then after.
func switchWorker(t *testing.T, before, after map[string]experiments.Experiment, changed *atomic.Bool) string {
	t.Helper()
	a := server.New(server.Options{Registry: before})
	b := server.New(server.Options{Registry: after})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if changed.Load() {
			b.ServeHTTP(w, r)
			return
		}
		a.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

// requestTwice sends the same point to coord twice and returns both
// results, failing the test on any error.
func requestTwice(t *testing.T, coord *Coordinator, id string, ps experiments.ParamSet, between func()) [2]experiments.Result {
	t.Helper()
	var out [2]experiments.Result
	for i := range out {
		if i == 1 && between != nil {
			between()
		}
		res, err := coord.RunParam(context.Background(), id, ps)
		if err != nil {
			t.Fatal(err)
		}
		if res.Err != nil {
			t.Fatalf("request %d: %v", i+1, res.Err)
		}
		out[i] = res
	}
	return out
}

// TestRepeatFetchReusesDecode: two requests for the same point over
// unchanged workers return the same *Table — the whole point's
// recorded decode, and the carved point's recorded merge — although
// every fetch is sent both times, and the carved point's ranges are
// decoded once each across both requests. Each table equals the local
// run's.
func TestRepeatFetchReusesDecode(t *testing.T) {
	for _, tc := range []struct {
		name      string
		shardable bool
		workers   int
	}{
		{"whole point", false, 1},
		{"carved point", true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const id = "E2"
			var workers []string
			for i := 0; i < tc.workers; i++ {
				w, _ := newParamWorker(t, id, tc.shardable)
				workers = append(workers, w)
			}
			localReg, local := paramFixture(id, tc.shardable)
			coord, err := New(Options{
				Workers: workers,
				Local:   experiments.Options{Registry: localReg, Jobs: 1},
			})
			if err != nil {
				t.Fatal(err)
			}
			results := requestTwice(t, coord, id, paramPoint(t, localReg, id, "x=5"), nil)
			want := localPoint(t, id, tc.shardable, "x=5")
			for i, res := range results {
				if got := encodeAll(t, []experiments.Result{res}); !bytes.Equal(got, want) {
					t.Errorf("request %d differs from the local run:\n%s\nvs\n%s", i+1, got, want)
				}
			}
			if results[0].Table != results[1].Table {
				t.Error("an unchanged answer was decoded afresh: the two requests got different tables")
			}
			st := coord.Stats()
			if tc.shardable {
				// 8 roots over two workers carve into 4 ranges, each
				// fetched by both requests and decoded by the first.
				if st.PrefixSharded != 2 || st.PrefixRangesRemote != 8 {
					t.Errorf("stats = %+v, want 2 carved requests of 4 fetched ranges", st)
				}
				if n := local.decodes.Load(); n != 4 {
					t.Errorf("Decode ran %d times over two requests of 4 ranges, want once per range", n)
				}
			} else if st.Remote != 2 {
				t.Errorf("stats = %+v, want 2 whole fetches", st)
			}
			if n := local.execs.Load(); n != 0 {
				t.Errorf("%d local executions with a healthy fleet", n)
			}
		})
	}
}

// shiftedShardable is the synthetic shardable whose every root sums
// 10 more: the same partition answered with different numbers, as a
// worker on changed code would.
func shiftedShardable(id string) map[string]experiments.Experiment {
	sh, _ := newTestShardable(id)
	explore := sh.Explore
	sh.Explore = func(roots [][]int) (experiments.Aggregate, error) {
		agg, err := explore(roots)
		if err == nil {
			agg.(*sliceAgg).Sum += 10 * len(roots)
		}
		return agg, err
	}
	e := experiments.Fixed(id, shardableRunner(sh))
	e.Shardable = func(experiments.ParamSet) experiments.Shardable { return sh }
	return map[string]experiments.Experiment{id: e}
}

// TestChangedAnswerDecodedAfresh: a worker whose answer changes
// between requests is decoded afresh. A changed table, whole or
// merged from ranges, is served in place of the recorded one; a
// worker that turns to another space or registry generation after an
// accepted request has its ranges rejected and failed over to its
// peer, exactly as without a record, and the table stays the local
// run's.
func TestChangedAnswerDecodedAfresh(t *testing.T) {
	t.Run("new whole table", func(t *testing.T) {
		const id = "E1"
		before, _ := syntheticRegistry(id)
		after := map[string]experiments.Experiment{id: experiments.Fixed(id, func() (*experiments.Table, error) {
			return &experiments.Table{ID: id, Title: "changed " + id, Headers: []string{"k"}, Rows: [][]string{{"v2"}}}, nil
		})}
		var changed atomic.Bool
		coord, err := New(Options{
			Workers: []string{switchWorker(t, before, after, &changed)},
			Local:   experiments.Options{Registry: before, Jobs: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		results := requestTwice(t, coord, id, experiments.ParamSet{}, func() { changed.Store(true) })
		if got := results[1].Table.Title; got != "changed "+id {
			t.Errorf("after the worker changed, served title %q, want the new table", got)
		}
		if results[0].Table.Title != "synthetic "+id {
			t.Errorf("first request served %q", results[0].Table.Title)
		}
	})

	t.Run("new carved table", func(t *testing.T) {
		const id = "E2"
		before, _ := shardableFixture(id)
		after := shiftedShardable(id)
		var changed atomic.Bool
		coord, err := New(Options{
			Workers: []string{switchWorker(t, before, after, &changed), switchWorker(t, before, after, &changed)},
			Local:   experiments.Options{Registry: before, Jobs: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		results := requestTwice(t, coord, id, experiments.ParamSet{}, func() { changed.Store(true) })
		for i, want := range [][]byte{prefixBaseline(t, id), runLocal(t, after, id)} {
			if got := encodeAll(t, results[i:i+1]); !bytes.Equal(got, want) {
				t.Errorf("request %d differs from the local run of the code its workers ran:\n%s\nvs\n%s", i+1, got, want)
			}
		}
	})

	for _, skew := range []struct {
		name    string
		rewrite func(h http.Header, body []byte) []byte
	}{
		{"space version in the envelope", func(h http.Header, body []byte) []byte {
			env, err := experiments.DecodeShard(bytes.NewReader(body))
			if err != nil {
				return body
			}
			env.SpaceVersion = "other-space/v9"
			var buf bytes.Buffer
			experiments.EncodeShardEnvelope(&buf, env)
			return buf.Bytes()
		}},
		{"registry header", func(h http.Header, body []byte) []byte {
			h.Set(server.RegistryVersionHeader, "other-gen/v9")
			return body
		}},
	} {
		t.Run(skew.name, func(t *testing.T) {
			const id = "E2"
			reg, _ := shardableFixture(id)
			var skewed atomic.Bool
			// The skewed worker comes first, so the second request's
			// first pick, with every worker idle, lands on it.
			first := rewriteWorker(t, server.New(server.Options{Registry: reg}), func(h http.Header, body []byte) []byte {
				if skewed.Load() {
					return skew.rewrite(h, body)
				}
				return body
			})
			peer, _ := newShardableWorker(t, id)
			coord, err := New(Options{
				Workers: []string{first, peer.URL},
				Local:   experiments.Options{Registry: reg, Jobs: 1},
			})
			if err != nil {
				t.Fatal(err)
			}
			results := requestTwice(t, coord, id, experiments.ParamSet{}, func() { skewed.Store(true) })
			want := prefixBaseline(t, id)
			for i, res := range results {
				if got := encodeAll(t, []experiments.Result{res}); !bytes.Equal(got, want) {
					t.Errorf("request %d differs from the local run:\n%s\nvs\n%s", i+1, got, want)
				}
			}
			st := coord.Stats()
			if st.RangesReassigned == 0 || st.PrefixRangesRemote != 8 || st.Remote != 0 || st.Local != 0 {
				t.Errorf("stats = %+v, want the skewed worker's ranges reassigned to its peer", st)
			}
			if st.Workers[0].Errors != st.RangesReassigned {
				t.Errorf("skewed worker errors = %d, want one per reassigned range (%d)", st.Workers[0].Errors, st.RangesReassigned)
			}
			// A rejected answer is an HTTP-level failure: the worker stays.
			if st.WorkersHealthy != 2 {
				t.Errorf("healthy = %d, want 2", st.WorkersHealthy)
			}
		})
	}
}

// runLocal renders the in-process run of ids over reg in every format.
func runLocal(t *testing.T, reg map[string]experiments.Experiment, ids ...string) []byte {
	t.Helper()
	results, err := experiments.Run(context.Background(), experiments.Options{IDs: ids, Jobs: 1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	return encodeAll(t, results)
}

// TestConcurrentRequestsWhileAnswerFlips: 8 goroutines request a
// whole point and a carved point at once, again and again, while one
// worker flips every answer between its indented and its compact JSON
// form — a different body of the same table — so records are replaced
// while other requests read them. Every body each result serves, in
// every format, equals the local run's.
func TestConcurrentRequestsWhileAnswerFlips(t *testing.T) {
	reg, _ := syntheticRegistry("E1")
	sreg, _ := shardableFixture("E2")
	reg["E2"] = sreg["E2"]
	ids := []string{"E1", "E2"}

	var n atomic.Int64
	flipping := rewriteWorker(t, server.New(server.Options{Registry: reg}), func(_ http.Header, body []byte) []byte {
		if n.Add(1)%2 == 0 {
			return body
		}
		var buf bytes.Buffer
		if err := json.Compact(&buf, body); err != nil {
			return body
		}
		return buf.Bytes()
	})
	coord, err := New(Options{
		Workers: []string{flipping, newWorker(t, reg).URL},
		Local:   experiments.Options{Registry: reg, Jobs: 1},
	})
	if err != nil {
		t.Fatal(err)
	}

	local, err := experiments.Run(context.Background(), experiments.Options{IDs: ids, Jobs: 1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	formats := []string{"text", "json", "csv"}
	want := make(map[string][]byte)
	for _, res := range local {
		for _, f := range formats {
			b, err := experiments.Body(f, res)
			if err != nil {
				t.Fatal(err)
			}
			want[res.ID+" "+f] = b
		}
	}

	const goroutines, rounds = 8, 6
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, id := range ids {
					res, err := coord.RunParam(context.Background(), id, experiments.ParamSet{})
					if err != nil || res.Err != nil {
						t.Errorf("%s: %v %v", id, err, res.Err)
						return
					}
					for _, f := range formats {
						got, err := experiments.Body(f, res)
						if err != nil {
							t.Error(err)
							return
						}
						if !bytes.Equal(got, want[id+" "+f]) {
							t.Errorf("%s %s body differs from the local run's:\n%s\nvs\n%s", id, f, got, want[id+" "+f])
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	if st := coord.Stats(); st.Failovers != 0 || st.Local != 0 {
		t.Errorf("stats = %+v, want every answer accepted", st)
	}
}
