package shard

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/server"
)

// reviveClock is a coordinator clock (Options.Now) that moves
// DefaultReviveAfter forward on every reading, so an evicted worker is
// due for revival by the next pick: a dead worker stays selectable.
type reviveClock struct{ n atomic.Int64 }

func (c *reviveClock) Now() time.Time {
	return time.Unix(1_700_000_000, 0).Add(time.Duration(c.n.Add(1)) * DefaultReviveAfter)
}

// carveRequest is one way of asking the coordinator for a point.
type carveRequest func(ctx context.Context) (experiments.Result, error)

// sendPoint sends every request once in turn, then from 8 goroutines at
// once (goroutine g sends reqs[g%len(reqs)]), and checks that each
// result re-encodes to want. It returns the number of requests sent.
func sendPoint(t *testing.T, reqs []carveRequest, want []byte) int {
	t.Helper()
	check := func(res experiments.Result, err error) {
		if err != nil {
			t.Error(err)
			return
		}
		if res.Err != nil {
			t.Errorf("result error: %v", res.Err)
			return
		}
		if got := encodeAll(t, []experiments.Result{res}); !bytes.Equal(got, want) {
			t.Errorf("table differs from the local run's:\n%s\nvs\n%s", got, want)
		}
	}
	for _, req := range reqs {
		check(req(context.Background()))
	}
	const concurrent = 8
	results := make([]experiments.Result, concurrent)
	errs := make([]error, concurrent)
	var wg sync.WaitGroup
	for g := 0; g < concurrent; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = reqs[g%len(reqs)](context.Background())
		}(g)
	}
	wg.Wait()
	for g := range results {
		check(results[g], errs[g])
	}
	return len(reqs) + concurrent
}

// TestCarveOncePerPoint: a coordinator carves each point once. The
// default point, sent in turn and then from 8 goroutines at once
// through RunParam (the zero ParamSet and the spelled-out default
// alike) and through Run, calls the point's Roots exactly once, and a
// second parameter point calls it once more; every table equals the
// local run's at its point. With one worker dead — kept selectable by
// a clock that makes it due for revival on every pick, so every
// request still carves across two workers — and the live worker
// refusing the first range of every carve, that range exhausts the
// fleet and sends each request down the whole path, where the live
// worker serves the point whole: still one carve per point, and
// nothing explored on the coordinator.
func TestCarveOncePerPoint(t *testing.T) {
	const id = "E2"
	for _, tc := range []struct {
		name     string
		deadPeer bool
	}{
		{"healthy fleet", false},
		{"one worker dead", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var workers []string
			var now func() time.Time
			if tc.deadPeer {
				reg, _ := paramFixture(id, true)
				inner := server.New(server.Options{Registry: reg})
				live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if strings.HasPrefix(r.URL.Query().Get("prefixes"), "0,") {
						http.Error(w, "range refused", http.StatusServiceUnavailable)
						return
					}
					inner.ServeHTTP(w, r)
				}))
				t.Cleanup(live.Close)
				workers = []string{"http://" + deadAddr(t), live.URL}
				now = new(reviveClock).Now
			} else {
				w1, _ := newParamWorker(t, id, true)
				w2, _ := newParamWorker(t, id, true)
				workers = []string{w1, w2}
			}
			localReg, local := paramFixture(id, true)
			coord, err := New(Options{
				Workers: workers,
				Now:     now,
				Local:   experiments.Options{Registry: localReg, Jobs: 1},
			})
			if err != nil {
				t.Fatal(err)
			}
			viaRunParam := func(ps experiments.ParamSet) carveRequest {
				return func(ctx context.Context) (experiments.Result, error) {
					return coord.RunParam(ctx, id, ps)
				}
			}
			viaRun := func(ctx context.Context) (experiments.Result, error) {
				results, err := coord.Run(ctx, []string{id})
				if err != nil {
					return experiments.Result{}, err
				}
				return results[0], nil
			}
			sent := sendPoint(t, []carveRequest{
				viaRunParam(experiments.ParamSet{}),
				viaRunParam(paramPoint(t, localReg, id, "x=1")),
				viaRun,
			}, localPoint(t, id, true, "x=1"))
			if n := local.carves.Load(); n != 1 {
				t.Errorf("default point carved %d times over %d requests, want once", n, sent)
			}
			sent += sendPoint(t, []carveRequest{
				viaRunParam(paramPoint(t, localReg, id, "x=5")),
			}, localPoint(t, id, true, "x=5"))
			if n := local.carves.Load(); n != 2 {
				t.Errorf("two points carved %d times, want twice", n)
			}

			// Every request carved 8 roots into 4 ranges across two
			// selectable workers; with the dead worker, range 0,1 of each
			// exhausted the fleet, the other three were fetched, and the
			// point was then fetched whole.
			st := coord.Stats()
			wantWhole := 0
			if tc.deadPeer {
				wantWhole = sent
			}
			if st.PrefixSharded != int64(sent) || st.Remote != int64(wantWhole) || st.Local != 0 ||
				st.PrefixRangesRemote != int64(4*sent-wantWhole) {
				t.Errorf("stats = %+v, want %d carved requests, %d of them then fetched whole", st, sent, wantWhole)
			}
			if n := local.execs.Load(); n != 0 {
				t.Errorf("local explorations = %d, want none", n)
			}
		})
	}
}
