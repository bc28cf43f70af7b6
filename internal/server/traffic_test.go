package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/sched"
	"repro/internal/trace"
)

// mixedExp is a synthetic experiment that takes every request class:
// the whole table (default point x=1), non-default parameter points,
// and prefix slices of a two-root space.
func mixedExp() experiments.Experiment {
	sh := experiments.Shardable{
		Roots: func() ([][]int, error) { return [][]int{{0}, {1}}, nil },
		Explore: func(roots [][]int) (experiments.Aggregate, error) {
			a := &prefixAgg{}
			for _, r := range roots {
				a.Count++
				a.Sum += r[0]
			}
			return a, nil
		},
		Decode: func(data []byte) (experiments.Aggregate, error) {
			var a prefixAgg
			if err := json.Unmarshal(data, &a); err != nil {
				return nil, err
			}
			return &a, nil
		},
	}
	return experiments.Experiment{
		ID:     "M1",
		Params: []experiments.ParamSpec{{Name: "x", Default: 1, Min: 0, Max: 9}},
		Run: func(ps experiments.ParamSet) (*experiments.Table, sched.MemoStats, error) {
			return &experiments.Table{ID: "M1", Headers: []string{"x"},
				Rows: [][]string{{fmt.Sprint(ps.Int("x"))}}}, sched.MemoStats{}, nil
		},
		Shardable: func(experiments.ParamSet) experiments.Shardable { return sh },
	}
}

// TestConcurrentMixedTraffic drives one cache-backed server with
// interleaved whole, parameter-point and slice requests from several
// goroutines, each request carrying its own client-minted
// Repro-Request-ID. Every response is a 200 echoing its ID; /stats and
// /metrics count exactly what was sent, per endpoint class; and a
// sampled ID of each class plays back at /trace/{id} as a request
// event through a done event.
func TestConcurrentMixedTraffic(t *testing.T) {
	store, err := cache.Open(t.TempDir(), cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(Options{
		Registry: map[string]experiments.Experiment{"M1": mixedExp()},
		Cache:    store,
	}))
	defer ts.Close()

	// Request i of goroutine g is class (g+i)%3, so every goroutine
	// interleaves all three and goroutine 0's first three requests are
	// one of each. The 60 IDs fit the journal's default ring.
	const goroutines, perGoroutine = 4, 15
	classes := []string{EndpointExperiment, EndpointParam, EndpointSlice}
	slices := []string{"0", "1", "0,1"}
	path := func(class string, i int) string {
		switch class {
		case EndpointParam:
			return fmt.Sprintf("/experiments/M1?x=%d", 2+i%3)
		case EndpointSlice:
			return "/experiments/M1?prefixes=" + slices[i%len(slices)]
		}
		return "/experiments/M1?format=json"
	}
	reqID := func(g, i int) string { return fmt.Sprintf("mixed%02d%04d", g, i) }

	sent := make(map[string]int64)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perGoroutine; i++ {
			sent[classes[(g+i)%3]]++
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				id, p := reqID(g, i), path(classes[(g+i)%3], i)
				req, err := http.NewRequest(http.MethodGet, ts.URL+p, nil)
				if err != nil {
					t.Error(err)
					return
				}
				req.Header.Set(trace.Header, id)
				resp, err := ts.Client().Do(req)
				if err != nil {
					t.Errorf("GET %s: %v", p, err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s = %d: %s", p, resp.StatusCode, body)
				}
				if got := resp.Header.Get(trace.Header); got != id {
					t.Errorf("GET %s echoed trace id %q, want %q", p, got, id)
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	st := getStats(t, ts)
	if want := int64(goroutines * perGoroutine); st.Requests != want {
		t.Errorf("requests = %d, want %d", st.Requests, want)
	}
	for _, class := range classes {
		if got := st.Endpoints[class].Count; got != sent[class] {
			t.Errorf("endpoints.%s.count = %d, want %d", class, got, sent[class])
		}
	}

	status, metrics := get(t, ts, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status = %d", status)
	}
	for _, class := range classes {
		assertHistogramSeries(t, metrics, "repro_request_duration_seconds",
			fmt.Sprintf("endpoint=%q", class), sent[class])
	}

	for i, class := range classes {
		id := reqID(0, i)
		status, body := get(t, ts, "/trace/"+id)
		if status != http.StatusOK {
			t.Errorf("%s: GET /trace/%s = %d: %s", class, id, status, body)
			continue
		}
		var tr trace.Trace
		if err := json.Unmarshal([]byte(body), &tr); err != nil {
			t.Fatal(err)
		}
		if tr.ID != id || !strings.Contains(tr.What, path(class, i)) {
			t.Errorf("%s: trace = %q %q, want %q for %s", class, tr.ID, tr.What, id, path(class, i))
		}
		if n := len(tr.Events); n < 2 || tr.Events[0].Kind != trace.KindRequest ||
			tr.Events[n-1].Kind != trace.KindDone || !strings.Contains(tr.Events[n-1].Detail, "status 200") {
			t.Errorf("%s: events = %+v, want a request event first and a status-200 done last", class, tr.Events)
		}
	}
}
