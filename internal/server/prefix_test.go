package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/sched"
)

// prefixAgg is the synthetic aggregate served by the test shardable.
type prefixAgg struct {
	Count int `json:"count"`
	Sum   int `json:"sum"`
}

func (a *prefixAgg) Merge(o experiments.Aggregate) error {
	b, ok := o.(*prefixAgg)
	if !ok {
		return fmt.Errorf("cannot merge %T", o)
	}
	a.Count += b.Count
	a.Sum += b.Sum
	return nil
}

// tableExp describes a synthetic zero-parameter experiment whose whole
// run is a one-row table.
func tableExp(id string) experiments.Experiment {
	return experiments.Fixed(id, func() (*experiments.Table, error) {
		return &experiments.Table{ID: id, Headers: []string{"h"}, Rows: [][]string{{"v"}}}, nil
	})
}

// shardableExp is tableExp whose space shards through sh.
func shardableExp(id string, sh experiments.Shardable) experiments.Experiment {
	e := tableExp(id)
	e.Shardable = func(experiments.ParamSet) experiments.Shardable { return sh }
	return e
}

// newPrefixServer stands up a server with one synthetic shardable
// experiment S1 (and a plain experiment P1 with no seam).
func newPrefixServer(t *testing.T) *httptest.Server {
	t.Helper()
	s1 := experiments.Shardable{
		Roots: func() ([][]int, error) { return [][]int{{0}, {1}}, nil },
		Explore: func(roots [][]int) (experiments.Aggregate, error) {
			a := &prefixAgg{}
			for _, r := range roots {
				if len(r) > 0 && r[0] > 1 {
					// What a real explorer reports for a forced
					// pid that is never enabled.
					return nil, fmt.Errorf("%w: %v", sched.ErrPrefixNotLive, r)
				}
				a.Count++
				if len(r) > 0 {
					a.Sum += r[0]
				}
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
		Finish: func(agg experiments.Aggregate) (*experiments.Table, error) {
			return nil, fmt.Errorf("not used by the slice endpoint")
		},
	}
	reg := map[string]experiments.Experiment{"S1": shardableExp("S1", s1), "P1": tableExp("P1")}
	ts := httptest.NewServer(New(Options{Registry: reg}))
	t.Cleanup(ts.Close)
	return ts
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestPrefixSliceEndpoint: a ?prefixes= request explores exactly the
// requested slice and answers the JSON shard envelope.
func TestPrefixSliceEndpoint(t *testing.T) {
	ts := newPrefixServer(t)
	status, body := httpGet(t, ts.URL+"/experiments/S1?prefixes=1.0,0")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	env, err := experiments.DecodeShard(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if env.ID != "S1" || env.Prefixes != "1.0,0" || env.SpaceVersion != experiments.RegistryVersion {
		t.Fatalf("envelope = %+v", env)
	}
	var a prefixAgg
	if err := json.Unmarshal(env.Aggregate, &a); err != nil {
		t.Fatal(err)
	}
	// Roots {1,0} and {0}: two ranges, first pids 1 + 0.
	if a.Count != 2 || a.Sum != 1 {
		t.Fatalf("aggregate = %+v", a)
	}
	// The explicit empty prefix is the whole space.
	status, body = httpGet(t, ts.URL+"/experiments/S1?prefixes=-&format=json")
	if status != http.StatusOK {
		t.Fatalf("whole-space slice status %d: %s", status, body)
	}
}

// TestPrefixSliceRejections pins the 4xx surface: unknown experiment,
// unshardable experiment, malformed or empty prefixes, non-JSON format.
func TestPrefixSliceRejections(t *testing.T) {
	ts := newPrefixServer(t)
	for _, tc := range []struct {
		path string
		want int
	}{
		{"/experiments/NOPE?prefixes=0", http.StatusNotFound},
		{"/experiments/P1?prefixes=0", http.StatusBadRequest},
		{"/experiments/S1?prefixes=0..1", http.StatusBadRequest},
		{"/experiments/S1?prefixes=x", http.StatusBadRequest},
		// An empty value is not the whole space ("-" is): present but
		// empty is a malformed slice, never a silent whole-table fetch.
		{"/experiments/S1?prefixes=", http.StatusBadRequest},
		{"/experiments/P1?prefixes=", http.StatusBadRequest},
		{"/experiments/S1?prefixes=0&format=csv", http.StatusBadRequest},
		{"/experiments/S1?prefixes=0&format=text", http.StatusBadRequest},
		// Syntactically fine but not a live path of the decision
		// tree: the explorer detects it, the server answers 400.
		{"/experiments/S1?prefixes=7", http.StatusBadRequest},
	} {
		if status, body := httpGet(t, ts.URL+tc.path); status != tc.want {
			t.Errorf("GET %s = %d (%s), want %d", tc.path, status, body, tc.want)
		}
	}
	// And without the parameter, the plain table path still serves.
	if status, _ := httpGet(t, ts.URL+"/experiments/S1"); status != http.StatusOK {
		t.Errorf("plain GET broken: %d", status)
	}
}

// TestPrefixSliceTimeoutCooldown: a timed-out slice starts a cooldown
// keyed by id + prefixes — the coordinator retries the byte-identical
// prefixes string, and each retry must be served the recorded failure
// instead of stacking another abandoned full-width exploration.
func TestPrefixSliceTimeoutCooldown(t *testing.T) {
	explores := make(chan struct{}, 16)
	s1 := experiments.Shardable{
		Roots: func() ([][]int, error) { return [][]int{{0}}, nil },
		Explore: func(roots [][]int) (experiments.Aggregate, error) {
			explores <- struct{}{}
			time.Sleep(30 * time.Second) // far past the server timeout
			return &prefixAgg{}, nil
		},
	}
	ts := httptest.NewServer(New(Options{
		Registry: map[string]experiments.Experiment{"S1": shardableExp("S1", s1)},
		Timeout:  100 * time.Millisecond,
	}))
	t.Cleanup(ts.Close)

	status, body := httpGet(t, ts.URL+"/experiments/S1?prefixes=0")
	if status != http.StatusInternalServerError || !strings.Contains(body, "timed out") {
		t.Fatalf("first slice = %d %q, want a timeout 500", status, body)
	}
	if len(explores) != 1 {
		t.Fatalf("first request launched %d explorations, want 1", len(explores))
	}
	// An immediate identical retry is served from the cooldown: same
	// failure, no second exploration stacked on the abandoned one.
	status, body = httpGet(t, ts.URL+"/experiments/S1?prefixes=0")
	if status != http.StatusInternalServerError || !strings.Contains(body, "timed out") {
		t.Fatalf("retried slice = %d %q, want the recorded timeout", status, body)
	}
	if len(explores) != 1 {
		t.Fatalf("retry launched another exploration (%d total)", len(explores))
	}
}

// TestPrefixSliceCountsInStats: slice requests show up in the same
// request/latency counters as whole-table requests.
func TestPrefixSliceCountsInStats(t *testing.T) {
	ts := newPrefixServer(t)
	if status, _ := httpGet(t, ts.URL+"/experiments/S1?prefixes=0"); status != http.StatusOK {
		t.Fatal("slice request failed")
	}
	status, body := httpGet(t, ts.URL+"/stats")
	if status != http.StatusOK {
		t.Fatal("stats failed")
	}
	var st StatsResponse
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != 1 {
		t.Fatalf("requests = %d, want 1", st.Requests)
	}
	if st.Experiments["S1"].Count != 1 {
		t.Fatalf("experiments stats = %+v", st.Experiments)
	}
	// Slice traffic lands on the slice endpoint's histogram, not the
	// whole-experiment one.
	ep, ok := st.Endpoints[EndpointSlice]
	if !ok || ep.Count != 1 {
		t.Fatalf("endpoints = %+v, want a %q entry with count 1", st.Endpoints, EndpointSlice)
	}
	if ep.P50Millis < 0 || ep.P99Millis < ep.P50Millis {
		t.Fatalf("slice endpoint quantiles = %+v", ep)
	}
	if _, ok := st.Endpoints[EndpointExperiment]; ok {
		t.Fatalf("experiment endpoint reported without whole-table traffic: %+v", st.Endpoints)
	}
}
