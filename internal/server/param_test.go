package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/sched"
)

// paramServer stands up a server over one synthetic parameterized
// family (integers x, default 1, and eps, default 5) and returns it
// with the point execution counter.
func paramServer(t *testing.T, opts Options) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	execs := new(atomic.Int64)
	fam := experiments.Experiment{
		ID:  "P1",
		Doc: "synthetic parameterized family",
		Params: []experiments.ParamSpec{
			{Name: "x", Default: 1, Min: 0, Max: 9, Doc: "the point"},
			{Name: "eps", Default: 5, Min: 0, Max: 9, Doc: "a second knob"},
		},
		Run: func(ps experiments.ParamSet) (*experiments.Table, sched.MemoStats, error) {
			execs.Add(1)
			return &experiments.Table{
				ID:      "P1",
				Title:   fmt.Sprintf("point x=%d eps=%d", ps.Int("x"), ps.Int("eps")),
				Headers: []string{"x"},
				Rows:    [][]string{{fmt.Sprint(ps.Int("x"))}},
			}, sched.MemoStats{}, nil
		},
	}
	opts.Registry = map[string]experiments.Experiment{"P1": fam}
	ts := httptest.NewServer(New(opts))
	t.Cleanup(ts.Close)
	return ts, execs
}

// TestParamEndpointOrderIndependent: ?x=3&eps=2 and ?eps=2&x=3
// are one point — identical bytes and a single execution (the second
// request is a cache hit under the canonical identity).
func TestParamEndpointOrderIndependent(t *testing.T) {
	store, err := cache.Open(t.TempDir(), cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts, execs := paramServer(t, Options{Cache: store})
	code1, body1 := get(t, ts, "/experiments/P1?x=3&eps=2")
	code2, body2 := get(t, ts, "/experiments/P1?eps=2&x=3")
	if code1 != http.StatusOK || code2 != http.StatusOK {
		t.Fatalf("codes = %d, %d", code1, code2)
	}
	if body1 != body2 {
		t.Fatalf("parameter order changed the bytes:\n%s\nvs\n%s", body1, body2)
	}
	if !strings.Contains(body1, "point x=3 eps=2") {
		t.Fatalf("body = %q", body1)
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("executions = %d, want 1 (reordered request must hit the cache)", n)
	}
}

// TestParamEndpointDefaultAliasesFixed: spelling out the defaults
// serves the fixed experiment's identity — bytes equal to the bare
// request, one execution total.
func TestParamEndpointDefaultAliasesFixed(t *testing.T) {
	store, err := cache.Open(t.TempDir(), cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts, execs := paramServer(t, Options{Cache: store})
	_, fixed := get(t, ts, "/experiments/P1")
	_, spelled := get(t, ts, "/experiments/P1?x=1&eps=5")
	if fixed != spelled {
		t.Fatalf("spelled-out defaults differ from the fixed experiment:\n%s\nvs\n%s", fixed, spelled)
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("executions = %d, want 1 (default point shares the fixed cache entry)", n)
	}
}

// TestParamEndpointValidation: a bad point is a field-level 400, not a
// 500 and not an execution.
func TestParamEndpointValidation(t *testing.T) {
	ts, execs := paramServer(t, Options{})
	cases := []struct {
		path    string
		wantSub string
	}{
		{"/experiments/P1?q=1", `unknown parameter "q"`},
		{"/experiments/P1?x=11", `parameter "x"`},
		{"/experiments/P1?x=1.5", `parameter "x"`},
		{"/experiments/P1?eps=10", `parameter "eps"`},
		{"/experiments/P1?eps=0.5", `parameter "eps"`},
		{"/experiments/P1?x=1&x=2", `parameter "x"`},
	}
	for _, tc := range cases {
		code, body := get(t, ts, tc.path)
		if code != http.StatusBadRequest || !strings.Contains(body, tc.wantSub) {
			t.Errorf("GET %s = %d %q, want 400 naming %q", tc.path, code, body, tc.wantSub)
		}
	}
	if n := execs.Load(); n != 0 {
		t.Errorf("invalid requests executed %d times", n)
	}

	// The real E15 family: c=3 widens the input ranges, but the choice
	// task's inputs stay {0,1}², so the other pairs are rejected before
	// any exploration.
	real := httptest.NewServer(New(Options{}))
	defer real.Close()
	for _, tc := range []struct {
		path    string
		wantSub string
	}{
		{"/experiments/E15?c=3&i1=2", `parameter "i1"`},
		{"/experiments/E15?c=3&i0=1&i1=2", `parameter "i1"`},
		{"/experiments/E15?c=3&i0=2&i1=0", `parameter "i0"`},
		{"/experiments/E15?c=3&i0=2&i1=1", `parameter "i0"`},
		{"/experiments/E15?c=3&i0=2&i1=2", `parameter "i0"`},
		{"/experiments/E15?c=3&i0=2&prefixes=0", `parameter "i0"`},
	} {
		code, body := get(t, real, tc.path)
		if code != http.StatusBadRequest || !strings.Contains(body, tc.wantSub) {
			t.Errorf("GET %s = %d %q, want 400 naming %q", tc.path, code, body, tc.wantSub)
		}
	}
}

// TestParamOnUnparameterizedExperiment: parameters against an
// experiment with no family are a client error.
func TestParamOnUnparameterizedExperiment(t *testing.T) {
	var execs atomic.Int64
	ts := httptest.NewServer(New(Options{
		Registry: countingRegistry("E1", 0, &execs),
	}))
	defer ts.Close()
	code, body := get(t, ts, "/experiments/E1?k=3")
	if code != http.StatusBadRequest || !strings.Contains(body, "takes no parameters") {
		t.Fatalf("GET /experiments/E1?k=3 = %d %q", code, body)
	}
}

// TestParamEndpointStats: non-default points count under the "param"
// endpoint label; default and bare requests stay under "experiment".
func TestParamEndpointStats(t *testing.T) {
	ts, _ := paramServer(t, Options{})
	get(t, ts, "/experiments/P1?x=2")
	get(t, ts, "/experiments/P1")
	code, body := get(t, ts, "/stats")
	if code != http.StatusOK {
		t.Fatalf("/stats = %d", code)
	}
	var st StatsResponse
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Endpoints == nil {
		t.Fatal("no endpoint section in /stats")
	}
	if _, ok := st.Endpoints[EndpointParam]; !ok {
		t.Fatalf("endpoints = %v, want a %q entry", st.Endpoints, EndpointParam)
	}
}

// TestIndexListsFamilies: the index advertises each family's schema —
// the discoverable surface of the parameterized API.
func TestIndexListsFamilies(t *testing.T) {
	ts, _ := paramServer(t, Options{})
	code, body := get(t, ts, "/experiments")
	if code != http.StatusOK {
		t.Fatalf("/experiments = %d", code)
	}
	var idx struct {
		Families map[string]struct {
			Doc          string `json:"doc"`
			SpaceVersion string `json:"space_version"`
			Params       []struct {
				Name    string `json:"name"`
				Kind    string `json:"kind"`
				Default string `json:"default"`
				Min     int    `json:"min"`
				Max     int    `json:"max"`
			} `json:"params"`
		} `json:"families"`
	}
	if err := json.Unmarshal([]byte(body), &idx); err != nil {
		t.Fatal(err)
	}
	fam, ok := idx.Families["P1"]
	if !ok {
		t.Fatalf("families = %v, want P1", idx.Families)
	}
	if len(fam.Params) != 2 || fam.Params[0].Name != "eps" || fam.Params[1].Name != "x" {
		t.Fatalf("params = %+v, want eps then x (sorted)", fam.Params)
	}
	if p := fam.Params[0]; p.Kind != "int" || p.Default != "5" || p.Min != 0 || p.Max != 9 {
		t.Fatalf("eps = %+v, want an int in [0, 9] defaulting to 5", p)
	}
	if p := fam.Params[1]; p.Kind != "int" || p.Default != "1" || p.Min != 0 || p.Max != 9 {
		t.Fatalf("x = %+v, want an int in [0, 9] defaulting to 1", p)
	}
	if fam.SpaceVersion == "" {
		t.Fatal("family has no space version in the index")
	}
}

// TestParamBackendRoutes: with a Backend configured (the -peers
// deployment), every whole request goes through it, not the local
// engine — a non-default point with its canonical rendering, the plain
// id and a spelled-out default at the default point.
func TestParamBackendRoutes(t *testing.T) {
	var backendCalls atomic.Int64
	var backendParams []string
	ts, execs := paramServer(t, Options{
		Backend: func(ctx context.Context, id string, ps experiments.ParamSet) (experiments.Result, error) {
			backendCalls.Add(1)
			backendParams = append(backendParams, ps.Canonical())
			return experiments.Result{ID: id, Table: &experiments.Table{ID: id, Title: "from backend"}}, nil
		},
	})
	for _, path := range []string{"/experiments/P1?x=4", "/experiments/P1", "/experiments/P1?x=1"} {
		code, body := get(t, ts, path)
		if code != http.StatusOK || !strings.Contains(body, "from backend") {
			t.Fatalf("GET %s = %d %q", path, code, body)
		}
	}
	if backendCalls.Load() != 3 || execs.Load() != 0 {
		t.Fatalf("backend calls = %d, local executions = %d", backendCalls.Load(), execs.Load())
	}
	if got := strings.Join(backendParams, "|"); got != "eps=5,x=4||" {
		t.Fatalf("backend saw params %q", got)
	}
}
