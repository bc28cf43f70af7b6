package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/experiments"
)

func getStats(t *testing.T, ts *httptest.Server) StatsResponse {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/stats status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/stats Content-Type = %q", ct)
	}
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("/stats body: %v", err)
	}
	return st
}

// TestStatsCountersAndCache: /stats reports request totals, cache
// hit/miss counters, and per-experiment latency after real traffic —
// a cold request (miss + store) followed by a warm one (hit).
func TestStatsCountersAndCache(t *testing.T) {
	store, err := cache.Open(t.TempDir(), cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var executions atomic.Int64
	ts := httptest.NewServer(New(Options{
		Registry: countingRegistry("E1", 10*time.Millisecond, &executions),
		Cache:    store,
	}))
	defer ts.Close()

	if st := getStats(t, ts); st.Requests != 0 || len(st.Experiments) != 0 {
		t.Fatalf("fresh server stats = %+v", st)
	}
	for i := 0; i < 2; i++ { // cold then warm
		if status, _ := get(t, ts, "/experiments/E1"); status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, status)
		}
	}

	st := getStats(t, ts)
	if st.RegistryVersion != experiments.RegistryVersion {
		t.Errorf("registry_version = %q", st.RegistryVersion)
	}
	if st.Requests != 2 {
		t.Errorf("requests = %d, want 2", st.Requests)
	}
	if st.InFlight != 0 {
		t.Errorf("in_flight at rest = %d", st.InFlight)
	}
	if st.Cache == nil {
		t.Fatal("cache counters missing despite a cache-backed server")
	}
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Errorf("cache = %+v, want 1 hit / 1 miss", st.Cache)
	}
	if st.Cache.HitRate != 0.5 {
		t.Errorf("hit_rate = %v, want 0.5", st.Cache.HitRate)
	}
	e1, ok := st.Experiments["E1"]
	if !ok {
		t.Fatalf("experiments = %+v, want an E1 entry", st.Experiments)
	}
	if e1.Count != 2 || e1.Errors != 0 {
		t.Errorf("E1 = %+v, want count 2, errors 0", e1)
	}
	// The histogram block carries the latency record, and count is
	// read from it.
	if e1.Histogram == nil {
		t.Fatal("E1 histogram block missing")
	}
	if e1.Histogram.Count != e1.Count {
		t.Errorf("histogram count %d != field count %d", e1.Histogram.Count, e1.Count)
	}
	// The cold request ran a 10ms runner, so the latency record must
	// have registered real time.
	if e1.Histogram.SumMillis <= 0 || e1.Histogram.MaxMillis <= 0 {
		t.Errorf("E1 latency = %+v, want positive sum and max", e1.Histogram)
	}
	if e1.Histogram.MaxMillis > e1.Histogram.SumMillis {
		t.Errorf("E1 max %v exceeds sum %v", e1.Histogram.MaxMillis, e1.Histogram.SumMillis)
	}
	if e1.Histogram.P50Millis <= 0 || e1.Histogram.P95Millis < e1.Histogram.P50Millis ||
		e1.Histogram.P99Millis < e1.Histogram.P95Millis {
		t.Errorf("histogram quantiles out of order: %+v", e1.Histogram)
	}
	if len(e1.Histogram.Buckets) == 0 {
		t.Errorf("histogram has no buckets: %+v", e1.Histogram)
	}
	// The whole-experiment endpoint saw both requests; the slice
	// endpoint saw none and is omitted rather than reported empty.
	ep, ok := st.Endpoints[EndpointExperiment]
	if !ok {
		t.Fatalf("endpoints = %+v, want an %q entry", st.Endpoints, EndpointExperiment)
	}
	if ep.Count != 2 || ep.P50Millis <= 0 || ep.P95Millis <= 0 || ep.P99Millis <= 0 {
		t.Errorf("experiment endpoint = %+v, want count 2 and positive quantiles", ep)
	}
	if _, ok := st.Endpoints[EndpointSlice]; ok {
		t.Errorf("slice endpoint reported without slice traffic: %+v", st.Endpoints)
	}
}

// TestStatsErrorsCounted: a failing experiment increments its error
// counter alongside its request count.
func TestStatsErrorsCounted(t *testing.T) {
	reg := fixedRegistry(map[string]func() (*experiments.Table, error){
		"E1": func() (*experiments.Table, error) { return nil, errors.New("defect") },
	})
	ts := httptest.NewServer(New(Options{Registry: reg}))
	defer ts.Close()
	if status, _ := get(t, ts, "/experiments/E1"); status != http.StatusInternalServerError {
		t.Fatalf("status = %d", status)
	}
	st := getStats(t, ts)
	if e1 := st.Experiments["E1"]; e1.Count != 1 || e1.Errors != 1 {
		t.Errorf("E1 = %+v, want count 1, errors 1", e1)
	}
	if st.Cache != nil {
		t.Errorf("cache counters = %+v on a cacheless server", st.Cache)
	}
}

// TestStatsInFlight: while an experiment executes, /stats reports it
// in flight — an operator's view of the load; the shard coordinator
// ranks workers by its own in-flight count, not this one.
func TestStatsInFlight(t *testing.T) {
	var executions atomic.Int64
	ts := httptest.NewServer(New(Options{
		Registry: countingRegistry("E1", 500*time.Millisecond, &executions),
	}))
	defer ts.Close()
	// The request runs in a goroutine, so failures are reported back
	// over the channel rather than t.Fatal-ing off the test goroutine.
	errc := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Get(ts.URL + "/experiments/E1")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		errc <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the request enter execution
	if st := getStats(t, ts); st.InFlight != 1 {
		t.Errorf("in_flight during execution = %d, want 1", st.InFlight)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if st := getStats(t, ts); st.InFlight != 0 {
		t.Errorf("in_flight after completion = %d, want 0", st.InFlight)
	}
}

// TestBackendReplacesEngine: with Options.Backend set, the serving
// path renders the backend's result and the in-process registry never
// executes — the seam figuresd -peers mounts a shard coordinator on.
func TestBackendReplacesEngine(t *testing.T) {
	var executions atomic.Int64
	var backendCalls atomic.Int64
	ts := httptest.NewServer(New(Options{
		Registry: countingRegistry("E1", 0, &executions),
		Backend: func(ctx context.Context, id string, _ experiments.ParamSet) (experiments.Result, error) {
			backendCalls.Add(1)
			return experiments.Result{ID: id, Table: &experiments.Table{
				ID:      id,
				Title:   "from the fleet",
				Headers: []string{"h"},
				Rows:    [][]string{{"v"}},
			}}, nil
		},
	}))
	defer ts.Close()
	status, body := get(t, ts, "/experiments/E1")
	if status != http.StatusOK || !strings.Contains(body, "from the fleet") {
		t.Fatalf("backend-served response = %d %q", status, body)
	}
	if n := executions.Load(); n != 0 {
		t.Errorf("local registry executed %d times despite a backend", n)
	}
	if n := backendCalls.Load(); n != 1 {
		t.Errorf("backend called %d times, want 1", n)
	}
	// Unknown ids are still rejected by the registry before the
	// backend is consulted.
	if status, _ := get(t, ts, "/experiments/E99"); status != http.StatusNotFound {
		t.Errorf("unknown id with backend: status %d", status)
	}
	if n := backendCalls.Load(); n != 1 {
		t.Errorf("backend consulted for an unknown id")
	}
}

// TestStatsAndMetricsSameSeries: /stats and /metrics render one
// snapshot. Every numeric /stats field is a /metrics series with the
// same value (sum_ms as _sum in seconds, each bucket as its cumulative
// _bucket line), no /metrics series is left without a /stats field,
// and only the derived fields (hit_rate, max_ms, the quantiles) are
// /stats' alone. The walk over the /stats JSON is generic, so a field
// added to one view and not the other fails here.
func TestStatsAndMetricsSameSeries(t *testing.T) {
	store, err := cache.Open(t.TempDir(), cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := experiments.Registry()
	reg["EFAIL"] = experiments.Fixed("EFAIL", func() (*experiments.Table, error) { return nil, errors.New("defect") })
	ts := httptest.NewServer(New(Options{Registry: reg, Cache: store}))
	defer ts.Close()
	for _, req := range []struct {
		path   string
		status int
	}{
		{"/experiments/E1", http.StatusOK},                     // a whole miss
		{"/experiments/E1", http.StatusOK},                     // and its hit
		{"/experiments/E2?k=2", http.StatusOK},                 // an exploring point
		{"/experiments/E2?k=2&prefixes=-", http.StatusOK},      // a slice
		{"/experiments/EFAIL", http.StatusInternalServerError}, // a failure
	} {
		if status, body := get(t, ts, req.path); status != req.status {
			t.Fatalf("GET %s = %d, want %d: %s", req.path, status, req.status, body)
		}
	}

	_, statsBody := get(t, ts, "/stats")
	_, metricsBody := get(t, ts, "/metrics")
	var tree map[string]any
	if err := json.Unmarshal([]byte(statsBody), &tree); err != nil {
		t.Fatal(err)
	}
	// The traffic reaches every section and endpoint, so no part of
	// the walk below is vacuous.
	for _, section := range []string{"cache", "experiments", "endpoints", "exploration", "trace"} {
		if m, _ := tree[section].(map[string]any); len(m) == 0 {
			t.Errorf("/stats has no %s section after the traffic:\n%s", section, statsBody)
		}
	}
	if endpoints, _ := tree["endpoints"].(map[string]any); len(endpoints) != 3 {
		t.Errorf("/stats endpoints = %v, want all three hit", endpoints)
	}

	series := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimSpace(metricsBody), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("/metrics line %q: %v", line, err)
		}
		series[line[:i]] = v
	}
	matched := make(map[string]bool)
	match := func(field string, keys []string, want float64) {
		t.Helper()
		for _, key := range keys {
			if got, ok := series[key]; ok {
				matched[key] = true
				if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
					t.Errorf("/stats %s = %v but /metrics %s = %v", field, want, key, got)
				}
				return
			}
		}
		t.Errorf("/stats %s = %v has no /metrics series (tried %v)", field, want, keys)
	}
	derived := regexp.MustCompile(`^(hit_rate|max_ms|p\d+_ms)$`)

	// seriesOf names the series a /stats field renders as: the keyed
	// sections carry their key as a label, and any other field is
	// repro_<section>_<field>.
	seriesOf := func(path []string) (name, labels string) {
		switch path[0] {
		case "experiments":
			renamed := map[string]string{"count": "requests", "errors": "errors", "histogram": "duration_seconds"}
			return "repro_experiment_" + renamed[path[2]], fmt.Sprintf("id=%q", path[1])
		case "endpoints":
			return "repro_request_duration_seconds", fmt.Sprintf("endpoint=%q", path[1])
		}
		return "repro_" + strings.Join(path, "_"), ""
	}
	withLabels := func(name, labels string) string {
		if labels == "" {
			return name
		}
		return name + "{" + labels + "}"
	}
	var walk func(path []string, v any)
	walk = func(path []string, v any) {
		field := strings.Join(path, ".")
		switch v := v.(type) {
		case map[string]any:
			if _, ok := v["sum_ms"]; !ok {
				for k, sub := range v {
					walk(append(path[:len(path):len(path)], k), sub)
				}
				return
			}
			// A hist.Snapshot: one Prometheus histogram.
			name, labels := seriesOf(path)
			for k, sub := range v {
				switch {
				case k == "count":
					match(field+".count", []string{name + "_count{" + labels + "}"}, sub.(float64))
					match(field+".count", []string{name + "_bucket{" + labels + `,le="+Inf"}`}, sub.(float64))
				case k == "sum_ms":
					match(field+".sum_ms", []string{name + "_sum{" + labels + "}"}, sub.(float64)/1000)
				case k == "buckets":
					var cum float64
					for _, b := range sub.([]any) {
						b := b.(map[string]any)
						cum += b["count"].(float64)
						match(field+".buckets", []string{fmt.Sprintf("%s_bucket{%s,le=\"%g\"}",
							name, labels, b["le_ms"].(float64)/1000)}, cum)
					}
				case !derived.MatchString(k):
					t.Errorf("/stats %s.%s has no /metrics series", field, k)
				}
			}
		case float64:
			if derived.MatchString(path[len(path)-1]) {
				return
			}
			name, labels := seriesOf(path)
			match(field, []string{withLabels(name+"_total", labels), withLabels(name, labels)}, v)
		case string:
			match(field, []string{fmt.Sprintf("repro_%s_info{%s=%q}", strings.TrimSuffix(field, "_version"), field, v)}, 1)
		default:
			t.Errorf("/stats %s: unexpected %T", field, v)
		}
	}
	walk(nil, tree)
	for key := range series {
		if !matched[key] {
			t.Errorf("/metrics series %s has no /stats field", key)
		}
	}
}

// TestConcurrentRecordAndSnapshot: requests record into the server's
// counters while /stats and /metrics read them. Under -race (make
// race-cache) the lock-free record and the one snapshot must not race,
// and at rest both views count every request.
func TestConcurrentRecordAndSnapshot(t *testing.T) {
	reg := fixedRegistry(map[string]func() (*experiments.Table, error){
		"E1": func() (*experiments.Table, error) {
			return &experiments.Table{ID: "E1", Headers: []string{"h"}, Rows: [][]string{{"v"}}}, nil
		},
		"E2": func() (*experiments.Table, error) { return nil, errors.New("defect") },
	})
	ts := httptest.NewServer(New(Options{Registry: reg}))
	defer ts.Close()
	fetch := func(path string) error {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		return resp.Body.Close()
	}

	const senders, perSender = 4, 20
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for _, path := range []string{"/stats", "/metrics"} {
		readers.Add(1)
		go func(path string) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := fetch(path); err != nil {
					t.Error(err)
					return
				}
			}
		}(path)
	}
	for i := 0; i < senders; i++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for j := 0; j < perSender; j++ {
				if err := fetch([]string{"/experiments/E1", "/experiments/E2"}[j%2]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	st := getStats(t, ts)
	const total = senders * perSender
	if st.Requests != total || st.InFlight != 0 || st.Endpoints[EndpointExperiment].Count != total {
		t.Errorf("stats = requests %d, in flight %d, endpoint %+v; want %d, 0, %d",
			st.Requests, st.InFlight, st.Endpoints[EndpointExperiment], total, total)
	}
	if e1, e2 := st.Experiments["E1"], st.Experiments["E2"]; e1.Count != total/2 || e1.Errors != 0 ||
		e2.Count != total/2 || e2.Errors != total/2 {
		t.Errorf("E1 = %+v, E2 = %+v; want %d requests each, every E2 one failed", e1, e2, total/2)
	}
	if _, body := get(t, ts, "/metrics"); !strings.Contains(body, fmt.Sprintf("\nrepro_requests_total %d\n", total)) {
		t.Errorf("/metrics does not count %d requests:\n%s", total, body)
	}
}
