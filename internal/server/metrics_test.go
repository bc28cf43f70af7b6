package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/trace"
)

// getWithHeader is get plus the response headers, for asserting the
// trace-ID echo.
func getWithHeader(t *testing.T, ts *httptest.Server, path string, reqHeader map[string]string) (int, string, http.Header) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range reqHeader {
		req.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

// TestTraceEndpoint: a served request's span is fetchable at
// /trace/{id} using the ID the response echoed, opens with the request
// event and closes with a done event carrying the status; an unknown
// ID is a 404.
func TestTraceEndpoint(t *testing.T) {
	ts := newPrefixServer(t)
	status, _, hdr := getWithHeader(t, ts, "/experiments/S1?format=json", nil)
	if status != http.StatusOK {
		t.Fatalf("experiment request failed: %d", status)
	}
	id := hdr.Get(trace.Header)
	if id == "" {
		t.Fatalf("response carries no %s header", trace.Header)
	}

	status, body, _ := getWithHeader(t, ts, "/trace/"+id, nil)
	if status != http.StatusOK {
		t.Fatalf("GET /trace/%s = %d: %s", id, status, body)
	}
	var tr trace.Trace
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.ID != id || !strings.Contains(tr.What, "/experiments/S1") {
		t.Fatalf("trace header = %q %q", tr.ID, tr.What)
	}
	if len(tr.Events) < 2 {
		t.Fatalf("events = %+v, want at least request+done", tr.Events)
	}
	if tr.Events[0].Kind != trace.KindRequest {
		t.Fatalf("first event = %+v, want %s", tr.Events[0], trace.KindRequest)
	}
	last := tr.Events[len(tr.Events)-1]
	if last.Kind != trace.KindDone || !strings.Contains(last.Detail, "status 200") {
		t.Fatalf("last event = %+v, want a done with status 200", last)
	}
	// The cacheless run records its cache outcome as a miss.
	var sawMiss bool
	for _, ev := range tr.Events {
		if ev.Kind == trace.KindCacheMiss {
			sawMiss = true
		}
	}
	if !sawMiss {
		t.Fatalf("no cache_miss event in %+v", tr.Events)
	}

	if status, _, _ := getWithHeader(t, ts, "/trace/nope", nil); status != http.StatusNotFound {
		t.Fatalf("unknown trace id = %d, want 404", status)
	}
}

// TestTraceHeaderPropagation: a client-supplied Repro-Request-ID is
// honored — journaled under, echoed back — so a coordinator's ID names
// the same request in the worker's journal.
func TestTraceHeaderPropagation(t *testing.T) {
	ts := newPrefixServer(t)
	const id = "deadbeef00112233"
	status, _, hdr := getWithHeader(t, ts, "/experiments/S1?prefixes=0", map[string]string{trace.Header: id})
	if status != http.StatusOK {
		t.Fatalf("slice request failed: %d", status)
	}
	if got := hdr.Get(trace.Header); got != id {
		t.Fatalf("echoed trace id = %q, want the supplied %q", got, id)
	}
	status, body, _ := getWithHeader(t, ts, "/trace/"+id, nil)
	if status != http.StatusOK {
		t.Fatalf("GET /trace/%s = %d", id, status)
	}
	var tr trace.Trace
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatal(err)
	}
	// The slice path records its exploration, tagged with the range.
	var sawExplore bool
	for _, ev := range tr.Events {
		if ev.Kind == trace.KindExplore && ev.Range == "0" {
			sawExplore = true
		}
	}
	if !sawExplore {
		t.Fatalf("no explore event for range 0 in %+v", tr.Events)
	}
}

// TestMetricsExposition: /metrics renders the Prometheus text format —
// # TYPE preambles, counters matching the request traffic, and per-
// endpoint histogram series whose cumulative buckets are monotone and
// whose +Inf bucket equals _count. This is the schema a Prometheus
// scraper reads, so it changes as deliberately as /stats.
func TestMetricsExposition(t *testing.T) {
	ts := newPrefixServer(t)
	if status, _, _ := getWithHeader(t, ts, "/experiments/S1?format=json", nil); status != http.StatusOK {
		t.Fatal("experiment request failed")
	}
	if status, _, _ := getWithHeader(t, ts, "/experiments/S1?prefixes=0", nil); status != http.StatusOK {
		t.Fatal("slice request failed")
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q, want the 0.0.4 exposition format", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	for _, want := range []string{
		"# TYPE repro_registry_info gauge",
		"# TYPE repro_requests_total counter",
		"# TYPE repro_in_flight gauge",
		"# TYPE repro_request_duration_seconds histogram",
		"# TYPE repro_experiment_requests_total counter",
		"# TYPE repro_experiment_errors_total counter",
		"# TYPE repro_experiment_duration_seconds histogram",
		"# TYPE repro_trace_requests gauge",
		"repro_requests_total 2",
		`repro_experiment_requests_total{id="S1"} 2`,
		`repro_experiment_errors_total{id="S1"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	// A # TYPE line appears exactly once per family.
	if n := strings.Count(body, "# TYPE repro_request_duration_seconds histogram"); n != 1 {
		t.Errorf("duration # TYPE emitted %d times, want 1", n)
	}

	for _, endpoint := range []string{EndpointExperiment, EndpointSlice} {
		assertHistogramSeries(t, body, "repro_request_duration_seconds",
			fmt.Sprintf("endpoint=%q", endpoint), 1)
	}
	assertHistogramSeries(t, body, "repro_experiment_duration_seconds", `id="S1"`, 2)
}

// assertHistogramSeries checks one labeled histogram's invariants in
// the exposition body: at least one finite bucket, cumulative counts
// monotone, +Inf bucket == _count == wantCount.
func assertHistogramSeries(t *testing.T, body, name, label string, wantCount int64) {
	t.Helper()
	bucketRe := regexp.MustCompile(
		`(?m)^` + regexp.QuoteMeta(name+"_bucket{"+label+",le=") + `"([^"]+)"\} (\d+)$`)
	matches := bucketRe.FindAllStringSubmatch(body, -1)
	if len(matches) < 2 {
		t.Fatalf("%s{%s}: %d bucket lines, want ≥ 2 (finite + +Inf)", name, label, len(matches))
	}
	var prev int64 = -1
	var inf int64 = -1
	for _, m := range matches {
		n, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if n < prev {
			t.Fatalf("%s{%s}: bucket counts not cumulative: %d after %d", name, label, n, prev)
		}
		prev = n
		if m[1] == "+Inf" {
			inf = n
		}
	}
	if inf != wantCount {
		t.Fatalf("%s{%s}: +Inf bucket = %d, want %d", name, label, inf, wantCount)
	}
	countRe := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name+"_count{"+label+"}") + ` (\d+)$`)
	cm := countRe.FindStringSubmatch(body)
	if cm == nil {
		t.Fatalf("%s{%s}: no _count line", name, label)
	}
	if n, _ := strconv.ParseInt(cm[1], 10, 64); n != wantCount {
		t.Fatalf("%s{%s}: _count = %d, want %d", name, label, n, wantCount)
	}
}

// TestMetricsSliceCacheTrace: with an artifact store behind the
// server, a cold slice records miss+store and a warm identical slice
// records a hit — the journal evidence for the read-through hierarchy.
func TestMetricsSliceCacheTrace(t *testing.T) {
	ts, _, _ := newCachedPrefixServer(t)
	const cold, warm = "aaaa000000000001", "aaaa000000000002"
	if status, _, _ := getWithHeader(t, ts, "/experiments/S1?prefixes=0",
		map[string]string{trace.Header: cold}); status != http.StatusOK {
		t.Fatal("cold slice failed")
	}
	if status, _, _ := getWithHeader(t, ts, "/experiments/S1?prefixes=0",
		map[string]string{trace.Header: warm}); status != http.StatusOK {
		t.Fatal("warm slice failed")
	}
	kinds := func(id string) map[string]bool {
		_, body, _ := getWithHeader(t, ts, "/trace/"+id, nil)
		var tr trace.Trace
		if err := json.Unmarshal([]byte(body), &tr); err != nil {
			t.Fatalf("trace %s: %v", id, err)
		}
		out := make(map[string]bool)
		for _, ev := range tr.Events {
			out[ev.Kind] = true
		}
		return out
	}
	coldKinds := kinds(cold)
	if !coldKinds[trace.KindSliceMiss] || !coldKinds[trace.KindSliceStore] {
		t.Fatalf("cold slice kinds = %v, want miss+store", coldKinds)
	}
	warmKinds := kinds(warm)
	if !warmKinds[trace.KindSliceHit] || warmKinds[trace.KindExplore] {
		t.Fatalf("warm slice kinds = %v, want a hit and no exploration", warmKinds)
	}
}
