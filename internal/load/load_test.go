package load

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/server"
	"repro/internal/trace"
)

// fakeRegistry returns one experiment whose shardable seam has a
// four-root partition — enough for the planner to carve slice request
// paths without running any real exploration.
func fakeRegistry() map[string]experiments.Experiment {
	sh := experiments.Shardable{Roots: func() ([][]int, error) {
		return [][]int{{0}, {1}, {2}, {3}}, nil
	}}
	return map[string]experiments.Experiment{
		"S1": {ID: "S1", Shardable: func(experiments.ParamSet) experiments.Shardable { return sh }},
	}
}

// fakeFleet is an httptest figuresd: instant 200s for whole and slice
// fetches, counting each kind, with a /stats body whose cache
// counters advance between scrapes.
type fakeFleet struct {
	whole, slice atomic.Int64
	scrapes      atomic.Int64
	traced       atomic.Int64 // experiment requests carrying a trace header
	failID       string
}

func (f *fakeFleet) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /experiments/{id}", func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(trace.Header) != "" {
			f.traced.Add(1)
		}
		if r.PathValue("id") == f.failID {
			http.Error(w, "injected failure", http.StatusInternalServerError)
			return
		}
		if r.URL.Query().Get("prefixes") != "" {
			f.slice.Add(1)
		} else {
			f.whole.Add(1)
		}
		fmt.Fprint(w, `{"ok":true}`)
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		n := f.scrapes.Add(1)
		st := server.StatsResponse{Requests: f.whole.Load() + f.slice.Load()}
		if n > 1 { // later scrapes report cache traffic
			st.Cache = &server.StatsCache{Hits: 8, Misses: 2}
		} else {
			st.Cache = &server.StatsCache{}
		}
		json.NewEncoder(w).Encode(st)
	})
	return mux
}

// TestMixWeightingAndPacing: the deterministic mix rotation issues
// whole and slice requests in exactly the configured ratio, and the
// open-loop pacer stays within tolerance of target QPS against an
// instant server — the arrival count is bounded above by the schedule
// and below by a generous slow-CI floor.
func TestMixWeightingAndPacing(t *testing.T) {
	fleet := &fakeFleet{}
	ts := httptest.NewServer(fleet.handler())
	defer ts.Close()

	const qps, window = 200.0, 600 * time.Millisecond
	sum, err := Run(context.Background(), Options{
		Targets:     []string{ts.URL},
		QPS:         qps,
		Duration:    window,
		Mix:         []MixEntry{{Kind: KindWhole, Weight: 3}, {Kind: KindSlice, Weight: 1}},
		Experiments: []string{"E1", "S1"},
		Registry:    fakeRegistry(),
		Client:      ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	maxArrivals := int64(qps * window.Seconds())
	if sum.Requests > maxArrivals || sum.Requests < maxArrivals/2 {
		t.Errorf("requests = %d, want within (%d, %d]", sum.Requests, maxArrivals/2, maxArrivals)
	}
	if sum.Errors != 0 {
		t.Fatalf("errors = %d (%v)", sum.Errors, sum.ErrorSamples)
	}
	if sum.AchievedQPS <= 0 {
		t.Errorf("achieved_qps = %v", sum.AchievedQPS)
	}
	whole, slice := sum.Kinds[KindWhole], sum.Kinds[KindSlice]
	if whole.Requests+slice.Requests != sum.Requests {
		t.Errorf("kind counts %d+%d don't sum to %d", whole.Requests, slice.Requests, sum.Requests)
	}
	// The rotation is W W W S: across any prefix the ratio is exact to
	// within one rotation's worth of requests.
	if diff := whole.Requests - 3*slice.Requests; diff < -3 || diff > 3 {
		t.Errorf("mix ratio off: whole=%d slice=%d", whole.Requests, slice.Requests)
	}
	if got := fleet.whole.Load() + fleet.slice.Load(); got != sum.Requests {
		t.Errorf("server saw %d requests, summary says %d", got, sum.Requests)
	}
	// Client-side latency histograms recorded every request.
	if whole.Latency.Count != whole.Requests || whole.Latency.P50Millis < 0 {
		t.Errorf("whole latency = %+v", whole.Latency)
	}
	if whole.Latency.P99Millis < whole.Latency.P50Millis {
		t.Errorf("quantiles out of order: %+v", whole.Latency)
	}
}

// TestErrorPropagation: request failures (HTTP 500) are counted per
// kind and sampled, never silently dropped — and they don't abort the
// run.
func TestErrorPropagation(t *testing.T) {
	fleet := &fakeFleet{failID: "E1"}
	ts := httptest.NewServer(fleet.handler())
	defer ts.Close()

	sum, err := Run(context.Background(), Options{
		Targets:     []string{ts.URL},
		QPS:         100,
		Duration:    200 * time.Millisecond,
		Mix:         []MixEntry{{Kind: KindWhole, Weight: 1}},
		Experiments: []string{"E1"},
		Client:      ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Requests == 0 {
		t.Fatal("no requests issued")
	}
	if sum.Errors != sum.Requests {
		t.Errorf("errors = %d, want every request (%d)", sum.Errors, sum.Requests)
	}
	if sum.Kinds[KindWhole].Errors != sum.Errors {
		t.Errorf("kind errors = %d, want %d", sum.Kinds[KindWhole].Errors, sum.Errors)
	}
	if len(sum.ErrorSamples) == 0 || !strings.Contains(sum.ErrorSamples[0].Error, "status 500") {
		t.Errorf("error samples = %v", sum.ErrorSamples)
	}
	// Every failure is addressable in the fleet's journals: the sample
	// carries the trace ID the harness sent with the request.
	for _, s := range sum.ErrorSamples {
		if s.RequestID == "" {
			t.Errorf("error sample without a request id: %+v", s)
		}
	}
	// An all-errors run has no successful requests to sample traces of.
	if len(sum.TraceSamples) != 0 {
		t.Errorf("trace samples on an all-errors run: %+v", sum.TraceSamples)
	}
}

// TestTraceIDsOnWire: every request the harness issues carries a
// Repro-Request-ID header, and a healthy run's summary samples a few
// of them — the handles CI uses to fetch /trace/{id} after the run.
func TestTraceIDsOnWire(t *testing.T) {
	fleet := &fakeFleet{}
	ts := httptest.NewServer(fleet.handler())
	defer ts.Close()

	sum, err := Run(context.Background(), Options{
		Targets:     []string{ts.URL},
		QPS:         100,
		Duration:    200 * time.Millisecond,
		Mix:         []MixEntry{{Kind: KindWhole, Weight: 1}},
		Experiments: []string{"E1"},
		Client:      ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := fleet.traced.Load(); got != sum.Requests {
		t.Errorf("%d of %d requests carried a trace header", got, sum.Requests)
	}
	if len(sum.TraceSamples) == 0 {
		t.Fatal("healthy run produced no trace samples")
	}
	if want := min(int(sum.Requests), sampleCap); len(sum.TraceSamples) != want {
		t.Errorf("trace samples = %d, want %d", len(sum.TraceSamples), want)
	}
	for _, s := range sum.TraceSamples {
		if s.RequestID == "" || s.Kind != KindWhole || s.Target != ts.URL || s.Path == "" {
			t.Errorf("malformed trace sample: %+v", s)
		}
	}
}

// TestStatsScrape: each target's /stats is scraped before and after
// the measured phase, and the cache hit rate over the run is computed
// from the deltas.
func TestStatsScrape(t *testing.T) {
	fleet := &fakeFleet{}
	ts := httptest.NewServer(fleet.handler())
	defer ts.Close()

	sum, err := Run(context.Background(), Options{
		Targets:     []string{ts.URL},
		QPS:         50,
		Duration:    100 * time.Millisecond,
		Mix:         []MixEntry{{Kind: KindWhole, Weight: 1}},
		Experiments: []string{"E1"},
		Client:      ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	tgt, ok := sum.Targets[ts.URL]
	if !ok {
		t.Fatalf("targets = %+v, want %s", sum.Targets, ts.URL)
	}
	if tgt.ScrapeError != "" {
		t.Fatalf("scrape error: %s", tgt.ScrapeError)
	}
	if tgt.Requests != sum.Requests {
		t.Errorf("target requests = %d, want %d", tgt.Requests, sum.Requests)
	}
	if tgt.CacheBefore == nil || tgt.CacheAfter == nil {
		t.Fatalf("cache snapshots missing: %+v", tgt)
	}
	// before: 0 hits / 0 misses; after: 8/2 → run hit rate 0.8.
	if tgt.CacheHitRate != 0.8 {
		t.Errorf("cache_hit_rate = %v, want 0.8", tgt.CacheHitRate)
	}
}

// TestCancellation: cancelling the context stops dispatch long before
// the configured duration and still returns a (partial) summary.
func TestCancellation(t *testing.T) {
	fleet := &fakeFleet{}
	ts := httptest.NewServer(fleet.handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	sum, err := Run(ctx, Options{
		Targets:     []string{ts.URL},
		QPS:         20,
		Duration:    30 * time.Second,
		Mix:         []MixEntry{{Kind: KindWhole, Weight: 1}},
		Experiments: []string{"E1"},
		Client:      ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled run took %v", elapsed)
	}
	if !sum.Cancelled {
		t.Error("summary not marked cancelled")
	}
}

// TestConfigErrors: misconfiguration fails Run up front instead of
// producing a meaningless summary.
func TestConfigErrors(t *testing.T) {
	base := Options{
		Targets:     []string{"localhost:1"},
		QPS:         10,
		Duration:    time.Second,
		Mix:         []MixEntry{{Kind: KindWhole, Weight: 1}},
		Experiments: []string{"E1"},
	}
	cases := []struct {
		name   string
		mutate func(*Options)
	}{
		{"no targets", func(o *Options) { o.Targets = nil }},
		{"zero qps", func(o *Options) { o.QPS = 0 }},
		{"zero duration", func(o *Options) { o.Duration = 0 }},
		{"no experiments", func(o *Options) { o.Experiments = nil }},
		{"empty mix", func(o *Options) { o.Mix = nil }},
		{"bad format", func(o *Options) { o.Format = "xml" }},
		{"bad experiment weight", func(o *Options) { o.Experiments = []string{"E1:zero"} }},
		{"slice without shardables", func(o *Options) {
			o.Mix = []MixEntry{{Kind: KindSlice, Weight: 1}}
			o.Registry = map[string]experiments.Experiment{}
		}},
	}
	for _, tc := range cases {
		opts := base
		tc.mutate(&opts)
		if _, err := Run(context.Background(), opts); err == nil {
			t.Errorf("%s: Run succeeded", tc.name)
		}
	}
}

// TestParseMix: the flag syntax round-trips weights and rejects
// garbage.
func TestParseMix(t *testing.T) {
	mix, err := ParseMix("whole:3, slice:1")
	if err != nil {
		t.Fatal(err)
	}
	want := []MixEntry{{Kind: KindWhole, Weight: 3}, {Kind: KindSlice, Weight: 1}}
	if len(mix) != 2 || mix[0] != want[0] || mix[1] != want[1] {
		t.Errorf("mix = %+v, want %+v", mix, want)
	}
	if mix, err := ParseMix("whole"); err != nil || mix[0].Weight != 1 {
		t.Errorf("bare kind: %+v, %v", mix, err)
	}
	for _, bad := range []string{"", "bogus:1", "whole:0", "whole:-2", "whole:x"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) succeeded", bad)
		}
	}
}
