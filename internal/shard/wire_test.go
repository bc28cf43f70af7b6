package shard

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/server"
	"repro/internal/trace"
)

// uriRecorder is a figuresd worker over the real registry that records
// the request URI of every experiment fetch it serves.
type uriRecorder struct {
	mu   sync.Mutex
	uris []string
	h    http.Handler
}

func (r *uriRecorder) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if strings.HasPrefix(req.URL.Path, "/experiments/") {
		r.mu.Lock()
		r.uris = append(r.uris, req.URL.RequestURI())
		r.mu.Unlock()
	}
	r.h.ServeHTTP(w, req)
}

// take returns the recorded URIs, sorted, and clears the record.
func (r *uriRecorder) take() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.uris
	r.uris = nil
	sort.Strings(out)
	return out
}

// e2Point parses a -param list against the real E2 family.
func e2Point(t *testing.T, list string) experiments.ParamSet {
	t.Helper()
	ps, err := experiments.ParseParamList(experiments.Registry()["E2"], list)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// e2Carve is the four ranges a two-worker fleet carves E2's depth-5
// partition into — the same roots at the default point and at k=3 — in
// the ?prefixes= spelling the coordinator sends.
var e2Carve = []string{
	"0.0.0.0.0%2C0.0.0.0.1%2C0.0.0.1.0%2C0.0.0.1.1%2C0.0.1.0.0%2C0.0.1.0.1%2C0.0.1.1.0%2C0.0.1.1.1",
	"0.1.0.0.0%2C0.1.0.0.1%2C0.1.0.1.0%2C0.1.0.1.1%2C0.1.1.0.0%2C0.1.1.0.1%2C0.1.1.1.0%2C0.1.1.1.1",
	"1.0.0.0.0%2C1.0.0.0.1%2C1.0.0.1.0%2C1.0.0.1.1%2C1.0.1.0.0%2C1.0.1.0.1%2C1.0.1.1.0%2C1.0.1.1.1",
	"1.1.0.0.0%2C1.1.0.0.1%2C1.1.0.1.0%2C1.1.0.1.1%2C1.1.1.0.0%2C1.1.1.0.1%2C1.1.1.1.0%2C1.1.1.1.1",
}

// TestCoordinatorWireURIs pins the coordinator's wire: the exact URIs
// it sends a recording fleet and the span names it journals, for a
// whole fetch, the E2 carve at the default point (plain, and spelled
// out as the front door passes it on) and at k=3, and a whole fetch of
// the k=3 point when only one worker can take it. The default point
// sends no parameter query; a non-default point spells every parameter
// out ahead of the serving key.
func TestCoordinatorWireURIs(t *testing.T) {
	w1 := &uriRecorder{h: server.New(server.Options{})}
	w2 := &uriRecorder{h: server.New(server.Options{})}
	ts1, ts2 := httptest.NewServer(w1), httptest.NewServer(w2)
	t.Cleanup(ts1.Close)
	t.Cleanup(ts2.Close)
	journal := trace.NewJournal(0, 0)
	pair, err := New(Options{Workers: []string{ts1.URL, ts2.URL}, Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	solo, err := New(Options{Workers: []string{ts1.URL}, Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	withPrefixes := func(query string, carve []string) []string {
		var out []string
		for _, prefixes := range carve {
			out = append(out, "/experiments/E2?"+query+"prefixes="+prefixes)
		}
		return out
	}
	cases := []struct {
		name     string
		run      func(context.Context) (experiments.Result, error)
		wantURIs []string
		wantSpan string
	}{
		{"E1 whole", func(ctx context.Context) (experiments.Result, error) {
			rs, err := pair.Run(ctx, []string{"E1"})
			if err != nil {
				return experiments.Result{}, err
			}
			return rs[0], nil
		}, []string{"/experiments/E1?format=json"}, "run E1"},
		{"E2 carve", func(ctx context.Context) (experiments.Result, error) {
			rs, err := pair.Run(ctx, []string{"E2"})
			if err != nil {
				return experiments.Result{}, err
			}
			return rs[0], nil
		}, withPrefixes("", e2Carve), "run E2"},
		{"E2?k=4 carve", func(ctx context.Context) (experiments.Result, error) {
			return pair.RunParam(ctx, "E2", e2Point(t, "k=4"))
		}, withPrefixes("", e2Carve), "run E2"},
		{"E2?k=3 carve", func(ctx context.Context) (experiments.Result, error) {
			return pair.RunParam(ctx, "E2", e2Point(t, "k=3"))
		}, withPrefixes("i0=0&i1=1&k=3&", e2Carve), "run E2?i0=0,i1=1,k=3"},
		{"E2?k=3 whole", func(ctx context.Context) (experiments.Result, error) {
			return solo.RunParam(ctx, "E2", e2Point(t, "k=3"))
		}, []string{"/experiments/E2?i0=0&i1=1&k=3&format=json"}, "run E2?i0=0,i1=1,k=3"},
	}
	for _, tc := range cases {
		w1.take()
		w2.take()
		before := len(journal.Traces())
		res, err := tc.run(context.Background())
		if err != nil || res.Err != nil {
			t.Fatalf("%s: run = %+v, %v", tc.name, res, err)
		}
		got := append(w1.take(), w2.take()...)
		sort.Strings(got)
		if !reflect.DeepEqual(got, tc.wantURIs) {
			t.Errorf("%s: worker URIs\n got %q\nwant %q", tc.name, got, tc.wantURIs)
		}
		traces := journal.Traces()
		if len(traces) != before+1 {
			t.Fatalf("%s: journal grew by %d spans, want 1", tc.name, len(traces)-before)
		}
		if what := traces[len(traces)-1].What; what != tc.wantSpan {
			t.Errorf("%s: span name %q, want %q", tc.name, what, tc.wantSpan)
		}
	}
}
