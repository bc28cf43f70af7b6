package shard

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/server"
	"repro/internal/trace"
)

// kindSet collapses a trace to the set of event kinds it recorded.
func kindSet(tr trace.Trace) map[string]bool {
	out := make(map[string]bool)
	for _, ev := range tr.Events {
		out[ev.Kind] = true
	}
	return out
}

// TestPrefixShardedTraceEndToEnd is the tracing tentpole's
// acceptance gate at package level: one prefix-sharded run under a
// coordinator journal produces a single trace whose ID also names the
// request in every worker's journal (header propagation), with a
// carve event, one worker_selected + fetch pair per range annotated
// with the worker and in-flight count, and worker-side explore events
// for the same ranges.
func TestPrefixShardedTraceEndToEnd(t *testing.T) {
	const id = "E2"
	j1, j2 := trace.NewJournal(0, 0), trace.NewJournal(0, 0)
	reg1, _ := shardableFixture(id)
	w1 := httptest.NewServer(server.New(server.Options{Registry: reg1, Journal: j1}))
	t.Cleanup(w1.Close)
	reg2, _ := shardableFixture(id)
	w2 := httptest.NewServer(server.New(server.Options{Registry: reg2, Journal: j2}))
	t.Cleanup(w2.Close)

	journal := trace.NewJournal(0, 0)
	localReg, _ := shardableFixture(id)
	coord, err := New(Options{
		Workers: []string{w1.URL, w2.URL},
		Local:   experiments.Options{Registry: localReg, Jobs: 1},
		Journal: journal,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Run(context.Background(), []string{id}); err != nil {
		t.Fatal(err)
	}

	traces := journal.Traces()
	if len(traces) != 1 {
		t.Fatalf("coordinator journal holds %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.What != "run "+id {
		t.Fatalf("trace What = %q", tr.What)
	}
	kinds := kindSet(tr)
	if !kinds[trace.KindCarve] {
		t.Fatalf("no carve event in %+v", tr.Events)
	}
	// 8 roots over 2 workers carve into 4 ranges: each range gets a
	// selection (annotated with worker + in-flight) and a fetch, all
	// tagged with its canonical prefix rendering.
	selected := make(map[string]bool)
	fetched := make(map[string]bool)
	for _, ev := range tr.Events {
		switch ev.Kind {
		case trace.KindWorkerSelected:
			if ev.Worker == "" || !strings.Contains(ev.Detail, "in-flight") {
				t.Fatalf("selection event missing worker/load: %+v", ev)
			}
			selected[ev.Range] = true
		case trace.KindFetch:
			if ev.Worker == "" || ev.Range == "" {
				t.Fatalf("fetch event missing worker/range: %+v", ev)
			}
			fetched[ev.Range] = true
		}
	}
	if len(selected) != 4 || len(fetched) != 4 {
		t.Fatalf("selected %d ranges, fetched %d, want 4 each: %+v", len(selected), len(fetched), tr.Events)
	}

	// The same ID names this request on the workers: each worker's
	// journal holds the trace with explore events for the ranges it
	// served — the evidence the Repro-Request-ID header crossed over.
	workerRanges := make(map[string]bool)
	for i, wj := range []*trace.Journal{j1, j2} {
		wtr, ok := wj.Get(tr.ID)
		if !ok {
			t.Fatalf("worker %d journal has no trace %s (header not propagated?)", i+1, tr.ID)
		}
		for _, ev := range wtr.Events {
			if ev.Kind == trace.KindExplore {
				workerRanges[ev.Range] = true
			}
		}
	}
	if len(workerRanges) != 4 {
		t.Fatalf("workers journaled explorations for %d ranges, want 4", len(workerRanges))
	}
	for r := range fetched {
		if !workerRanges[r] {
			t.Fatalf("range %s fetched by the coordinator but explored by no worker", r)
		}
	}
}

// TestWholeFetchTraceRetryAndFallback: a fleet of one broken worker
// and one dead worker journals the whole story — selection, retry
// with the failure detail, eviction of the dead worker, and the local
// fallback that finally served the experiment.
func TestWholeFetchTraceRetryAndFallback(t *testing.T) {
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	t.Cleanup(broken.Close)

	journal := trace.NewJournal(0, 0)
	reg, _ := syntheticRegistry("E1")
	coord, err := New(Options{
		Workers: []string{broken.URL},
		Local:   experiments.Options{Registry: reg, Jobs: 1},
		Journal: journal,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.RunParam(context.Background(), "E1", experiments.ParamSet{})
	if err != nil || res.Err != nil {
		t.Fatalf("run = %+v, %v", res, err)
	}

	traces := journal.Traces()
	if len(traces) != 1 {
		t.Fatalf("journal holds %d traces, want 1", len(traces))
	}
	kinds := kindSet(traces[0])
	for _, want := range []string{trace.KindWorkerSelected, trace.KindRetry, trace.KindLocalFallback} {
		if !kinds[want] {
			t.Errorf("no %s event in %+v", want, traces[0].Events)
		}
	}
	var retryDetail string
	for _, ev := range traces[0].Events {
		if ev.Kind == trace.KindRetry {
			retryDetail = ev.Detail
		}
	}
	if !strings.Contains(retryDetail, "status 500") {
		t.Errorf("retry detail = %q, want the failure's status", retryDetail)
	}
}

// TestServerBackendTraceSharesID: mounted as a server backend
// (figuresd -peers), the coordinator journals under the ID the
// serving layer minted — the shared-journal wiring that makes a
// front-door /trace/{id} show both layers.
func TestServerBackendTraceSharesID(t *testing.T) {
	const id = "E1"
	fleetReg, _ := syntheticRegistry(id)
	w := newWorker(t, fleetReg)

	journal := trace.NewJournal(0, 0)
	localReg, _ := syntheticRegistry(id)
	coord, err := New(Options{
		Workers: []string{w.URL},
		Local:   experiments.Options{Registry: localReg, Jobs: 1},
		Journal: journal,
	})
	if err != nil {
		t.Fatal(err)
	}
	frontReg, _ := syntheticRegistry(id)
	front := httptest.NewServer(server.New(server.Options{
		Registry: frontReg,
		Backend:  coord.RunParam,
		Journal:  journal,
	}))
	t.Cleanup(front.Close)

	resp, err := http.Get(front.URL + "/experiments/" + id + "?format=json")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	reqID := resp.Header.Get(trace.Header)
	if reqID == "" {
		t.Fatal("front door echoed no trace ID")
	}
	tr, ok := journal.Get(reqID)
	if !ok {
		t.Fatalf("shared journal has no trace %s", reqID)
	}
	kinds := kindSet(tr)
	// One span holds both layers: the serving layer's request/done and
	// the coordinator's selection/fetch.
	for _, want := range []string{trace.KindRequest, trace.KindWorkerSelected, trace.KindFetch, trace.KindDone} {
		if !kinds[want] {
			t.Errorf("no %s event in the shared span: %+v", want, tr.Events)
		}
	}
}
