package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/server"
	"repro/internal/trace"
)

// traceLine matches the grep-friendly per-request line -trace prints
// (the same pattern CI keys on to harvest an ID for `figures trace`).
var traceLine = regexp.MustCompile(`(?m)^figures: trace ([0-9a-f]{16}) (run \S+)$`)

// TestTraceFlagShardedRun is the CLI acceptance gate for -trace: a
// sharded run journals one span per experiment, prints its ID in
// grep-friendly form, and renders a timeline whose events carry the
// coordinator's selection and fetch decisions.
func TestTraceFlagShardedRun(t *testing.T) {
	hookRegistry(t, experiments.Registry())
	w1, w2 := shardWorker(t), shardWorker(t)
	fleet := strings.TrimPrefix(w1.URL, "http://") + "," + strings.TrimPrefix(w2.URL, "http://")

	var out, errOut bytes.Buffer
	if err := run([]string{"-run", "E1,E8", "-jobs", "1", "-workers", fleet, "-trace"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	matches := traceLine.FindAllStringSubmatch(errOut.String(), -1)
	if len(matches) != 2 {
		t.Fatalf("stderr holds %d trace lines, want 2:\n%s", len(matches), errOut.String())
	}
	whats := make(map[string]bool)
	for _, m := range matches {
		whats[m[2]] = true
	}
	if !whats["run E1"] || !whats["run E8"] {
		t.Fatalf("trace lines name %v, want run E1 and run E8", whats)
	}
	for _, kind := range []string{trace.KindWorkerSelected, trace.KindFetch} {
		if !strings.Contains(errOut.String(), kind) {
			t.Errorf("timeline has no %s event:\n%s", kind, errOut.String())
		}
	}
}

// TestTraceFlagRequiresWorkers: -trace on a purely local run is a
// configuration error, not a silent no-op.
func TestTraceFlagRequiresWorkers(t *testing.T) {
	err := run([]string{"-run", "E1", "-trace"}, &bytes.Buffer{}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "-workers") {
		t.Fatalf("err = %v, want the -workers requirement", err)
	}
}

// TestTraceSubcommand drives the full after-the-fact path: a request
// leaves a span in a worker's journal, and `figures trace` fetches it
// by ID and renders the timeline with the range summary block.
func TestTraceSubcommand(t *testing.T) {
	// A nil Registry means the real one, whose E2 entry shards — the
	// ?prefixes= path needs E2 to be shardable on the worker.
	ts := httptest.NewServer(server.New(server.Options{
		Journal: trace.NewJournal(0, 0),
	}))
	t.Cleanup(ts.Close)

	roots, err := experiments.Shardables()["E2"].Roots()
	if err != nil {
		t.Fatal(err)
	}
	prefix := experiments.FormatPrefixes(roots[:1])
	resp, err := http.Get(ts.URL + "/experiments/E2?prefixes=" + url.QueryEscape(prefix) + "&format=json")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get(trace.Header)
	if id == "" {
		t.Fatal("server echoed no trace ID")
	}

	var out, errOut bytes.Buffer
	addr := strings.TrimPrefix(ts.URL, "http://")
	if err := run([]string{"trace", "-addr", addr, id}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "trace "+id) {
		t.Fatalf("no trace header line:\n%s", text)
	}
	for _, want := range []string{trace.KindRequest, trace.KindExplore, trace.KindDone, "ranges:"} {
		if !strings.Contains(text, want) {
			t.Errorf("rendered timeline missing %q:\n%s", want, text)
		}
	}
	// The per-range block annotates worker, cache outcome, and retry
	// count — the acceptance criteria for the rendered view.
	rangeLine := regexp.MustCompile(`(?m)^  \S+\s+\[[.#]+\]\s+\S+ms\s+worker=\S+ cache=\S+ retries=\d+$`)
	if !rangeLine.MatchString(text) {
		t.Errorf("no annotated range line:\n%s", text)
	}
}

// TestTraceSubcommandMissingEverywhere: an ID no listed journal holds
// (aged out or mistyped) is an error, with the per-target miss logged.
func TestTraceSubcommandMissingEverywhere(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Options{
		Journal: trace.NewJournal(0, 0),
	}))
	t.Cleanup(ts.Close)

	var errOut bytes.Buffer
	addr := strings.TrimPrefix(ts.URL, "http://")
	err := run([]string{"trace", "-addr", addr, "ffffffffffffffff"}, &bytes.Buffer{}, &errOut)
	if err == nil || !strings.Contains(err.Error(), "not found on any target") {
		t.Fatalf("err = %v, want not-found", err)
	}
	if !strings.Contains(errOut.String(), "status 404") {
		t.Errorf("stderr = %q, want the per-target 404", errOut.String())
	}
}

// TestTraceSubcommandRejects: configuration mistakes fail fast.
func TestTraceSubcommandRejects(t *testing.T) {
	for _, args := range [][]string{
		{"trace"},                         // no -addr
		{"trace", "-addr", "x"},           // no id
		{"trace", "-addr", "x", "a", "b"}, // two ids
	} {
		if err := run(args, &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}

// TestDurationBar: the bar scales offset and duration into a fixed
// width without ever over- or under-flowing it.
func TestDurationBar(t *testing.T) {
	for _, tc := range []struct {
		offset, dur, total time.Duration
	}{
		{0, 0, 0},
		{0, time.Second, time.Second},
		{time.Second, 0, time.Second},
		{900 * time.Millisecond, 500 * time.Millisecond, time.Second},
	} {
		bar := durationBar(tc.offset, tc.dur, tc.total)
		if len([]rune(bar)) != barWidth+2 {
			t.Errorf("durationBar(%v,%v,%v) = %q, want width %d", tc.offset, tc.dur, tc.total, bar, barWidth+2)
		}
		if !strings.Contains(bar, "#") {
			t.Errorf("durationBar(%v,%v,%v) = %q, want at least one filled cell", tc.offset, tc.dur, tc.total, bar)
		}
	}
}
