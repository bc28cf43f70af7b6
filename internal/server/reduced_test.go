package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/experiments"
)

// TestReducedServerBytesAndStats pins the serving-layer half of the
// memoized production explorer: a default server serves E2 with the
// bytes the local engine encodes in every format, and its /stats
// exploration section counts each run that explored — the whole E2
// and a parameter point — once, with their counters; cache hits and
// experiments outside the memo add nothing.
func TestReducedServerBytesAndStats(t *testing.T) {
	store, err := cache.Open(t.TempDir(), cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(Options{Cache: store}))
	defer ts.Close()

	local, err := experiments.Run(context.Background(), experiments.Options{IDs: []string{"E2"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"text", "json", "csv"} {
		encode, err := experiments.LookupEncoder(format)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := encode(&want, local); err != nil {
			t.Fatal(err)
		}
		path := "/experiments/E2?format=" + format
		if status, body := get(t, ts, path); status != http.StatusOK || body != want.String() {
			t.Errorf("%s = %d, body diverges from the local engine:\n--- local ---\n%s--- served ---\n%s",
				path, status, want.String(), body)
		}
	}
	fam := experiments.Registry()["E2"]
	ps, err := experiments.ParseParamList(fam, "k=2")
	if err != nil {
		t.Fatal(err)
	}
	point := experiments.RunParam(context.Background(), fam, ps, experiments.Options{})
	for _, path := range []string{"/experiments/E2?k=2", "/experiments/E1"} {
		if status, body := get(t, ts, path); status != http.StatusOK {
			t.Fatalf("%s = %d %q", path, status, body)
		}
	}

	var stats StatsResponse
	_, body := get(t, ts, "/stats")
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatal(err)
	}
	ex := stats.Exploration
	if ex == nil {
		t.Fatal("no exploration section after serving E2")
	}
	whole := local[0].Memo
	want := StatsExploration{
		Runs:          2,
		Executions:    int64(whole.Executions + point.Memo.Executions),
		Replays:       int64(whole.Replays + point.Memo.Replays),
		StatesVisited: int64(whole.StatesVisited + point.Memo.StatesVisited),
		StatesPruned:  int64(whole.StatesPruned + point.Memo.StatesPruned),
	}
	if *ex != want {
		t.Errorf("exploration = %+v, want %+v (E2 once, k=2 once, no cache hit or E1)", *ex, want)
	}
	if ex.Replays >= ex.Executions || ex.StatesPruned == 0 {
		t.Errorf("counters %+v show no pruning", *ex)
	}
}

// TestRealRegistryDeadPrefix: on the real E2 and E15 spaces, a
// syntactically valid prefix the scheduler cannot follow — a pid no
// process has, or more steps of process 0 than it takes — is found by
// the memoized slice explorer and answered 400, at the fixed point and
// at a parameter point.
func TestRealRegistryDeadPrefix(t *testing.T) {
	ts := httptest.NewServer(New(Options{}))
	defer ts.Close()
	long := strings.TrimSuffix(strings.Repeat("0.", 40), ".")
	for _, path := range []string{
		"/experiments/E2?prefixes=7",
		"/experiments/E2?prefixes=" + long,
		"/experiments/E2?k=2&prefixes=1,7",
		"/experiments/E15?prefixes=7",
		"/experiments/E15?prefixes=" + long,
		"/experiments/E15?c=3&prefixes=0,7",
	} {
		status, body := get(t, ts, path)
		if status != http.StatusBadRequest || !strings.Contains(body, "not a live path") {
			t.Errorf("GET %s = %d %q, want 400 naming the dead prefix", path, status, body)
		}
	}
}
