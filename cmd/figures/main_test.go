package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sched"
	"repro/internal/server"
)

// hookRegistry installs a registry override that counts every whole
// run, restoring the real registry when the test ends.
func hookRegistry(t *testing.T, reg map[string]experiments.Experiment) *int {
	t.Helper()
	executions := new(int)
	counted := make(map[string]experiments.Experiment, len(reg))
	for id, e := range reg {
		run := e.Run
		e.Run = func(ps experiments.ParamSet) (*experiments.Table, sched.MemoStats, error) {
			*executions++ // engine may call concurrently; tests use -jobs 1
			return run(ps)
		}
		counted[id] = e
	}
	testRegistry = counted
	t.Cleanup(func() { testRegistry = nil })
	return executions
}

// TestWarmCacheRunIsByteIdentical is the acceptance gate for the cache
// layer: the second run with the same -cache-dir executes zero
// experiment runners, its stdout is byte-identical to the cold run,
// and the 100% hit rate is logged — for every output format.
func TestWarmCacheRunIsByteIdentical(t *testing.T) {
	const ids = "E1,E7,E8,E11"
	for _, format := range []string{"text", "json", "csv"} {
		t.Run(format, func(t *testing.T) {
			executions := hookRegistry(t, experiments.Registry())
			dir := t.TempDir()
			args := []string{"-run", ids, "-jobs", "1", "-format", format, "-cache-dir", dir}

			var cold, coldErr bytes.Buffer
			if err := run(args, &cold, &coldErr); err != nil {
				t.Fatal(err)
			}
			if *executions != 4 {
				t.Fatalf("cold run executed %d runners, want 4", *executions)
			}
			if !strings.Contains(coldErr.String(), "cache 0/4 hits") {
				t.Fatalf("cold run stderr = %q", coldErr.String())
			}

			var warm, warmErr bytes.Buffer
			if err := run(args, &warm, &warmErr); err != nil {
				t.Fatal(err)
			}
			if *executions != 4 {
				t.Fatalf("warm run executed %d more runners, want 0", *executions-4)
			}
			if !bytes.Equal(cold.Bytes(), warm.Bytes()) {
				t.Errorf("warm stdout differs from cold stdout")
			}
			if !strings.Contains(warmErr.String(), "cache 4/4 hits (100.0%)") {
				t.Errorf("warm run stderr = %q, want a 100.0%% hit-rate line", warmErr.String())
			}
		})
	}
}

// TestNoCacheFlag: -no-cache makes -cache-dir inert — everything
// re-executes and no hit-rate line is logged.
func TestNoCacheFlag(t *testing.T) {
	executions := hookRegistry(t, experiments.Registry())
	dir := t.TempDir()
	args := []string{"-run", "E1", "-jobs", "1", "-cache-dir", dir, "-no-cache"}
	for i := 1; i <= 2; i++ {
		var out, errOut bytes.Buffer
		if err := run(args, &out, &errOut); err != nil {
			t.Fatal(err)
		}
		if *executions != i {
			t.Fatalf("run %d: %d executions", i, *executions)
		}
		if strings.Contains(errOut.String(), "cache") {
			t.Fatalf("run %d logged cache stats with -no-cache: %q", i, errOut.String())
		}
	}
}

// TestOutputFileFlag: -o routes the encoded output to a file and
// leaves stdout empty.
func TestOutputFileFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "figures.json")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-run", "E1", "-format", "json", "-o", path}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if stdout.Len() != 0 {
		t.Fatalf("stdout not empty with -o: %q", stdout.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var results []struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &results); err != nil {
		t.Fatalf("-o file is not the JSON output: %v", err)
	}
	if len(results) != 1 || results[0].ID != "E1" {
		t.Fatalf("-o file holds %+v", results)
	}
}

// TestBadRunIDPreservesOutputFile: a rejected -run id must not
// truncate an existing -o file.
func TestBadRunIDPreservesOutputFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "figures.json")
	const precious = "previous run's tables"
	if err := os.WriteFile(path, []byte(precious), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-run", "E99", "-o", path}, &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown id accepted")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != precious {
		t.Fatalf("-o file clobbered by a rejected invocation: %q", raw)
	}
}

// TestOutputFileUnwritable: a bad -o path fails before any
// experiment runs, not after the sweep.
func TestOutputFileUnwritable(t *testing.T) {
	executions := hookRegistry(t, experiments.Registry())
	err := run([]string{"-run", "E1", "-o", filepath.Join(t.TempDir(), "no", "such", "dir", "x")},
		&bytes.Buffer{}, &bytes.Buffer{})
	if err == nil {
		t.Fatal("unwritable -o path accepted")
	}
	if *executions != 0 {
		t.Fatalf("experiments ran %d times before the -o failure", *executions)
	}
}

// TestFailedExperimentExitsNonZero: a FAILED row must fail the
// process (run returns an error) while the output still encodes it.
func TestFailedExperimentExitsNonZero(t *testing.T) {
	hookRegistry(t, map[string]experiments.Experiment{
		"E1": experiments.Fixed("E1", func() (*experiments.Table, error) { return nil, errors.New("synthetic failure") }),
		"E2": experiments.Fixed("E2", func() (*experiments.Table, error) {
			return &experiments.Table{ID: "E2", Headers: []string{"h"}, Rows: [][]string{{"v"}}}, nil
		}),
	})
	var out bytes.Buffer
	err := run([]string{"-run", "E1,E2", "-jobs", "1"}, &out, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "E1") {
		t.Fatalf("run returned %v, want the E1 failure", err)
	}
	if !strings.Contains(out.String(), "FAILED") || !strings.Contains(out.String(), "E2") {
		t.Fatalf("output incomplete despite failure:\n%s", out.String())
	}
}

// TestFailedExperimentNotCached: the failure is re-run (and still
// fatal) on the second invocation with the same cache directory.
func TestFailedExperimentNotCached(t *testing.T) {
	executions := hookRegistry(t, map[string]experiments.Experiment{
		"E1": experiments.Fixed("E1", func() (*experiments.Table, error) { return nil, errors.New("synthetic failure") }),
	})
	dir := t.TempDir()
	for i := 1; i <= 2; i++ {
		if err := run([]string{"-run", "E1", "-cache-dir", dir}, &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
			t.Fatalf("run %d: failure not surfaced", i)
		}
		if *executions != i {
			t.Fatalf("run %d: %d executions, want %d (failures must not be cached)", i, *executions, i)
		}
	}
}

func TestRunSubsetRequestOrder(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-run", "E8, E1", "-jobs", "2", "-format", "json"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	var results []struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(out.Bytes(), &results); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(results) != 2 || results[0].ID != "E8" || results[1].ID != "E1" {
		t.Fatalf("results = %+v, want E8 then E1 (request order)", results)
	}
	for _, r := range results {
		if r.Error != "" {
			t.Fatalf("%s failed: %s", r.ID, r.Error)
		}
	}
}

func TestRunConcurrentOutputIdentical(t *testing.T) {
	ids := "E1,E7,E8,E11"
	var serial, concurrent bytes.Buffer
	if err := run([]string{"-run", ids, "-jobs", "1"}, &serial, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-run", ids, "-jobs", "4", "-v"}, &concurrent, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.Bytes(), concurrent.Bytes()) {
		t.Error("-jobs 4 output differs from -jobs 1")
	}
}

func TestRunList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 15 || lines[0] != "E1" || lines[14] != "E15" {
		t.Fatalf("-list = %v", lines)
	}
}

func TestRunBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-format", "yaml"},
		{"-run", "E99"},
		{"-run", " , "}, // only empty entries must not mean "run everything"
		{"-reduce"},     // the memo is the only explorer; there is no mode to pick
	} {
		if err := run(args, &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// shardWorker stands up one in-process figuresd worker over a fresh
// copy of the real registry (separate from the CLI's hooked registry,
// so local and remote executions are counted apart).
func shardWorker(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(server.New(server.Options{Registry: experiments.Registry()}))
	t.Cleanup(ts.Close)
	return ts
}

// killAfter passes experiment requests through to the wrapped handler
// a limited number of times, then severs every later connection — a
// worker killed mid-batch, as the coordinator's client sees it.
type killAfter struct {
	served atomic.Int64
	limit  int64
	h      http.Handler
}

func (k *killAfter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/experiments/") && k.served.Add(1) > k.limit {
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
			}
		}
		return
	}
	k.h.ServeHTTP(w, r)
}

// TestWorkersShardedByteIdentical is the CLI acceptance gate for the
// shard layer: -workers against a two-worker fleet emits bytes
// identical to the local run, executes nothing locally, and reports
// the fleet summary on stderr.
func TestWorkersShardedByteIdentical(t *testing.T) {
	const ids = "E1,E7,E8,E11"
	localExecs := hookRegistry(t, experiments.Registry())
	w1, w2 := shardWorker(t), shardWorker(t)
	fleet := strings.TrimPrefix(w1.URL, "http://") + "," + strings.TrimPrefix(w2.URL, "http://")

	var local bytes.Buffer
	if err := run([]string{"-run", ids, "-jobs", "1"}, &local, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if *localExecs != 4 {
		t.Fatalf("baseline executed %d runners, want 4", *localExecs)
	}

	var sharded, shardedErr bytes.Buffer
	if err := run([]string{"-run", ids, "-jobs", "1", "-workers", fleet}, &sharded, &shardedErr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(local.Bytes(), sharded.Bytes()) {
		t.Errorf("-workers output differs from local run:\n%s\nvs\n%s", sharded.String(), local.String())
	}
	if *localExecs != 4 {
		t.Errorf("sharded run executed %d runners locally, want 0", *localExecs-4)
	}
	if !strings.Contains(shardedErr.String(), "figures: shard 2/2 workers healthy, 4 remote, 0 local") {
		t.Errorf("stderr = %q, want the fleet summary line", shardedErr.String())
	}
}

// TestWorkersOneKilledMidBatch: with one worker severing connections
// after its first experiment, the batch fails over to the survivor
// and the merged output is still byte-identical to the local run.
func TestWorkersOneKilledMidBatch(t *testing.T) {
	const ids = "E1,E7,E8,E11"
	localExecs := hookRegistry(t, experiments.Registry())

	doomed := httptest.NewServer(&killAfter{
		limit: 1,
		h:     server.New(server.Options{Registry: experiments.Registry()}),
	})
	t.Cleanup(doomed.Close)
	survivor := shardWorker(t)
	fleet := strings.TrimPrefix(doomed.URL, "http://") + "," + strings.TrimPrefix(survivor.URL, "http://")

	var local bytes.Buffer
	if err := run([]string{"-run", ids, "-jobs", "1"}, &local, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	var sharded, shardedErr bytes.Buffer
	if err := run([]string{"-run", ids, "-jobs", "1", "-workers", fleet}, &sharded, &shardedErr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(local.Bytes(), sharded.Bytes()) {
		t.Errorf("output differs with a worker killed mid-batch:\n%s\nvs\n%s", sharded.String(), local.String())
	}
	if *localExecs != 4 {
		t.Errorf("sharded run executed %d runners locally, want 0 (survivor must absorb)", *localExecs-4)
	}
	if !strings.Contains(shardedErr.String(), "4 remote, 0 local") {
		t.Errorf("stderr = %q, want every experiment served remotely", shardedErr.String())
	}
}

// TestWorkersDeadFleetFallsBack: with no worker reachable, -workers
// degrades to local execution with identical output and a summary
// line saying so.
func TestWorkersDeadFleetFallsBack(t *testing.T) {
	const ids = "E1,E8"
	localExecs := hookRegistry(t, experiments.Registry())
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := l.Addr().String()
	l.Close()

	var local bytes.Buffer
	if err := run([]string{"-run", ids, "-jobs", "1"}, &local, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	var sharded, shardedErr bytes.Buffer
	if err := run([]string{"-run", ids, "-jobs", "1", "-workers", dead}, &sharded, &shardedErr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(local.Bytes(), sharded.Bytes()) {
		t.Errorf("dead-fleet output differs from local run")
	}
	if *localExecs != 4 {
		t.Errorf("executions = %d, want 4 (2 baseline + 2 fallback)", *localExecs)
	}
	if !strings.Contains(shardedErr.String(), "figures: shard 0/1 workers healthy, 0 remote, 2 local") {
		t.Errorf("stderr = %q, want the all-local summary", shardedErr.String())
	}
}

// TestVerboseExplorationCounters pins the -v counter lines: a cold run
// prints one "figures: explore" line per result that explored, with
// the serial memo's counters for E2 whatever -jobs says, and none for
// an experiment outside the memo; a warm rerun explores nothing and
// prints none, while the "figures: total" and "figures: cache" lines
// keep their form.
func TestVerboseExplorationCounters(t *testing.T) {
	dir := t.TempDir()
	var cold, coldErr bytes.Buffer
	if err := run([]string{"-run", "E1,E2", "-jobs", "2", "-v", "-cache-dir", dir}, &cold, &coldErr); err != nil {
		t.Fatal(err)
	}
	lines := regexp.MustCompile(`(?m)^figures: explore .*$`).FindAllString(coldErr.String(), -1)
	want := "figures: explore E2 visited=242 pruned=126 replays=146 executions=22080"
	if len(lines) != 1 || lines[0] != want {
		t.Errorf("cold counter lines = %q, want [%q]", lines, want)
	}
	for _, re := range []string{`(?m)^figures: total\s+[0-9.]+s$`, `(?m)^figures: cache 0/2 hits \(0\.0%\)$`} {
		if !regexp.MustCompile(re).MatchString(coldErr.String()) {
			t.Errorf("cold stderr lacks %s:\n%s", re, coldErr.String())
		}
	}
	var warm, warmErr bytes.Buffer
	if err := run([]string{"-run", "E1,E2", "-v", "-cache-dir", dir}, &warm, &warmErr); err != nil {
		t.Fatal(err)
	}
	if warm.String() != cold.String() {
		t.Error("warm output diverges from cold")
	}
	if strings.Contains(warmErr.String(), "figures: explore") {
		t.Errorf("warm run printed counters:\n%s", warmErr.String())
	}
}
