package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/experiments"
)

// countingRegistry wraps a single synthetic experiment and counts how
// many times its runner actually executes.
func countingRegistry(id string, delay time.Duration, executions *atomic.Int64) map[string]experiments.Experiment {
	return map[string]experiments.Experiment{
		id: experiments.Fixed(id, func() (*experiments.Table, error) {
			executions.Add(1)
			time.Sleep(delay)
			return &experiments.Table{
				ID:      id,
				Title:   "synthetic",
				Headers: []string{"h"},
				Rows:    [][]string{{"v"}},
			}, nil
		}),
	}
}

// fixedRegistry builds a registry override of zero-parameter
// experiments, one per runner.
func fixedRegistry(runners map[string]func() (*experiments.Table, error)) map[string]experiments.Experiment {
	reg := make(map[string]experiments.Experiment, len(runners))
	for id, run := range runners {
		reg[id] = experiments.Fixed(id, run)
	}
	return reg
}

func get(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
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

// TestSingleflightColdExperiment is the server's core guarantee: k
// concurrent requests for one cold experiment trigger exactly one
// execution, every response is identical, and /healthz stays 200
// while the experiment is in flight.
func TestSingleflightColdExperiment(t *testing.T) {
	var executions atomic.Int64
	// The runner holds the flight long enough for every request below
	// to join it even on a loaded CI machine.
	ts := httptest.NewServer(New(Options{
		Registry: countingRegistry("E1", 500*time.Millisecond, &executions),
	}))
	defer ts.Close()

	const k = 16
	bodies := make([]string, k)
	statuses := make([]int, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], bodies[i] = get(t, ts, "/experiments/E1?format=json")
		}(i)
	}
	// Probe liveness while the cold experiment holds the flight.
	time.Sleep(50 * time.Millisecond)
	if status, body := get(t, ts, "/healthz"); status != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/healthz during load = %d %q", status, body)
	}
	wg.Wait()

	if n := executions.Load(); n != 1 {
		t.Fatalf("cold experiment executed %d times, want 1 (singleflight)", n)
	}
	for i := 0; i < k; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, statuses[i])
		}
		if bodies[i] != bodies[0] {
			t.Fatalf("request %d body differs from request 0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	if !strings.Contains(bodies[0], "synthetic") {
		t.Fatalf("body = %q", bodies[0])
	}
}

// TestCacheBackedServing: with a cache, the second server instance
// (fresh singleflight, same directory) serves without executing.
func TestCacheBackedServing(t *testing.T) {
	store, err := cache.Open(t.TempDir(), cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var executions atomic.Int64
	reg := countingRegistry("E1", 0, &executions)

	first := httptest.NewServer(New(Options{Registry: reg, Cache: store}))
	if status, _ := get(t, first, "/experiments/E1"); status != http.StatusOK {
		t.Fatalf("cold status = %d", status)
	}
	_, coldBody := get(t, first, "/experiments/E1?format=json")
	first.Close()

	second := httptest.NewServer(New(Options{Registry: reg, Cache: store}))
	defer second.Close()
	status, warmBody := get(t, second, "/experiments/E1?format=json")
	if status != http.StatusOK {
		t.Fatalf("warm status = %d", status)
	}
	if warmBody != coldBody {
		t.Fatalf("warm body differs:\n%s\nvs\n%s", warmBody, coldBody)
	}
	if n := executions.Load(); n != 1 {
		t.Fatalf("executions = %d, want 1 (second server cache-backed)", n)
	}
	if st := store.Stats(); st.Hits == 0 {
		t.Fatalf("cache stats = %+v, want a hit", st)
	}
}

func TestIndexEndpoint(t *testing.T) {
	ts := httptest.NewServer(New(Options{}))
	defer ts.Close()
	status, body := get(t, ts, "/experiments")
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	for _, want := range []string{experiments.RegistryVersion, `"E1"`, `"E15"`} {
		if !strings.Contains(body, want) {
			t.Errorf("index missing %q:\n%s", want, body)
		}
	}
	// The index lists ids in the numeric order figures -list and
	// shard.Run use, not lexicographically (E1, E10, ..., E2).
	var idx struct {
		Experiments []string `json:"experiments"`
	}
	if err := json.Unmarshal([]byte(body), &idx); err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 1; i <= 15; i++ {
		want = append(want, fmt.Sprintf("E%d", i))
	}
	if !reflect.DeepEqual(idx.Experiments, want) {
		t.Errorf("index order = %v, want %v", idx.Experiments, want)
	}
}

func TestNotFoundAndBadRequest(t *testing.T) {
	var executions atomic.Int64
	ts := httptest.NewServer(New(Options{
		Registry: countingRegistry("E1", 0, &executions),
	}))
	defer ts.Close()
	if status, _ := get(t, ts, "/experiments/E99"); status != http.StatusNotFound {
		t.Errorf("unknown id status = %d", status)
	}
	if status, _ := get(t, ts, "/experiments/E1?format=yaml"); status != http.StatusBadRequest {
		t.Errorf("bad format status = %d", status)
	}
	if n := executions.Load(); n != 0 {
		t.Errorf("invalid requests executed %d experiments", n)
	}
}

// TestFailedExperimentIs500: an experiment failure surfaces as a 500
// whose body still carries the encoded error form.
func TestFailedExperimentIs500(t *testing.T) {
	reg := fixedRegistry(map[string]func() (*experiments.Table, error){
		"E1": func() (*experiments.Table, error) { return nil, errors.New("reactor meltdown") },
	})
	ts := httptest.NewServer(New(Options{Registry: reg}))
	defer ts.Close()
	for _, format := range []string{"text", "json", "csv"} {
		status, body := get(t, ts, "/experiments/E1?format="+format)
		if status != http.StatusInternalServerError {
			t.Errorf("%s: status = %d", format, status)
		}
		if !strings.Contains(body, "reactor meltdown") {
			t.Errorf("%s: error lost: %q", format, body)
		}
	}
}

// TestExecutionTimeout: a runner slower than the server's timeout
// yields a 500, not a hung request — and retries inside the cooldown
// window are served the recorded failure instead of stacking another
// abandoned runner goroutine.
func TestExecutionTimeout(t *testing.T) {
	var executions atomic.Int64
	ts := httptest.NewServer(New(Options{
		Registry: countingRegistry("E1", 10*time.Second, &executions),
		Timeout:  300 * time.Millisecond,
	}))
	defer ts.Close()
	done := make(chan struct{})
	var status int
	var body string
	go func() {
		status, body = get(t, ts, "/experiments/E1")
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("request hung past the execution timeout")
	}
	if status != http.StatusInternalServerError || !strings.Contains(body, "timed out") {
		t.Fatalf("got %d %q, want 500 with timeout error", status, body)
	}
	// Immediate retries must not re-execute: the first abandoned
	// runner is still burning its core.
	for i := 0; i < 3; i++ {
		status, body := get(t, ts, "/experiments/E1")
		if status != http.StatusInternalServerError || !strings.Contains(body, "timed out") {
			t.Fatalf("retry %d: got %d %q", i, status, body)
		}
	}
	if n := executions.Load(); n != 1 {
		t.Fatalf("retries during cooldown executed %d runners, want 1 total", n)
	}
}

// TestCooldownExpires: after the window passes, the experiment is
// eligible to execute again.
func TestCooldownExpires(t *testing.T) {
	var executions atomic.Int64
	ts := httptest.NewServer(New(Options{
		Registry: countingRegistry("E1", 10*time.Second, &executions),
		Timeout:  50 * time.Millisecond,
	}))
	defer ts.Close()
	get(t, ts, "/experiments/E1")
	time.Sleep(120 * time.Millisecond) // past the 50ms window
	get(t, ts, "/experiments/E1")
	if n := executions.Load(); n != 2 {
		t.Fatalf("executions = %d, want 2 (cooldown must expire)", n)
	}
}

func TestContentTypes(t *testing.T) {
	var executions atomic.Int64
	ts := httptest.NewServer(New(Options{
		Registry: countingRegistry("E1", 0, &executions),
	}))
	defer ts.Close()
	// Range over the encoder registry, not contentTypes, so a format
	// added to experiments.Encoders without a media type fails here
	// instead of shipping with a sniffed Content-Type.
	for format := range experiments.Encoders {
		want := contentTypes[format]
		if want == "" {
			t.Errorf("format %q has no content type", format)
			continue
		}
		resp, err := ts.Client().Get(ts.URL + "/experiments/E1?format=" + format)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got := resp.Header.Get("Content-Type"); got != want {
			t.Errorf("%s: Content-Type = %q, want %q", format, got, want)
		}
	}
}

// TestResponsesCarrySpaceVersion: every whole, parameter-point and
// slice response of experiment id carries experiments.SpaceVersion(id)
// in RegistryVersionHeader, the generation a shard coordinator checks
// every answer against; a default build sends RegistryVersion.
func TestResponsesCarrySpaceVersion(t *testing.T) {
	ts := httptest.NewServer(New(Options{}))
	defer ts.Close()
	for _, tc := range []struct{ id, query string }{
		{"E1", "format=json"},
		{"E2", "format=json"},
		{"E2", "k=3&format=json"},
		{"E2", "prefixes=-"},
		{"E15", "c=3&format=csv"},
	} {
		resp, err := ts.Client().Get(ts.URL + "/experiments/" + tc.id + "?" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s?%s: status %d", tc.id, tc.query, resp.StatusCode)
		}
		got, want := resp.Header.Get(RegistryVersionHeader), experiments.SpaceVersion(tc.id)
		if got != want || want != experiments.RegistryVersion {
			t.Errorf("%s?%s: %s = %q, want %q (the default build's %q)", tc.id, tc.query, RegistryVersionHeader, got, want, experiments.RegistryVersion)
		}
	}
}

// TestFlightGroupSharedResult pins the singleflight primitive itself.
func TestFlightGroupSharedResult(t *testing.T) {
	var g flightGroup
	var calls atomic.Int64
	release := make(chan struct{})
	const k = 8
	results := make([]any, k)
	shared := make([]bool, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _, shared[i] = g.Do("key", func() (any, error) {
				calls.Add(1)
				<-release
				return "value", nil
			})
		}(i)
	}
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("fn ran %d times", n)
	}
	leaders := 0
	for i := 0; i < k; i++ {
		if results[i] != "value" {
			t.Fatalf("result %d = %v", i, results[i])
		}
		if !shared[i] {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d leaders, want 1", leaders)
	}
	// After the flight lands, a new call runs fresh.
	if _, _, wasShared := g.Do("key", func() (any, error) { calls.Add(1); return "again", nil }); wasShared {
		t.Fatal("post-flight call marked shared")
	}
	if calls.Load() != 2 {
		t.Fatal("post-flight call did not run")
	}
}

// TestFlightGroupPanicDoesNotWedgeKey: a panicking fn surfaces as an
// error to the leader and every waiter, and the key stays usable.
func TestFlightGroupPanicDoesNotWedgeKey(t *testing.T) {
	var g flightGroup
	release := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i], _ = g.Do("key", func() (any, error) {
				<-release
				panic("runner exploded")
			})
		}(i)
	}
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "runner exploded") {
			t.Fatalf("caller %d got %v, want the panic as an error", i, err)
		}
	}
	// The key must not be wedged: a fresh call runs and succeeds.
	val, err, _ := g.Do("key", func() (any, error) { return "recovered", nil })
	if err != nil || val != "recovered" {
		t.Fatalf("post-panic call = %v, %v", val, err)
	}
}

// TestFlightGroupErrorPropagates: every waiter sees the leader's error.
func TestFlightGroupErrorPropagates(t *testing.T) {
	var g flightGroup
	wantErr := fmt.Errorf("leader failed")
	release := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i], _ = g.Do("key", func() (any, error) {
				<-release
				return nil, wantErr
			})
		}(i)
	}
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, wantErr) {
			t.Fatalf("waiter %d got %v", i, err)
		}
	}
}
