package experiments

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sched"
)

// engineTestIDs returns a sweep that is cheap under -short and complete
// otherwise.
func engineTestIDs(t *testing.T) []string {
	t.Helper()
	if testing.Short() {
		return []string{"E1", "E7", "E8", "E11", "E12"}
	}
	return IDs()
}

// TestEngineConcurrentMatchesSerial is the core engine guarantee: a
// concurrent run emits byte-identical output to a serial run, in every
// format, regardless of completion order.
func TestEngineConcurrentMatchesSerial(t *testing.T) {
	ids := engineTestIDs(t)
	serial, err := Run(context.Background(), Options{IDs: ids, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := FirstError(serial); err != nil {
		t.Fatal(err)
	}
	concurrent, err := Run(context.Background(), Options{IDs: ids, Jobs: 8})
	if err != nil {
		t.Fatal(err)
	}
	for name, encode := range Encoders {
		var a, b bytes.Buffer
		if err := encode(&a, serial); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := encode(&b, concurrent); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: concurrent output differs from serial", name)
		}
	}
}

// TestEngineMatchesDirectRunners anchors the engine's text output to the
// pre-engine behavior: invoking each registered runner directly and
// formatting its table produces the same bytes.
func TestEngineMatchesDirectRunners(t *testing.T) {
	ids := engineTestIDs(t)
	var want strings.Builder
	reg := Registry()
	for _, id := range ids {
		tab, err := runDefault(reg[id])
		if err != nil {
			t.Fatal(err)
		}
		want.WriteString(tab.Format())
		want.WriteString("\n")
	}
	results, err := Run(context.Background(), Options{IDs: ids, Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := EncodeText(&got, results); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Error("engine text output differs from direct runner output")
	}
}

func TestEngineTimeout(t *testing.T) {
	reg := fixedRegistry(map[string]func() (*Table, error){
		"E1": func() (*Table, error) {
			time.Sleep(10 * time.Second)
			return &Table{ID: "E1"}, nil
		},
		"E2": func() (*Table, error) {
			return &Table{ID: "E2", Headers: []string{"h"}, Rows: [][]string{{"v"}}}, nil
		},
	})
	start := time.Now()
	results, err := Run(context.Background(), Options{Registry: reg, Jobs: 2, Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout not honored: run took %v", elapsed)
	}
	if results[0].ID != "E1" || results[0].Err == nil || !errors.Is(results[0].Err, context.DeadlineExceeded) {
		t.Fatalf("slow experiment: got %+v, want deadline error", results[0])
	}
	if results[0].Table != nil {
		t.Fatal("timed-out experiment still produced a table")
	}
	if results[1].Err != nil {
		t.Fatalf("fast experiment failed: %v", results[1].Err)
	}
}

// TestEnginePanicIsolation: a panicking runner becomes a failed Result,
// also when the panic is in a simulated process; the process and the
// sibling experiments are unaffected.
func TestEnginePanicIsolation(t *testing.T) {
	reg := fixedRegistry(map[string]func() (*Table, error){
		"E1": func() (*Table, error) { panic("boom") },
		"E2": func() (*Table, error) {
			return &Table{ID: "E2", Headers: []string{"h"}, Rows: [][]string{{"v"}}}, nil
		},
		"E3": func() (*Table, error) {
			_, err := sched.Run(sched.Config{Scheduler: sched.Lowest{}}, []sched.ProcFunc{
				func(p *sched.Proc) error { p.Step(); return nil },
				func(p *sched.Proc) error { p.Step(); panic("process boom") },
			})
			return nil, err
		},
	})
	results, err := Run(context.Background(), Options{Registry: reg, Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil || !results[0].Panicked {
		t.Fatalf("panicking runner: got %+v, want panicked failure", results[0])
	}
	if !strings.Contains(results[0].Err.Error(), "boom") {
		t.Fatalf("panic value lost: %v", results[0].Err)
	}
	if results[1].Err != nil || results[1].Panicked {
		t.Fatalf("sibling experiment affected: %+v", results[1])
	}
	if results[2].Err == nil || !results[2].Panicked ||
		!strings.Contains(results[2].Err.Error(), "process 1 panicked: process boom") {
		t.Fatalf("panicking process: got %+v, want panicked failure naming process 1", results[2])
	}
	if err := FirstError(results); err == nil || !strings.Contains(err.Error(), "E1") {
		t.Fatalf("FirstError = %v, want E1 failure", err)
	}
}

func TestEngineUnknownID(t *testing.T) {
	if _, err := Run(context.Background(), Options{IDs: []string{"E999"}}); err == nil {
		t.Fatal("unknown experiment id accepted")
	}
}

// TestEngineRequestOrderPreserved: results come back in request order
// even when completion order is reversed by experiment cost.
func TestEngineRequestOrderPreserved(t *testing.T) {
	reg := fixedRegistry(map[string]func() (*Table, error){
		"slow": func() (*Table, error) {
			time.Sleep(100 * time.Millisecond)
			return &Table{ID: "slow"}, nil
		},
		"fast": func() (*Table, error) { return &Table{ID: "fast"}, nil },
	})
	results, err := Run(context.Background(), Options{Registry: reg, IDs: []string{"slow", "fast"}, Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].ID != "slow" || results[1].ID != "fast" {
		t.Fatalf("order not preserved: %s, %s", results[0].ID, results[1].ID)
	}
	if results[0].Duration < results[1].Duration {
		t.Fatalf("durations implausible: slow %v < fast %v", results[0].Duration, results[1].Duration)
	}
}

// TestEngineCancelledContext: a cancelled context fails pending
// experiments with the context's error instead of hanging.
func TestEngineCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reg := fixedRegistry(map[string]func() (*Table, error){
		"E1": func() (*Table, error) {
			time.Sleep(10 * time.Second)
			return &Table{ID: "E1"}, nil
		},
	})
	start := time.Now()
	results, err := Run(ctx, Options{Registry: reg, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancelled run did not return promptly")
	}
	if !errors.Is(results[0].Err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", results[0].Err)
	}
}

func TestEngineRunnerErrorIsolated(t *testing.T) {
	reg := fixedRegistry(map[string]func() (*Table, error){
		"E1": func() (*Table, error) { return nil, errors.New("bad data") },
		"E2": func() (*Table, error) {
			return &Table{ID: "E2", Headers: []string{"h"}, Rows: [][]string{{"v"}}}, nil
		},
	})
	results, err := Run(context.Background(), Options{Registry: reg, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil || results[0].Panicked {
		t.Fatalf("runner error mishandled: %+v", results[0])
	}
	if results[1].Err != nil {
		t.Fatalf("sibling failed: %v", results[1].Err)
	}
}

// runDefault evaluates e directly at its default point, bypassing the
// engine.
func runDefault(e Experiment) (*Table, error) {
	ps, err := DefaultParams(e)
	if err != nil {
		return nil, err
	}
	tab, _, err := e.Run(ps)
	return tab, err
}

// fixedRegistry builds a registry override of zero-parameter
// experiments, one per runner.
func fixedRegistry(runners map[string]func() (*Table, error)) map[string]Experiment {
	reg := make(map[string]Experiment, len(runners))
	for id, run := range runners {
		reg[id] = Fixed(id, run)
	}
	return reg
}

// fakeCache is an in-memory experiments.Cache recording its whole-result
// traffic, keyed by pointKey; safe for the engine's concurrent jobs.
type fakeCache struct {
	mu      sync.Mutex
	entries map[string]Result
	puts    []string
	putErr  error
}

func newFakeCache() *fakeCache { return &fakeCache{entries: map[string]Result{}} }

// pointKey names one point's entry: the plain id at the default point.
func pointKey(id, params string) string {
	if params == "" {
		return id
	}
	return id + "?" + params
}

func (c *fakeCache) GetParam(id, params string) (Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.entries[pointKey(id, params)]
	return r, ok
}

func (c *fakeCache) PutParam(id, params string, r Result) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.puts = append(c.puts, pointKey(id, params))
	if c.putErr != nil {
		return c.putErr
	}
	c.entries[pointKey(id, params)] = r
	return nil
}

func (c *fakeCache) GetSlice(id, params, prefixes string) (ShardEnvelope, bool) {
	return ShardEnvelope{}, false
}

func (c *fakeCache) PutSlice(ShardEnvelope) error { return nil }

// TestEngineCacheHitSkipsRunner: a cached experiment's runner never
// executes, and the served result carries the Cached mark.
func TestEngineCacheHitSkipsRunner(t *testing.T) {
	runs := 0
	reg := fixedRegistry(map[string]func() (*Table, error){
		"E1": func() (*Table, error) {
			runs++
			return &Table{ID: "E1", Headers: []string{"h"}, Rows: [][]string{{"v"}}}, nil
		},
	})
	cache := newFakeCache()
	cache.entries["E1"] = Result{ID: "E1", Table: &Table{ID: "E1", Headers: []string{"h"}, Rows: [][]string{{"v"}}}}
	results, err := Run(context.Background(), Options{Registry: reg, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if runs != 0 {
		t.Fatalf("runner executed %d times on a warm cache", runs)
	}
	if !results[0].Cached || results[0].Err != nil || results[0].Table == nil {
		t.Fatalf("cached result mangled: %+v", results[0])
	}
	if len(cache.puts) != 0 {
		t.Fatalf("hit re-stored: puts = %v", cache.puts)
	}
}

// TestEngineCacheMissRunsAndStores: a cold cache runs the experiment
// once and stores the success; a second run is then served cold-free.
func TestEngineCacheMissRunsAndStores(t *testing.T) {
	runs := 0
	reg := fixedRegistry(map[string]func() (*Table, error){
		"E1": func() (*Table, error) {
			runs++
			return &Table{ID: "E1", Headers: []string{"h"}, Rows: [][]string{{"v"}}}, nil
		},
	})
	cache := newFakeCache()
	first, err := Run(context.Background(), Options{Registry: reg, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if runs != 1 || first[0].Cached {
		t.Fatalf("cold run: runs = %d, result = %+v", runs, first[0])
	}
	if len(cache.puts) != 1 || cache.puts[0] != "E1" {
		t.Fatalf("success not stored: puts = %v", cache.puts)
	}
	second, err := Run(context.Background(), Options{Registry: reg, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if runs != 1 || !second[0].Cached {
		t.Fatalf("warm run: runs = %d, result = %+v", runs, second[0])
	}
	var a, b bytes.Buffer
	if err := EncodeJSON(&a, first); err != nil {
		t.Fatal(err)
	}
	if err := EncodeJSON(&b, second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("warm run encodes differently from cold run")
	}
}

// TestEngineCacheNeverStoresFailures: failed results are recomputed,
// not cached.
func TestEngineCacheNeverStoresFailures(t *testing.T) {
	reg := fixedRegistry(map[string]func() (*Table, error){
		"E1": func() (*Table, error) { return nil, errors.New("flaky") },
		"E2": func() (*Table, error) { panic("boom") },
	})
	cache := newFakeCache()
	if _, err := Run(context.Background(), Options{Registry: reg, Cache: cache}); err != nil {
		t.Fatal(err)
	}
	if len(cache.puts) != 0 {
		t.Fatalf("failures stored: puts = %v", cache.puts)
	}
}

// TestEngineCachePutErrorIgnored: a cache that cannot persist is an
// optimisation that didn't happen, not a run failure.
func TestEngineCachePutErrorIgnored(t *testing.T) {
	reg := fixedRegistry(map[string]func() (*Table, error){
		"E1": func() (*Table, error) {
			return &Table{ID: "E1", Headers: []string{"h"}, Rows: [][]string{{"v"}}}, nil
		},
	})
	cache := newFakeCache()
	cache.putErr = errors.New("disk full")
	results, err := Run(context.Background(), Options{Registry: reg, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil {
		t.Fatalf("Put failure surfaced: %v", results[0].Err)
	}
}

// TestEngineCacheIgnoresUnusableHits: a hit carrying an error or no
// table (a misbehaving cache) must not be served — the runner runs.
func TestEngineCacheIgnoresUnusableHits(t *testing.T) {
	runs := 0
	reg := fixedRegistry(map[string]func() (*Table, error){
		"E1": func() (*Table, error) {
			runs++
			return &Table{ID: "E1", Headers: []string{"h"}, Rows: [][]string{{"v"}}}, nil
		},
	})
	cache := newFakeCache()
	cache.entries["E1"] = Result{ID: "E1", Err: errors.New("stored failure")}
	results, err := Run(context.Background(), Options{Registry: reg, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if runs != 1 || results[0].Err != nil || results[0].Cached {
		t.Fatalf("unusable hit served: runs = %d, result = %+v", runs, results[0])
	}
}

func TestSortIDsNumericSuffix(t *testing.T) {
	reg := fixedRegistry(map[string]func() (*Table, error){
		"E10": nil, "E2": nil, "E1": nil, "zeta": nil, "alpha": nil,
	})
	got := sortIDs(reg)
	want := []string{"E1", "E2", "E10", "alpha", "zeta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sortIDs = %v, want %v", got, want)
		}
	}
}

func TestEncodersFailedResult(t *testing.T) {
	results := []Result{
		{ID: "E1", Err: errors.New("exploded")},
		{ID: "E2", Table: &Table{ID: "E2", Title: "t", Headers: []string{"h"}, Rows: [][]string{{"v"}}, Notes: []string{"n"}}},
	}
	for name, encode := range Encoders {
		var buf bytes.Buffer
		if err := encode(&buf, results); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out := buf.String()
		for _, want := range []string{"E1", "exploded", "E2", "v"} {
			if !strings.Contains(out, want) {
				t.Errorf("%s output missing %q:\n%s", name, want, out)
			}
		}
	}
}
