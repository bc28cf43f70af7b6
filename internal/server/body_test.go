package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/experiments"
)

// listAgg is a synthetic slice aggregate as long as its experiment
// makes it.
type listAgg struct {
	Values []int `json:"values"`
}

func (a *listAgg) Merge(o experiments.Aggregate) error {
	b, ok := o.(*listAgg)
	if !ok {
		return fmt.Errorf("cannot merge %T", o)
	}
	a.Values = append(a.Values, b.Values...)
	return nil
}

// TestWarmHitAllocsIndependentOfTable: a warm hit writes the body the
// cache tier stored for its format instead of encoding the table, so
// it allocates the same for a 1-row and a 200-row table in every
// format, and serves the bytes the cold request did. A warm slice hit
// writes the body stored for its envelope instead of decoding and
// encoding the aggregate, so it allocates the same for a 1-value and
// a 200-value aggregate.
func TestWarmHitAllocsIndependentOfTable(t *testing.T) {
	table := func(id string, rows int) func() (*experiments.Table, error) {
		return func() (*experiments.Table, error) {
			// Every body, the 1-row text one included, is longer than a
			// bytes.Buffer's first 64-byte allocation, so the recorder
			// grows its buffer the same way for both tables.
			tab := &experiments.Table{ID: id, Title: "a synthetic table of integers and their squares",
				Headers: []string{"i", "square"}, Notes: []string{"synthetic"}}
			for i := 0; i < rows; i++ {
				tab.Rows = append(tab.Rows, []string{strconv.Itoa(i), strconv.Itoa(i * i)})
			}
			return tab, nil
		}
	}
	shardable := func(id string, values int) experiments.Experiment {
		return shardableExp(id, experiments.Shardable{
			Roots: func() ([][]int, error) { return [][]int{{0}, {1}}, nil },
			Explore: func(roots [][]int) (experiments.Aggregate, error) {
				a := &listAgg{}
				for i := 0; i < values; i++ {
					a.Values = append(a.Values, i*i)
				}
				return a, nil
			},
			Decode: func(data []byte) (experiments.Aggregate, error) {
				var a listAgg
				if err := json.Unmarshal(data, &a); err != nil {
					return nil, err
				}
				return &a, nil
			},
		})
	}
	store, err := cache.Open(t.TempDir(), cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := fixedRegistry(map[string]func() (*experiments.Table, error){
		"S1":   table("S1", 1),
		"S200": table("S200", 200),
	})
	reg["L1"], reg["L200"] = shardable("L1", 1), shardable("L200", 200)
	srv := New(Options{Registry: reg, Cache: store})
	allocs := func(path string) float64 {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		serve := func() *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			return rec
		}
		// However the first two requests of a point and format (or a
		// slice) find the store (a run and a Put, a read from disk, or a
		// memory hit), the second leaves the table and this format's
		// body (or the envelope and its body) in memory.
		first := serve()
		if first.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, first.Code, first.Body)
		}
		serve()
		// The fewest allocations over single requests: the race
		// detector drops a random quarter of sync.Pool puts, which can
		// tip a mean over many requests by one either way.
		n := math.Inf(1)
		for i := 0; i < 50; i++ {
			n = min(n, testing.AllocsPerRun(1, func() { serve() }))
		}
		if warm := serve(); warm.Body.String() != first.Body.String() {
			t.Errorf("GET %s: warm body differs from the first:\n%s\nvs\n%s", path, warm.Body, first.Body)
		}
		return n
	}
	for _, format := range []string{"text", "json", "csv"} {
		small, large := allocs("/experiments/S1?format="+format), allocs("/experiments/S200?format="+format)
		if small != large {
			t.Errorf("%s: a warm hit allocates %v times for a 1-row table, %v for a 200-row one", format, small, large)
		}
	}
	if small, large := allocs("/experiments/L1?prefixes=0"), allocs("/experiments/L200?prefixes=0"); small != large {
		t.Errorf("a warm slice hit allocates %v times for a 1-value aggregate, %v for a 200-value one", small, large)
	}
}

// TestRequestLogNamesPoint: a request's log line names its parameter
// point when it is not the default, on the whole-table line and the
// slice line alike, so two points of one experiment never log as the
// same request.
func TestRequestLogNamesPoint(t *testing.T) {
	var (
		mu    sync.Mutex
		lines []string
	)
	srv := New(Options{
		Registry: map[string]experiments.Experiment{"M1": mixedExp()},
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			lines = append(lines, fmt.Sprintf(format, args...))
		},
	})
	for _, tc := range []struct {
		path, want, reject string
	}{
		{"/experiments/M1?x=3&format=json", "GET /experiments/M1 params=x=3 format=json status=200", ""},
		{"/experiments/M1?x=1", "GET /experiments/M1 format=text status=200", "params="},
		{"/experiments/M1", "GET /experiments/M1 format=text status=200", "params="},
		{"/experiments/M1?prefixes=0&x=2", "GET /experiments/M1 params=x=2 prefixes=0 roots=1", ""},
		{"/experiments/M1?prefixes=1", "GET /experiments/M1 prefixes=1 roots=1", "params="},
	} {
		mu.Lock()
		lines = nil
		mu.Unlock()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, tc.path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", tc.path, rec.Code, rec.Body)
		}
		mu.Lock()
		got := strings.Join(lines, "\n")
		mu.Unlock()
		if !strings.Contains(got, tc.want) || (tc.reject != "" && strings.Contains(got, tc.reject)) {
			t.Errorf("GET %s logged %q, want %q", tc.path, got, tc.want)
		}
	}
}
