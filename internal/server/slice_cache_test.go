package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/experiments"
)

// newCachedPrefixServer stands up a server whose cache is a real
// artifact store, serving one synthetic shardable experiment with an
// exploration counter.
func newCachedPrefixServer(t *testing.T) (*httptest.Server, *cache.Store, *atomic.Int64) {
	t.Helper()
	ts, store, counts := newCountingPrefixServer(t)
	return ts, store, counts.explores
}

// prefixCounts counts the synthetic shardable's explorations and
// aggregate decodes.
type prefixCounts struct {
	explores, decodes *atomic.Int64
}

// newCountingPrefixServer is newCachedPrefixServer with a Decode
// counter beside the exploration counter.
func newCountingPrefixServer(t *testing.T) (*httptest.Server, *cache.Store, prefixCounts) {
	t.Helper()
	store, err := cache.Open(t.TempDir(), cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	explores, decodes := new(atomic.Int64), new(atomic.Int64)
	s1 := experiments.Shardable{
		Roots: func() ([][]int, error) { return [][]int{{0}, {1}}, nil },
		Explore: func(roots [][]int) (experiments.Aggregate, error) {
			explores.Add(1)
			a := &prefixAgg{}
			for _, r := range roots {
				a.Count++
				a.Sum += r[0]
			}
			return a, nil
		},
		Decode: func(data []byte) (experiments.Aggregate, error) {
			decodes.Add(1)
			var a prefixAgg
			if err := json.Unmarshal(data, &a); err != nil {
				return nil, err
			}
			if a.Count < 0 {
				return nil, fmt.Errorf("negative count")
			}
			return &a, nil
		},
	}
	reg := map[string]experiments.Experiment{"S1": shardableExp("S1", s1)}
	ts := httptest.NewServer(New(Options{Registry: reg, Cache: store}))
	t.Cleanup(ts.Close)
	return ts, store, prefixCounts{explores: explores, decodes: decodes}
}

// TestSliceServedFromStore: the worker-level half of the cache
// hierarchy — a repeated slice request is answered from the artifact
// store, byte-identically, without re-exploring.
func TestSliceServedFromStore(t *testing.T) {
	ts, store, explores := newCachedPrefixServer(t)
	status, cold := httpGet(t, ts.URL+"/experiments/S1?prefixes=0,1")
	if status != http.StatusOK {
		t.Fatalf("cold slice status %d: %s", status, cold)
	}
	if n := explores.Load(); n != 1 {
		t.Fatalf("cold slice ran %d explorations, want 1", n)
	}
	status, warm := httpGet(t, ts.URL+"/experiments/S1?prefixes=0,1")
	if status != http.StatusOK {
		t.Fatalf("warm slice status %d: %s", status, warm)
	}
	if n := explores.Load(); n != 1 {
		t.Fatalf("warm slice re-explored (%d total)", n)
	}
	if warm != cold {
		t.Fatalf("cached slice bytes differ:\n%s\nvs\n%s", warm, cold)
	}
	if st := store.Stats(); st.SliceMisses != 1 || st.SliceStores != 1 || st.SliceHits != 1 {
		t.Fatalf("store stats = %+v", st)
	}
	// A different slice of the same space is its own artifact.
	if status, _ := httpGet(t, ts.URL+"/experiments/S1?prefixes=1"); status != http.StatusOK {
		t.Fatal("disjoint slice failed")
	}
	if n := explores.Load(); n != 2 {
		t.Fatalf("disjoint slice served from the wrong entry (%d explorations)", n)
	}
}

// TestSliceStatsOnWire: the /stats cache section carries the slice
// counters the fleet summary and CI gates read.
func TestSliceStatsOnWire(t *testing.T) {
	ts, _, _ := newCachedPrefixServer(t)
	for i := 0; i < 2; i++ {
		if status, _ := httpGet(t, ts.URL+"/experiments/S1?prefixes=0,1"); status != http.StatusOK {
			t.Fatal("slice request failed")
		}
	}
	status, body := httpGet(t, ts.URL+"/stats")
	if status != http.StatusOK {
		t.Fatal("stats failed")
	}
	var st StatsResponse
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Cache == nil {
		t.Fatal("stats missing the cache section")
	}
	if st.Cache.SliceHits != 1 || st.Cache.SliceMisses != 1 || st.Cache.SliceStores != 1 {
		t.Fatalf("slice counters = %+v", st.Cache)
	}
}

// TestSliceStoreRejectedAggregateRecomputed: an entry whose bytes are
// intact (checksum passes) but whose aggregate the experiment's own
// Decode refuses is treated as a miss — the slice recomputes and the
// recomputation overwrites the bad entry.
func TestSliceStoreRejectedAggregateRecomputed(t *testing.T) {
	ts, store, explores := newCachedPrefixServer(t)
	if err := store.PutSlice(experiments.ShardEnvelope{
		ID:           "S1",
		SpaceVersion: experiments.RegistryVersion,
		Prefixes:     "0,1",
		Aggregate:    json.RawMessage(`{"count":-5,"sum":0}`),
	}); err != nil {
		t.Fatal(err)
	}
	status, body := httpGet(t, ts.URL+"/experiments/S1?prefixes=0,1")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if n := explores.Load(); n != 1 {
		t.Fatalf("rejected aggregate served without recomputing (%d explorations)", n)
	}
	var a prefixAgg
	env, err := experiments.DecodeShard(bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(env.Aggregate, &a); err != nil || a.Count != 2 {
		t.Fatalf("recomputed aggregate = %+v (%v)", a, err)
	}
	// The overwrite took: the next request is a pure store hit.
	if status, _ := httpGet(t, ts.URL+"/experiments/S1?prefixes=0,1"); status != http.StatusOK {
		t.Fatal("followup failed")
	}
	if n := explores.Load(); n != 1 {
		t.Fatalf("overwritten entry not served (%d explorations)", n)
	}
}

// TestSliceHitDecodesOnce: a stored slice is checked with the
// experiment's Decode and encoded once per process. The read that
// fills the store's memory tier attaches the envelope's body store, and
// every later hit of the slice writes the body the first one stored:
// K warm hits call Decode once and return the cold answer's bytes.
func TestSliceHitDecodesOnce(t *testing.T) {
	ts, store, counts := newCountingPrefixServer(t)
	const uri = "/experiments/S1?prefixes=0,1"
	status, cold := httpGet(t, ts.URL+uri)
	if status != http.StatusOK {
		t.Fatalf("cold slice status %d: %s", status, cold)
	}
	if n := counts.decodes.Load(); n != 0 {
		t.Fatalf("a fresh exploration's envelope was decoded %d times, want 0", n)
	}
	const hits = 5
	for i := 0; i < hits; i++ {
		status, warm := httpGet(t, ts.URL+uri)
		if status != http.StatusOK || warm != cold {
			t.Fatalf("warm hit %d: status %d, body\n%s\nwant\n%s", i+1, status, warm, cold)
		}
	}
	if n := counts.decodes.Load(); n != 1 {
		t.Errorf("%d warm hits of one slice called Decode %d times, want once", hits, n)
	}
	if n := counts.explores.Load(); n != 1 {
		t.Errorf("%d explorations, want the cold one only", n)
	}
	if st := store.Stats(); st.SliceHits != hits || st.SliceMisses != 1 || st.SliceStores != 1 {
		t.Errorf("store stats = %+v, want %d slice hits, 1 miss, 1 store", st, hits)
	}
}
