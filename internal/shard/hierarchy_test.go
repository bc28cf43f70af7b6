package shard

import (
	"bytes"
	"context"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/experiments"
)

// TestFrontStoreKeepsWholeResultsOnly: a coordinator's front store
// keeps whole results, never ranges. A cold carved run through it
// leaves exactly one artifact, the merged whole (the ranges are the
// workers' to keep), and a second run is a whole hit that sends no
// fetch and explores nothing. Both runs emit the single-process bytes.
func TestFrontStoreKeepsWholeResultsOnly(t *testing.T) {
	const id = "E2"
	w1, execs1 := newShardableWorker(t, id)
	w2, execs2 := newShardableWorker(t, id)
	dir := t.TempDir()
	// Pinned build versions, so the test can name the whole result's
	// file; the registry version stays the real one.
	store, err := cache.Open(dir, cache.Options{GoVersion: "gotest", ModuleVersion: "repro@test"})
	if err != nil {
		t.Fatal(err)
	}
	wholeKey := cache.ArtifactKey{
		ID:            id,
		SpaceVersion:  experiments.RegistryVersion,
		GoVersion:     "gotest",
		ModuleVersion: "repro@test",
	}
	localReg, localExecs := shardableFixture(id)
	coord, err := New(Options{
		Workers: []string{w1.URL, w2.URL},
		Local:   experiments.Options{Registry: localReg, Jobs: 1, Cache: store},
	})
	if err != nil {
		t.Fatal(err)
	}
	fleetExecs := func() int64 { return execs1.Load() + execs2.Load() + localExecs.Load() }
	fetches := func() int64 {
		var n int64
		for _, w := range coord.Stats().Workers {
			n += w.Fetches
		}
		return n
	}
	want := prefixBaseline(t, id)

	cold, err := coord.Run(context.Background(), []string{id})
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeAll(t, cold); !bytes.Equal(got, want) {
		t.Errorf("cold bytes differ from the single-process run:\n%s\nvs\n%s", got, want)
	}
	if st := coord.Stats(); st.PrefixSharded != 1 || st.PrefixRangesRemote != 4 || st.Remote != 0 || st.Local != 0 {
		t.Fatalf("stats = %+v, want one carved run of 4 remote ranges", st)
	}
	artifacts, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if whole := filepath.Join(dir, wholeKey.Fingerprint()+".json"); len(artifacts) != 1 || artifacts[0] != whole {
		t.Errorf("front store holds %v after a cold carved run, want only the merged whole %s", artifacts, whole)
	}
	if st := store.Stats(); st.SliceStores != 0 {
		t.Errorf("front store wrote %d slices, want none", st.SliceStores)
	}

	coldExecs, coldFetches := fleetExecs(), fetches()
	warm, err := coord.Run(context.Background(), []string{id})
	if err != nil {
		t.Fatal(err)
	}
	if !warm[0].Cached {
		t.Error("second run not served from the whole-result artifact")
	}
	if got := encodeAll(t, warm); !bytes.Equal(got, want) {
		t.Errorf("warm bytes differ from the single-process run:\n%s\nvs\n%s", got, want)
	}
	if n := fetches(); n != coldFetches {
		t.Errorf("warm run sent %d fetches, want none", n-coldFetches)
	}
	if n := fleetExecs(); n != coldExecs {
		t.Errorf("warm run explored %d more times", n-coldExecs)
	}
	if st := coord.Stats(); st.PrefixSharded != 1 {
		t.Errorf("stats = %+v, want only the cold run carved", st)
	}
}

// countingStore is a memCache that counts front-store reads and
// writes.
type countingStore struct {
	*memCache
	gets, puts atomic.Int64
}

func (c *countingStore) GetParam(id, params string) (experiments.Result, bool) {
	c.gets.Add(1)
	return c.memCache.GetParam(id, params)
}

func (c *countingStore) PutParam(id, params string, r experiments.Result) error {
	c.puts.Add(1)
	return c.memCache.PutParam(id, params, r)
}

// TestFrontStoreReadOncePerRequest: a coordinator reads its front store
// once per request and writes a result back once, the local fallback's
// included. Over a dead fleet the cold request misses, runs locally and
// is stored; the warm one is a hit that runs nothing.
func TestFrontStoreReadOncePerRequest(t *testing.T) {
	const id = "E1"
	reg, execs := syntheticRegistry(id)
	store := &countingStore{memCache: newMemCache()}
	coord, err := New(Options{
		Workers: []string{"http://" + deadAddr(t)},
		Local:   experiments.Options{Registry: reg, Jobs: 1, Cache: store},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, cached := range []bool{false, true} {
		res, err := coord.RunParam(context.Background(), id, experiments.ParamSet{})
		if err != nil || res.Err != nil {
			t.Fatalf("request %d: %v / %v", i+1, err, res.Err)
		}
		if res.Cached != cached {
			t.Errorf("request %d: cached = %v, want %v", i+1, res.Cached, cached)
		}
		if got := store.gets.Load(); got != int64(i+1) {
			t.Errorf("after request %d: %d front-store reads, want %d", i+1, got, i+1)
		}
	}
	if got := store.puts.Load(); got != 1 {
		t.Errorf("front-store writes = %d, want 1 (the cold local run)", got)
	}
	if n := execs.Load(); n != 1 {
		t.Errorf("executions = %d, want 1", n)
	}
}
