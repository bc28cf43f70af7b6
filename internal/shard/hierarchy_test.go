package shard

import (
	"bytes"
	"context"
	"path/filepath"
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
