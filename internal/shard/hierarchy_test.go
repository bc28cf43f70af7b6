package shard

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/server"

	"net/http/httptest"
)

// openFrontStore opens an artifact store with pinned build versions,
// so tests can compute entry paths and surgically remove or corrupt
// individual artifacts. The registry version stays the real one: the
// store must accept the envelopes real workers serve.
func openFrontStore(t *testing.T) (*cache.Store, string, cache.ArtifactKey) {
	t.Helper()
	dir := t.TempDir()
	store, err := cache.Open(dir, cache.Options{GoVersion: "gotest", ModuleVersion: "repro@test"})
	if err != nil {
		t.Fatal(err)
	}
	wholeKey := cache.ArtifactKey{
		ID:            "E2",
		SpaceVersion:  experiments.RegistryVersion,
		GoVersion:     "gotest",
		ModuleVersion: "repro@test",
	}
	return store, dir, wholeKey
}

// hierarchyFixture stands up a two-worker fleet plus a coordinator
// whose Local.Cache is a real artifact store — the read-through
// hierarchy under test.
func hierarchyFixture(t *testing.T) (*Coordinator, *cache.Store, string, cache.ArtifactKey, func() int64) {
	t.Helper()
	const id = "E2"
	w1, execs1 := newShardableWorker(t, id)
	w2, execs2 := newShardableWorker(t, id)
	store, dir, wholeKey := openFrontStore(t)
	localReg, localExecs := shardableFixture(id)
	coord, err := New(Options{
		Workers: []string{w1.URL, w2.URL},
		Local:   experiments.Options{Registry: localReg, Jobs: 1, Cache: store},
	})
	if err != nil {
		t.Fatal(err)
	}
	fleetExecs := func() int64 { return execs1.Load() + execs2.Load() + localExecs.Load() }
	return coord, store, dir, wholeKey, fleetExecs
}

// removeWholeEntry deletes the merged whole-result artifact, leaving
// only the slice artifacts — the state that forces the coordinator to
// carve again and exercise per-range read-through.
func removeWholeEntry(t *testing.T, dir string, wholeKey cache.ArtifactKey) {
	t.Helper()
	if err := os.Remove(filepath.Join(dir, wholeKey.Fingerprint()+".json")); err != nil {
		t.Fatalf("whole-result artifact not found: %v", err)
	}
}

// TestRangesServedFromFrontStore: with the whole result gone but the
// slices warm, a sharded run executes zero explorations anywhere —
// every range is read through the front store — and still emits the
// single-process bytes; the merged whole is stored back.
func TestRangesServedFromFrontStore(t *testing.T) {
	const id = "E2"
	coord, store, dir, wholeKey, fleetExecs := hierarchyFixture(t)
	cold, err := coord.Run(context.Background(), []string{id})
	if err != nil {
		t.Fatal(err)
	}
	coldExecs := fleetExecs()
	if coldExecs == 0 {
		t.Fatal("cold run explored nothing")
	}
	if st := store.Stats(); st.SliceStores != 4 {
		t.Fatalf("cold run stored %d slices, want 4", st.SliceStores)
	}
	removeWholeEntry(t, dir, wholeKey)

	warm, err := coord.Run(context.Background(), []string{id})
	if err != nil {
		t.Fatal(err)
	}
	if n := fleetExecs(); n != coldExecs {
		t.Errorf("warm run explored %d more slices", n-coldExecs)
	}
	if got, want := encodeAll(t, warm), prefixBaseline(t, id); !bytes.Equal(got, want) {
		t.Errorf("warm bytes differ from the single-process run:\n%s\nvs\n%s", got, want)
	}
	if got, want := encodeAll(t, warm), encodeAll(t, cold); !bytes.Equal(got, want) {
		t.Errorf("warm bytes differ from cold:\n%s\nvs\n%s", got, want)
	}
	st := coord.Stats()
	if st.PrefixRangesCached != 4 {
		t.Errorf("ranges cached = %d, want 4", st.PrefixRangesCached)
	}
	if st.PrefixRangesRemote != 4 || st.PrefixRangesLocal != 0 {
		t.Errorf("stats = %+v, want only the cold run's 4 remote ranges", st)
	}
	// The merged whole was stored back: a third run is a whole hit.
	if _, err := os.Stat(filepath.Join(dir, wholeKey.Fingerprint()+".json")); err != nil {
		t.Errorf("merged whole result not stored back: %v", err)
	}
	third, err := coord.Run(context.Background(), []string{id})
	if err != nil {
		t.Fatal(err)
	}
	if !third[0].Cached {
		t.Error("third run not served from the whole-result artifact")
	}
}

// TestCorruptSliceReExploresThatRangeOnly: a corrupt slice artifact
// costs exactly one range — the other three still read through, the
// damaged one is re-fetched from the fleet (and the corruption is
// counted), and the bytes stay identical.
func TestCorruptSliceReExploresThatRangeOnly(t *testing.T) {
	const id = "E2"
	coord, store, dir, wholeKey, fleetExecs := hierarchyFixture(t)
	if _, err := coord.Run(context.Background(), []string{id}); err != nil {
		t.Fatal(err)
	}
	coldExecs := fleetExecs()
	removeWholeEntry(t, dir, wholeKey)
	// Corrupt one of the remaining artifacts — all four are slices now.
	slices, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(slices) != 4 {
		t.Fatalf("slice artifacts = %v (%v)", slices, err)
	}
	raw, err := os.ReadFile(slices[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x20
	if err := os.WriteFile(slices[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	warm, err := coord.Run(context.Background(), []string{id})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := encodeAll(t, warm), prefixBaseline(t, id); !bytes.Equal(got, want) {
		t.Errorf("bytes differ after slice corruption:\n%s\nvs\n%s", got, want)
	}
	if n := fleetExecs(); n != coldExecs+1 {
		t.Errorf("corruption cost %d explorations, want exactly 1", n-coldExecs)
	}
	st := coord.Stats()
	if st.PrefixRangesCached != 3 {
		t.Errorf("ranges cached = %d, want 3", st.PrefixRangesCached)
	}
	if st.PrefixRangesRemote != 5 {
		t.Errorf("remote ranges = %d, want the cold 4 plus 1 re-fetch", st.PrefixRangesRemote)
	}
	if cs := store.Stats(); cs.Corrupt == 0 {
		t.Errorf("corruption not counted: %+v", cs)
	}
}

// TestLocalRangesStoredBack: ranges that fall back to local
// exploration (fleet without slice support) are stored too, so even a
// degraded run warms the hierarchy for the next one.
func TestLocalRangesStoredBack(t *testing.T) {
	const id = "E2"
	reg, _ := shardableFixture(id)
	w1 := httptest.NewServer(server.New(server.Options{
		Registry: unsharded(reg),
	}))
	defer w1.Close()
	w2 := httptest.NewServer(server.New(server.Options{
		Registry: unsharded(reg),
	}))
	defer w2.Close()
	store, dir, wholeKey := openFrontStore(t)
	localReg, localExecs := shardableFixture(id)
	coord, err := New(Options{
		Workers: []string{w1.URL, w2.URL},
		Local:   experiments.Options{Registry: localReg, Jobs: 1, Cache: store},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Run(context.Background(), []string{id}); err != nil {
		t.Fatal(err)
	}
	coldLocal := localExecs.Load()
	if coldLocal != 4 {
		t.Fatalf("cold local explorations = %d, want 4", coldLocal)
	}
	removeWholeEntry(t, dir, wholeKey)
	warm, err := coord.Run(context.Background(), []string{id})
	if err != nil {
		t.Fatal(err)
	}
	if n := localExecs.Load(); n != coldLocal {
		t.Errorf("warm run explored %d more ranges locally", n-coldLocal)
	}
	if got, want := encodeAll(t, warm), prefixBaseline(t, id); !bytes.Equal(got, want) {
		t.Errorf("warm bytes differ:\n%s\nvs\n%s", got, want)
	}
	if st := coord.Stats(); st.PrefixRangesCached != 4 {
		t.Errorf("ranges cached = %d, want 4", st.PrefixRangesCached)
	}
}
