package cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/experiments"
)

func tableResult(id, title string) experiments.Result {
	return experiments.Result{ID: id, Table: &experiments.Table{
		ID:      id,
		Title:   title,
		Headers: []string{"a", "b"},
		Rows:    [][]string{{"1", "2"}, {"3", "4"}},
		Notes:   []string{"note"},
	}}
}

func mustOpen(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := mustOpen(t, Options{})
	want := tableResult("E1", "round trip")
	if err := s.Put("E1", want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("E1")
	if !ok {
		t.Fatal("Get missed a fresh Put")
	}
	if got.Err != nil || got.Table == nil {
		t.Fatalf("got %+v", got)
	}
	if got.Table.Title != want.Table.Title || len(got.Table.Rows) != 2 || got.Table.Rows[1][1] != "4" {
		t.Fatalf("table mangled: %+v", got.Table)
	}
	if st := s.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGetMissOnEmptyStore(t *testing.T) {
	s := mustOpen(t, Options{})
	if _, ok := s.Get("E1"); ok {
		t.Fatal("hit on empty store")
	}
	if st := s.Stats(); st.Misses != 1 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPutRefusesFailedResult(t *testing.T) {
	s := mustOpen(t, Options{})
	if err := s.Put("E1", experiments.Result{ID: "E1", Err: errors.New("boom")}); err == nil {
		t.Fatal("stored a failed result")
	}
	if err := s.Put("E1", experiments.Result{ID: "E1"}); err == nil {
		t.Fatal("stored a result with no table")
	}
	if _, ok := s.Get("E1"); ok {
		t.Fatal("refused Put still produced a hit")
	}
}

// entryPaths returns the store's entry files.
func entryPaths(t *testing.T, s *Store) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(s.dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

func TestCorruptedEntryIsAMissAndRemoved(t *testing.T) {
	corruptions := map[string]func([]byte) []byte{
		"truncated":  func(b []byte) []byte { return b[:len(b)/2] },
		"bit flip":   func(b []byte) []byte { b[len(b)/2] ^= 0x20; return b },
		"not json":   func([]byte) []byte { return []byte("garbage") },
		"empty file": func([]byte) []byte { return nil },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			s := mustOpen(t, Options{})
			if err := s.Put("E1", tableResult("E1", "victim")); err != nil {
				t.Fatal(err)
			}
			paths := entryPaths(t, s)
			if len(paths) != 1 {
				t.Fatalf("entries = %v", paths)
			}
			raw, err := os.ReadFile(paths[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(paths[0], corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Get("E1"); ok {
				t.Fatal("served a corrupted entry")
			}
			if st := s.Stats(); st.Corrupt != 1 {
				t.Fatalf("stats = %+v", st)
			}
			if left := entryPaths(t, s); len(left) != 0 {
				t.Fatalf("corrupted entry not removed: %v", left)
			}
		})
	}
}

func TestVersionBumpInvalidates(t *testing.T) {
	dir := t.TempDir()
	bumps := map[string]Options{
		"registry": {SpaceVersion: func(string) string { return "v2" }},
		"go":       {GoVersion: "go9.9.9"},
		"module":   {ModuleVersion: "repro@v2.0.0"},
	}
	for name, opts := range bumps {
		t.Run(name, func(t *testing.T) {
			old, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := old.Put("E1", tableResult("E1", "old generation")); err != nil {
				t.Fatal(err)
			}
			bumped, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := bumped.Get("E1"); ok {
				t.Fatalf("%s bump still hit the old entry", name)
			}
			// The old generation remains valid for the old key.
			if _, ok := old.Get("E1"); !ok {
				t.Fatal("old-generation entry lost")
			}
		})
	}
}

// TestMismatchedEntryKeyRejected copies an entry file onto the path a
// different store generation would look up — the recorded key no
// longer matches, so it must be discarded even though the checksum is
// intact.
func TestMismatchedEntryKeyRejected(t *testing.T) {
	dir := t.TempDir()
	v1, err := Open(dir, Options{SpaceVersion: func(string) string { return "v1" }})
	if err != nil {
		t.Fatal(err)
	}
	if err := v1.Put("E1", tableResult("E1", "from v1")); err != nil {
		t.Fatal(err)
	}
	v2, err := Open(dir, Options{SpaceVersion: func(string) string { return "v2" }})
	if err != nil {
		t.Fatal(err)
	}
	src := v1.path(v1.keyFor("E1", "", ""))
	dst := v2.path(v2.keyFor("E1", "", ""))
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := v2.Get("E1"); ok {
		t.Fatal("served an entry recorded under a different key")
	}
	if st := v2.Stats(); st.Corrupt != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFingerprintSeparatesFields(t *testing.T) {
	a := ArtifactKey{ID: "E1", SpaceVersion: "v1"}
	b := ArtifactKey{ID: "E1v", SpaceVersion: "1"}
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("field boundaries not separated in the fingerprint")
	}
	if a.Fingerprint() != a.Fingerprint() {
		t.Fatal("fingerprint not deterministic")
	}
	// A slice key must never collide with a whole key, including the
	// pathological spelling where the prefix set leaks into another
	// field: the part stream is length-prefixed, so the part count
	// parses unambiguously.
	s := ArtifactKey{ID: "E1", SpaceVersion: "v1", Prefixes: "0.1,1"}
	twisted := ArtifactKey{ID: "E1", SpaceVersion: "v1", ModuleVersion: "5:0.1,1"}
	if s.Fingerprint() == a.Fingerprint() || s.Fingerprint() == twisted.Fingerprint() {
		t.Fatal("slice key collides with a whole key")
	}
}

// entryBytes measures the on-disk size of one representative entry so
// the LRU tests can pick caps that fit exactly N entries.
func entryBytes(t *testing.T) int64 {
	t.Helper()
	s := mustOpen(t, Options{})
	if err := s.Put("E1", tableResult("E1", "probe")); err != nil {
		t.Fatal(err)
	}
	paths := entryPaths(t, s)
	if len(paths) != 1 {
		t.Fatalf("entries = %v", paths)
	}
	info, err := os.Stat(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

func TestLRUEviction(t *testing.T) {
	// Cap fits one entry but not two (titles differ by a byte or two,
	// hence the slack).
	s, err := Open(t.TempDir(), Options{MaxBytes: entryBytes(t) + 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("E1", tableResult("E1", "first")); err != nil {
		t.Fatal(err)
	}
	// Backdate E1 so mtime ordering is unambiguous on coarse clocks;
	// the second Put must then evict it to chase the cap.
	old := time.Now().Add(-time.Hour)
	for _, p := range entryPaths(t, s) {
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put("E2", tableResult("E2", "second")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("E1"); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := s.Get("E2"); !ok {
		t.Fatal("fresh entry evicted instead of the LRU one")
	}
	if st := s.Stats(); st.Evicted == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGetRefreshesRecency(t *testing.T) {
	// Cap fits two entries but not three.
	s, err := Open(t.TempDir(), Options{MaxBytes: 2*entryBytes(t) + 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("E1", tableResult("E1", "a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("E2", tableResult("E2", "b")); err != nil {
		t.Fatal(err)
	}
	// Backdate both, then touch E1 via Get: E2 becomes the LRU victim.
	old := time.Now().Add(-time.Hour)
	for _, p := range entryPaths(t, s) {
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Get("E1"); !ok {
		t.Fatal("warm entry missed")
	}
	if err := s.Put("E3", tableResult("E3", "c")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("E1"); !ok {
		t.Fatal("recently used entry evicted")
	}
	if _, ok := s.Get("E2"); ok {
		t.Fatal("least recently used entry survived")
	}
}

// TestStaleTempSweep: orphaned temp files from crashed writes are
// removed on Open, while a fresh temp file (a live writer) survives.
func TestStaleTempSweep(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, ".tmp-crashed")
	fresh := filepath.Join(dir, ".tmp-live")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("partial write"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * tempMaxAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale temp file not swept on Open")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Error("fresh temp file swept — could have been a live writer")
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open("", Options{}); err == nil {
		t.Fatal("Open(\"\") succeeded")
	}
}

// TestConcurrentPutGet races writers and readers of whole results and
// of one slice key: under -race (make race-cache) memory-tier fills,
// the drops every write makes, and disk reads interleave. Every read
// that hits must serve a complete, correct value.
func TestConcurrentPutGet(t *testing.T) {
	s := mustOpen(t, Options{})
	slice := sliceEnvelope(t, "E2", "0.1,1")
	done := make(chan error, 12)
	for w := 0; w < 8; w++ {
		go func(w int) {
			id := []string{"E1", "E2"}[w%2]
			for i := 0; i < 25; i++ {
				if err := s.Put(id, tableResult(id, "concurrent")); err != nil {
					done <- err
					return
				}
				if r, ok := s.Get(id); ok && r.Table.Title != "concurrent" {
					done <- errors.New("torn read")
					return
				}
			}
			done <- nil
		}(w)
	}
	// Two goroutines rewrite and reread the slice while two others
	// only read it.
	for w := 0; w < 4; w++ {
		go func(w int) {
			for i := 0; i < 25; i++ {
				if w < 2 {
					if err := s.PutSlice(slice); err != nil {
						done <- err
						return
					}
				}
				if env, ok := s.GetSlice("E2", "", slice.Prefixes); ok && string(env.Aggregate) != string(slice.Aggregate) {
					done <- fmt.Errorf("torn slice read: %s", env.Aggregate)
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 12; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if env, ok := s.GetSlice("E2", "", slice.Prefixes); !ok || string(env.Aggregate) != string(slice.Aggregate) {
		t.Fatalf("slice after the race: ok=%v env=%+v", ok, env)
	}
}

// sliceEnvelope builds a valid slice envelope for the store's own
// registry generation.
func sliceEnvelope(t *testing.T, id, prefixes string) experiments.ShardEnvelope {
	t.Helper()
	roots, err := experiments.ParsePrefixes(prefixes)
	if err != nil {
		t.Fatal(err)
	}
	return experiments.ShardEnvelope{
		ID:           id,
		SpaceVersion: experiments.RegistryVersion,
		Prefixes:     experiments.FormatPrefixes(roots),
		Aggregate:    json.RawMessage(`{"execs":7}`),
	}
}

// TestFingerprintBackCompat pins the byte-compatibility contract of
// the artifact generalization: a whole-result key hashes exactly the
// four length-prefixed parts the pre-slice scheme hashed, so a store
// written before slice artifacts existed stays warm.
func TestFingerprintBackCompat(t *testing.T) {
	k := ArtifactKey{
		ID:            "E2",
		SpaceVersion:  "e1-e14/v1",
		GoVersion:     "go1.22.0",
		ModuleVersion: "repro@(devel)",
	}
	h := sha256.New()
	for _, part := range []string{k.ID, k.SpaceVersion, k.GoVersion, k.ModuleVersion} {
		fmt.Fprintf(h, "%d:%s", len(part), part)
	}
	if want := hex.EncodeToString(h.Sum(nil)); k.Fingerprint() != want {
		t.Fatalf("whole-result fingerprint diverged from the pre-slice scheme:\n%s\nvs\n%s", k.Fingerprint(), want)
	}
}

// TestLegacyEnvelopeStillHits: an entry written by the pre-slice
// store — a four-field key object, no prefixes — must still validate
// and serve, because ArtifactKey keeps the old JSON form for whole
// results (omitempty prefixes) and the old fingerprint bytes.
func TestLegacyEnvelopeStillHits(t *testing.T) {
	s := mustOpen(t, Options{})
	var payload bytes.Buffer
	if err := experiments.EncodeJSON(&payload, []experiments.Result{tableResult("E1", "legacy")}); err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, payload.Bytes()); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(compact.Bytes())
	k := s.keyFor("E1", "", "")
	// Hand-build the old envelope shape: the key object spelled with
	// exactly the four legacy fields.
	raw, err := json.Marshal(map[string]any{
		"schema": schemaVersion,
		"key": map[string]string{
			"experiment":       k.ID,
			"registry_version": k.SpaceVersion,
			"go_version":       k.GoVersion,
			"module_version":   k.ModuleVersion,
		},
		"sha256":  hex.EncodeToString(sum[:]),
		"payload": json.RawMessage(compact.Bytes()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(k), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("E1")
	if !ok {
		t.Fatal("legacy whole-result entry missed")
	}
	if got.Table == nil || got.Table.Title != "legacy" {
		t.Fatalf("legacy entry mangled: %+v", got)
	}
}

func TestSlicePutGetRoundTrip(t *testing.T) {
	s := mustOpen(t, Options{})
	env := sliceEnvelope(t, "E2", "0.1,1")
	if err := s.PutSlice(env); err != nil {
		t.Fatal(err)
	}
	got, ok := s.GetSlice("E2", "", "0.1,1")
	if !ok {
		t.Fatal("GetSlice missed a fresh PutSlice")
	}
	if got.ID != "E2" || got.Prefixes != "0.1,1" || got.SpaceVersion != experiments.RegistryVersion {
		t.Fatalf("envelope mangled: %+v", got)
	}
	var agg struct {
		Execs int `json:"execs"`
	}
	if err := json.Unmarshal(got.Aggregate, &agg); err != nil || agg.Execs != 7 {
		t.Fatalf("aggregate mangled: %s (%v)", got.Aggregate, err)
	}
	if st := s.Stats(); st.SliceHits != 1 || st.SliceMisses != 0 || st.SliceStores != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// The slice entry must not shadow or collide with the whole key.
	if _, ok := s.Get("E2"); ok {
		t.Fatal("slice entry served as a whole result")
	}
	if _, ok := s.GetSlice("E2", "", "0.1"); ok {
		t.Fatal("wrong prefix set hit")
	}
	if _, ok := s.GetSlice("E2", "", ""); ok {
		t.Fatal("empty prefix set is not a slice")
	}
}

func TestPutSliceRefusals(t *testing.T) {
	s := mustOpen(t, Options{})
	wrongGen := sliceEnvelope(t, "E2", "0")
	wrongGen.SpaceVersion = "other-gen/v9"
	for name, env := range map[string]experiments.ShardEnvelope{
		"wrong generation": wrongGen,
		"no id":            {Prefixes: "0", SpaceVersion: experiments.RegistryVersion, Aggregate: json.RawMessage(`{}`)},
		"no prefixes":      {ID: "E2", SpaceVersion: experiments.RegistryVersion, Aggregate: json.RawMessage(`{}`)},
		"no aggregate":     {ID: "E2", Prefixes: "0", SpaceVersion: experiments.RegistryVersion},
	} {
		if err := s.PutSlice(env); err == nil {
			t.Errorf("PutSlice accepted %s", name)
		}
	}
	if st := s.Stats(); st.SliceStores != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if left := entryPaths(t, s); len(left) != 0 {
		t.Fatalf("refused PutSlice left entries: %v", left)
	}
}

// TestCorruptSliceIsAMissAndRemoved: a damaged slice entry is deleted
// and counted, and — crucially for the read-through hierarchy — the
// neighbouring slice and whole entries keep serving, so corruption
// re-explores one range, never the whole space.
func TestCorruptSliceIsAMissAndRemoved(t *testing.T) {
	s := mustOpen(t, Options{})
	if err := s.Put("E2", tableResult("E2", "whole")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutSlice(sliceEnvelope(t, "E2", "0")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutSlice(sliceEnvelope(t, "E2", "1")); err != nil {
		t.Fatal(err)
	}
	victim := s.path(s.keyFor("E2", "", "1"))
	raw, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x20
	if err := os.WriteFile(victim, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetSlice("E2", "", "1"); ok {
		t.Fatal("served a corrupted slice")
	}
	if _, err := os.Stat(victim); !os.IsNotExist(err) {
		t.Fatal("corrupted slice not removed")
	}
	if st := s.Stats(); st.SliceMisses != 1 || st.Corrupt != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if _, ok := s.GetSlice("E2", "", "0"); !ok {
		t.Fatal("healthy sibling slice lost")
	}
	if _, ok := s.Get("E2"); !ok {
		t.Fatal("whole entry lost to a corrupt slice")
	}
}

// TestSlicePayloadKindsDontCross: a slice envelope handcrafted onto a
// whole key (and vice versa) passes the checksum but fails the
// payload decode — rejected, removed, counted.
func TestSlicePayloadKindsDontCross(t *testing.T) {
	s := mustOpen(t, Options{})
	if err := s.PutSlice(sliceEnvelope(t, "E2", "0")); err != nil {
		t.Fatal(err)
	}
	// Rewrite the slice entry under the whole key, fixing the recorded
	// key so only the payload kind is wrong.
	raw, err := os.ReadFile(s.path(s.keyFor("E2", "", "0")))
	if err != nil {
		t.Fatal(err)
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	env.Key = s.keyFor("E2", "", "")
	forged, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(env.Key), forged, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("E2"); ok {
		t.Fatal("slice payload served as a whole result")
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestMixedEviction: whole results and slice aggregates share one
// byte cap and one LRU order — recently used entries of either kind
// survive, the stale ones go, whatever their kind.
func TestMixedEviction(t *testing.T) {
	// A cap that fits roughly three entries of the sizes used here.
	s, err := Open(t.TempDir(), Options{MaxBytes: 3*entryBytes(t) + 48})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("E1", tableResult("E1", "whole-old")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutSlice(sliceEnvelope(t, "E2", "0")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutSlice(sliceEnvelope(t, "E2", "1")); err != nil {
		t.Fatal(err)
	}
	// Backdate everything, then refresh the whole entry and one slice:
	// the untouched slice becomes the LRU victim of the next write.
	old := time.Now().Add(-time.Hour)
	for _, p := range entryPaths(t, s) {
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Get("E1"); !ok {
		t.Fatal("whole entry missed")
	}
	if _, ok := s.GetSlice("E2", "", "0"); !ok {
		t.Fatal("slice entry missed")
	}
	if err := s.PutSlice(sliceEnvelope(t, "E2", "2")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetSlice("E2", "", "1"); ok {
		t.Fatal("LRU slice survived a mixed eviction")
	}
	if _, ok := s.Get("E1"); !ok {
		t.Fatal("recently used whole entry evicted")
	}
	if _, ok := s.GetSlice("E2", "", "0"); !ok {
		t.Fatal("recently used slice evicted")
	}
	if st := s.Stats(); st.Evicted == 0 {
		t.Fatalf("stats = %+v", st)
	}
}
