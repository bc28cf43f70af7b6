package cache

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
)

// TestMemoryHitAllocatesNothing: once a read has verified an entry, a
// repeat GetParam or GetSlice is a map lookup — no file read, no
// decode, no allocation — and still counts as a hit.
func TestMemoryHitAllocatesNothing(t *testing.T) {
	s := mustOpen(t, Options{})
	if err := s.PutParam("E2", "k=3", tableResult("E2", "k=3")); err != nil {
		t.Fatal(err)
	}
	env := sliceEnvelope(t, "E2", "0.1,1")
	if err := s.PutSlice(env); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetParam("E2", "k=3"); !ok {
		t.Fatal("first read missed")
	}
	if _, ok := s.GetSlice("E2", "", env.Prefixes); !ok {
		t.Fatal("first slice read missed")
	}
	const runs = 100
	if n := testing.AllocsPerRun(runs, func() {
		if r, ok := s.GetParam("E2", "k=3"); !ok || r.Table.Title != "k=3" {
			t.Fatalf("repeat read: ok=%v r=%+v", ok, r)
		}
	}); n != 0 {
		t.Errorf("repeat GetParam allocates %v per hit, want 0", n)
	}
	if n := testing.AllocsPerRun(runs, func() {
		if got, ok := s.GetSlice("E2", "", env.Prefixes); !ok || string(got.Aggregate) != string(env.Aggregate) {
			t.Fatalf("repeat slice read: ok=%v got=%+v", ok, got)
		}
	}); n != 0 {
		t.Errorf("repeat GetSlice allocates %v per hit, want 0", n)
	}
	// AllocsPerRun calls its function once more to warm up.
	st := s.Stats()
	if st.Hits != runs+2 || st.SliceHits != runs+2 || st.Misses+st.SliceMisses != 0 {
		t.Fatalf("memory hits not counted like disk hits: %+v", st)
	}
}

// TestMemoryTierCapped: reading more distinct entries than memEntries
// keeps the tier within its cap, and every read, from memory or from
// disk, still returns its own entry.
func TestMemoryTierCapped(t *testing.T) {
	s := mustOpen(t, Options{})
	const n = memEntries + 40
	params := func(i int) string { return fmt.Sprintf("k=%d", i) }
	for i := 0; i < n; i++ {
		if err := s.PutParam("E2", params(i), tableResult("E2", params(i))); err != nil {
			t.Fatal(err)
		}
	}
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			got, ok := s.GetParam("E2", params(i))
			if !ok || got.Table.Title != params(i) {
				t.Fatalf("pass %d: read %s: ok=%v got=%+v", pass, params(i), ok, got)
			}
			s.mu.Lock()
			held := len(s.mem)
			s.mu.Unlock()
			if held > memEntries {
				t.Fatalf("memory tier holds %d entries, cap %d", held, memEntries)
			}
		}
	}
	if st := s.Stats(); st.Hits != 2*n || st.Misses != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCorruptionAfterReadNeedsFreshStore pins the tier's one blind
// spot: a file damaged on disk after this Store verified it keeps
// serving the verified value, and a fresh Store over the directory
// sees the corruption and drops the file.
func TestCorruptionAfterReadNeedsFreshStore(t *testing.T) {
	s := mustOpen(t, Options{})
	if err := s.Put("E1", tableResult("E1", "verified")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("E1"); !ok {
		t.Fatal("first read missed")
	}
	path := s.path(s.keyFor("E1", "", ""))
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("E1"); !ok || got.Table.Title != "verified" {
		t.Fatalf("verified entry lost to a later corruption: ok=%v got=%+v", ok, got)
	}
	fresh, err := Open(s.dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fresh.Get("E1"); ok {
		t.Fatal("a fresh store served a corrupted entry")
	}
	if st := fresh.Stats(); st.Corrupt != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestEvictionDropsMemoryTier: an entry the byte cap evicts from disk
// leaves the memory tier too — the tier never serves what the store no
// longer holds.
func TestEvictionDropsMemoryTier(t *testing.T) {
	s, err := Open(t.TempDir(), Options{MaxBytes: entryBytes(t) + 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("E1", tableResult("E1", "first")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("E1"); !ok {
		t.Fatal("first read missed")
	}
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
		t.Fatal("memory tier served an evicted entry")
	}
	if st := s.Stats(); st.Evicted != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRacedFillKeepsNothing: a disk read that started before a write
// dropped a key must not put its (possibly older) value in the tier.
func TestRacedFillKeepsNothing(t *testing.T) {
	s := mustOpen(t, Options{})
	k := s.keyFor("E1", "", "")
	_, gen := s.recall(k)
	if err := s.Put("E1", tableResult("E1", "newer")); err != nil {
		t.Fatal(err)
	}
	s.remember(k, gen, &verified{path: s.path(k), result: tableResult("E1", "older")})
	if got, ok := s.Get("E1"); !ok || got.Table.Title != "newer" {
		t.Fatalf("a raced fill served the value the write replaced: ok=%v got=%+v", ok, got)
	}
}

// TestConcurrentBodyFills: readers take one freshly written entry in
// all three formats at once, so the read that fills the tier and the
// first Body call of each format race, while a writer keeps replacing
// the entry with another table. Every body is the encoding, in its
// format, of the very result its reader was handed.
func TestConcurrentBodyFills(t *testing.T) {
	s := mustOpen(t, Options{})
	titles := []string{"first", "second"}
	if err := s.PutParam("E2", "k=3", tableResult("E2", titles[0])); err != nil {
		t.Fatal(err)
	}
	formats := []string{"text", "json", "csv"}
	const readers, rounds = 6, 20
	start := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 1; i <= rounds; i++ {
			if err := s.PutParam("E2", "k=3", tableResult("E2", titles[i%2])); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < rounds; i++ {
				r, ok := s.GetParam("E2", "k=3")
				if !ok {
					t.Error("read missed while the entry was rewritten")
					return
				}
				for f := range formats {
					format := formats[(g+f)%len(formats)]
					var want bytes.Buffer
					if err := experiments.Encoders[format](&want, []experiments.Result{r}); err != nil {
						t.Error(err)
						return
					}
					if got, err := experiments.Body(format, r); err != nil || !bytes.Equal(got, want.Bytes()) {
						t.Errorf("%s body of %q = %q, %v; want %q", format, r.Table.Title, got, err, want.Bytes())
						return
					}
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
}

// TestConcurrentSliceBodyFills: readers take one freshly written slice
// at once, so the read that fills the tier and the first ShardBody
// call, which checks and encodes the envelope for every later one,
// race each other, while a writer keeps replacing the slice with
// another aggregate, each PutSlice dropping the key. Every body is the
// encoding of the very envelope its reader was handed, and is checked
// before it is served.
func TestConcurrentSliceBodyFills(t *testing.T) {
	s := mustOpen(t, Options{})
	aggregates := []string{`{"execs":7}`, `{"execs":8}`}
	put := func(i int) error {
		env := sliceEnvelope(t, "E2", "0.1,1")
		env.Aggregate = []byte(aggregates[i%2])
		return s.PutSlice(env)
	}
	if err := put(0); err != nil {
		t.Fatal(err)
	}
	decode := func(data []byte) (experiments.Aggregate, error) {
		if !bytes.Equal(data, []byte(aggregates[0])) && !bytes.Equal(data, []byte(aggregates[1])) {
			return nil, fmt.Errorf("aggregate %s was never written", data)
		}
		return nil, nil
	}
	const readers, rounds = 6, 20
	start := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 1; i <= rounds; i++ {
			if err := put(i); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < rounds; i++ {
				env, ok := s.GetSlice("E2", "", "0.1,1")
				if !ok {
					t.Error("slice read missed while the entry was rewritten")
					return
				}
				var want bytes.Buffer
				if err := experiments.EncodeShardEnvelope(&want, env); err != nil {
					t.Error(err)
					return
				}
				if got, err := experiments.ShardBody(env, decode); err != nil || !bytes.Equal(got, want.Bytes()) {
					t.Errorf("body of %s = %q, %v; want %q", env.Aggregate, got, err, want.Bytes())
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
}
