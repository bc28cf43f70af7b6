package cache

import (
	"context"
	"testing"

	"repro/internal/experiments"
)

// BenchmarkCacheColdVsWarm compares one engine run of E12 (the
// midpoint-contraction sweep, the most expensive of the quick
// experiments) executed fresh against the same run served from the
// store. warm rereads on one Store whose memory tier already holds the
// result: the serving layer's floor per experiment. disk opens a fresh
// Store over the filled directory on every iteration, so each read
// opens, parses, checksums and decodes the file, as the first request
// of a process does. The cold/disk gap is the value of the on-disk
// store, the disk/warm gap that of the memory tier.
func BenchmarkCacheColdVsWarm(b *testing.B) {
	const id = "E12"
	opts := func(s *Store) experiments.Options {
		return experiments.Options{IDs: []string{id}, Jobs: 1, Cache: s}
	}
	check := func(b *testing.B, results []experiments.Result, err error, wantCached bool) {
		b.Helper()
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.FirstError(results); err != nil {
			b.Fatal(err)
		}
		if results[0].Cached != wantCached {
			b.Fatalf("Cached = %v, want %v", results[0].Cached, wantCached)
		}
	}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s, err := Open(b.TempDir(), Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			results, err := experiments.Run(context.Background(), opts(s))
			check(b, results, err, false)
		}
	})

	b.Run("warm", func(b *testing.B) {
		s, err := Open(b.TempDir(), Options{})
		if err != nil {
			b.Fatal(err)
		}
		// Prime the store and its memory tier, then measure pure hits.
		results, err := experiments.Run(context.Background(), opts(s))
		check(b, results, err, false)
		results, err = experiments.Run(context.Background(), opts(s))
		check(b, results, err, true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			results, err := experiments.Run(context.Background(), opts(s))
			check(b, results, err, true)
		}
	})

	b.Run("disk", func(b *testing.B) {
		dir := b.TempDir()
		s, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		results, err := experiments.Run(context.Background(), opts(s))
		check(b, results, err, false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fresh, err := Open(dir, Options{})
			if err != nil {
				b.Fatal(err)
			}
			results, err := experiments.Run(context.Background(), opts(fresh))
			check(b, results, err, true)
		}
	})
}

// BenchmarkSliceCacheColdVsWarm measures the slice half of the
// artifact store on a real workload: one quarter of E2's exploration
// partition (the k = 4 Algorithm 1 sweep) explored fresh versus read
// through the store (GetSlice + the experiment's own Decode — the
// exact warm path internal/shard's per-range read-through takes).
// warm rereads on one Store whose memory tier already holds the slice;
// disk opens a fresh Store over the filled directory on every
// iteration, so each read takes the file path (open, parse, SHA-256,
// decode). The gaps are the value of the fleet cache hierarchy per
// range, on disk and in memory.
func BenchmarkSliceCacheColdVsWarm(b *testing.B) {
	sh, ok := experiments.Shardables()["E2"]
	if !ok {
		b.Fatal("E2 not shardable")
	}
	roots, err := sh.Roots()
	if err != nil {
		b.Fatal(err)
	}
	slice := roots[:len(roots)/4]
	prefixes := experiments.FormatPrefixes(slice)

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sh.Explore(slice); err != nil {
				b.Fatal(err)
			}
		}
	})

	// fill stores the slice in a fresh directory and returns it.
	fill := func(b *testing.B) string {
		dir := b.TempDir()
		s, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		agg, err := sh.Explore(slice)
		if err != nil {
			b.Fatal(err)
		}
		env, err := experiments.NewShardEnvelope("E2", "", slice, agg)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.PutSlice(env); err != nil {
			b.Fatal(err)
		}
		return dir
	}
	read := func(b *testing.B, s *Store) {
		got, ok := s.GetSlice("E2", "", prefixes)
		if !ok {
			b.Fatal("warm slice missed")
		}
		if _, err := sh.Decode(got.Aggregate); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("warm", func(b *testing.B) {
		s, err := Open(fill(b), Options{})
		if err != nil {
			b.Fatal(err)
		}
		read(b, s) // fills the memory tier
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			read(b, s)
		}
	})

	b.Run("disk", func(b *testing.B) {
		dir := fill(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s, err := Open(dir, Options{})
			if err != nil {
				b.Fatal(err)
			}
			read(b, s)
		}
	})
}
