// Package cache is a content-addressed, on-disk artifact store for
// experiment outputs. It holds two kinds of artifact behind one
// checksummed, atomically-written, LRU-capped code path:
//
//   - whole results: one experiment's Result in the JSON wire form of
//     internal/experiments (EncodeJSON/DecodeJSON);
//   - slice aggregates: one prefix range's ShardEnvelope — the wire
//     form of GET /experiments/{id}?prefixes=... — so repeated sharded
//     runs of the same exploration space are warm too.
//
// Every artifact is addressed by a SHA-256 fingerprint of its
// ArtifactKey (experiment id, prefix set, registry version, Go
// version, module version): any version bump changes every
// fingerprint, so a stale store invalidates itself by missing rather
// than by being scrubbed. An empty prefix set is a whole result, and
// its fingerprint is byte-compatible with the pre-slice key scheme,
// so stores written before slices existed stay warm. Writes are
// atomic (temp file + rename in the store directory), every payload
// carries its own checksum, and entries that fail any check —
// envelope schema, recorded key, checksum, decode — are deleted and
// reported as misses so corruption always falls back to re-computing
// that artifact (and only that artifact: a corrupt slice re-explores
// one range, not the whole space), never to serving bad bytes. A
// byte-size cap evicts least-recently-used entries of either kind on
// write.
//
// Each artifact is verified once per process. A read that passes every
// check keeps the decoded value in memory, keyed by its ArtifactKey,
// and every later read of that key in the same Store is one map
// lookup: no file I/O, no envelope parse, no SHA-256, no decode, no
// allocation. The memory tier holds at most memEntries artifacts (a
// fill past the cap drops an arbitrary one) and stays consistent with
// this process's own writes: Put, PutSlice, a rejected entry and an
// eviction each drop the key, so the next read goes back to disk. It
// never fills from a Put, so a file corrupted after it was written is
// still a corrupt miss. Only the read that fills the tier refreshes
// the entry's mtime; repeat hits touch nothing on disk. A change made
// to the directory by another process (an overwrite, a corruption, an
// eviction) is not seen for an artifact this Store already holds until
// a fresh Store is opened. Values returned from the tier are shared:
// callers must not mutate them.
//
// Each whole result the tier holds also keeps its response body per
// format (experiments.WithBodies): the first experiments.Body call in
// a format encodes it, and every later one, on any copy the tier
// returned, serves those bytes. Each slice envelope keeps one body the
// same way (experiments.WithShardBody): the first experiments.ShardBody
// call runs the caller's aggregate check and the encoding, and every
// later one serves its outcome. The bodies live and die with their
// entry — a write, a rejected read or an eviction drops them — and,
// like the tier, never fill from a Put; the read that fills the tier
// attaches an empty store and encodes nothing.
//
// Store implements experiments.Cache — whole results by (id, parameter
// point) and slice envelopes by (id, point, prefixes) — so it plugs
// directly into experiments.Options, internal/server, and
// internal/shard's front cache and per-range read-through; Get and Put
// are the default-point shorthands. cmd/figures (-cache-dir) and
// cmd/figuresd wire it up.
// Stats counts hits, misses, corruption, and evictions since Open —
// the counters internal/server republishes on its /stats endpoint. A
// hit served from memory counts exactly as one served from disk.
package cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
)

// schemaVersion is the on-disk envelope format generation. Bumping it
// orphans every existing entry (they fail the envelope check and are
// removed on first read).
const schemaVersion = 1

// memEntries caps the number of verified artifacts a Store keeps in
// memory. Entries are a few KiB decoded (E1–E15 tables and their slice
// aggregates), so a full tier is a few MiB; a warm figuresd serving
// the whole registry holds a few dozen.
const memEntries = 256

// DefaultMaxBytes caps the store at 256 MiB unless Options.MaxBytes
// overrides it — two orders of magnitude above a full E1–E15 table
// set, so eviction only matters for long-lived shared directories.
const DefaultMaxBytes = 256 << 20

// Options configures Open. The zero value is usable: versions default
// to this build's, the size cap to DefaultMaxBytes.
type Options struct {
	// MaxBytes caps the total size of stored entries; <= 0 means
	// DefaultMaxBytes. The cap is enforced on Put by evicting the
	// least-recently-used entries.
	MaxBytes int64
	// SpaceVersion resolves one experiment id to the version naming
	// its cache-identity generation; nil means
	// experiments.SpaceVersion, the per-experiment resolver — bumping
	// one experiment's code version moves only its fingerprints.
	SpaceVersion func(id string) string
	// GoVersion defaults to runtime.Version().
	GoVersion string
	// ModuleVersion defaults to the main module's path@version from
	// the build info ("repro@(devel)" for source builds).
	ModuleVersion string
}

// Stats counts a store's traffic since Open. Whole results and slice
// aggregates are counted separately — a sharded run's warmth is
// visible even when its whole-result entry was never written.
type Stats struct {
	Hits        int64 // Get served a stored whole result (from disk or memory)
	Misses      int64 // Get found nothing usable
	SliceHits   int64 // GetSlice served a stored slice aggregate (from disk or memory)
	SliceMisses int64 // GetSlice found nothing usable
	SliceStores int64 // PutSlice wrote a slice aggregate
	Corrupt     int64 // subset of the misses: an entry existed but failed a check
	Evicted     int64 // entries removed by the size cap
}

// HitRate returns whole-result hits/(hits+misses) in [0, 1], and 0 for
// an idle store.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// ArtifactKey is the full cache key of one artifact. Every field
// participates in the fingerprint, and the stored copy must match the
// store's own key on read — a fingerprint collision or a file copied
// between stores with different versions is detected and discarded,
// never served. An empty Prefixes means a whole experiment result; a
// non-empty Prefixes (the canonical experiments.FormatPrefixes
// rendering of a root set) means one slice's aggregate. An empty
// Params means the experiment's fixed point; a non-empty Params (the
// canonical experiments.ParamSet rendering) means one parameter point
// of its family. SpaceVersion is the per-experiment identity
// generation (experiments.SpaceVersion) — it keeps the pre-family
// "registry_version" JSON key, and for an experiment with no family
// version it IS the registry version, so entries written before
// per-space identity existed still validate.
type ArtifactKey struct {
	ID            string `json:"experiment"`
	Params        string `json:"params,omitempty"`
	Prefixes      string `json:"prefixes,omitempty"`
	SpaceVersion  string `json:"registry_version"`
	GoVersion     string `json:"go_version"`
	ModuleVersion string `json:"module_version"`
}

// Fingerprint returns the hex SHA-256 content address of the key.
// Fixed-point whole-result keys hash exactly the four parts the
// original scheme hashed — byte-compatible, so an existing store
// stays warm across both the artifact and the parameter
// generalizations; slice keys append the prefix set as a fifth part,
// and parameter points append the literal tag "params" plus the
// canonical rendering (the tag keeps a params-only key from ever
// colliding with a prefixes-only key). Length-prefixing makes the
// part stream unambiguous, so neither field boundaries nor the part
// count can collide.
func (k ArtifactKey) Fingerprint() string {
	h := sha256.New()
	parts := []string{k.ID, k.SpaceVersion, k.GoVersion, k.ModuleVersion}
	if k.Prefixes != "" {
		parts = append(parts, k.Prefixes)
	}
	if k.Params != "" {
		parts = append(parts, "params", k.Params)
	}
	for _, part := range parts {
		// Length-prefix each part so ("a", "bc") and ("ab", "c")
		// cannot collide.
		fmt.Fprintf(h, "%d:%s", len(part), part)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// envelope is the on-disk entry format: the key it was stored under,
// a checksum of the payload, and the payload itself — the one-element
// EncodeJSON array of a whole result, or the ShardEnvelope of one
// slice's aggregate.
type envelope struct {
	Schema  int             `json:"schema"`
	Key     ArtifactKey     `json:"key"`
	SHA256  string          `json:"sha256"`
	Payload json.RawMessage `json:"payload"`
}

// Store is an on-disk artifact cache with an in-memory tier of the
// artifacts it has verified. It is safe for concurrent use by multiple
// goroutines; concurrent processes sharing a directory are safe too
// (atomic renames), though their evictions race benignly.
type Store struct {
	dir      string
	maxBytes int64
	// key is the per-artifact template (ID, Params, Prefixes, and
	// SpaceVersion filled per artifact by keyFor).
	key          ArtifactKey
	spaceVersion func(id string) string

	mu    sync.Mutex
	stats Stats
	// mem is the memory tier: every artifact a read has verified from
	// disk, at most memEntries of them.
	mem map[ArtifactKey]*verified
	// gen advances whenever a key leaves the tier, so a disk read that
	// raced the write, rejection or eviction that dropped it cannot put
	// back what it read before (remember).
	gen uint64
}

// verified is one artifact that passed every check on its way from
// disk: the decoded value a repeat read serves. result is set for a
// whole-result key, slice for a slice key, each with its body store
// attached.
type verified struct {
	path   string // the entry's file, so an eviction can drop it
	result experiments.Result
	slice  experiments.ShardEnvelope
}

var _ experiments.Cache = (*Store)(nil)

// Open creates dir if needed and returns a store over it.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("cache: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = DefaultMaxBytes
	}
	if opts.SpaceVersion == nil {
		opts.SpaceVersion = experiments.SpaceVersion
	}
	if opts.GoVersion == "" {
		opts.GoVersion = runtime.Version()
	}
	if opts.ModuleVersion == "" {
		opts.ModuleVersion = buildModuleVersion()
	}
	sweepStaleTemps(dir)
	return &Store{
		dir:          dir,
		maxBytes:     opts.MaxBytes,
		spaceVersion: opts.SpaceVersion,
		mem:          make(map[ArtifactKey]*verified),
		key: ArtifactKey{
			GoVersion:     opts.GoVersion,
			ModuleVersion: opts.ModuleVersion,
		},
	}, nil
}

// buildModuleVersion identifies the main module of this binary.
func buildModuleVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Path != "" {
		return bi.Main.Path + "@" + bi.Main.Version
	}
	return "unknown"
}

// keyFor returns the full artifact key for one experiment id,
// parameter point ("" = the fixed point), and prefix set ("" = the
// whole result), resolving the id's space version through the store's
// per-experiment resolver.
func (s *Store) keyFor(id, params, prefixes string) ArtifactKey {
	k := s.key
	k.ID = id
	k.Params = params
	k.Prefixes = prefixes
	k.SpaceVersion = s.spaceVersion(id)
	return k
}

func (s *Store) path(k ArtifactKey) string {
	return filepath.Join(s.dir, k.Fingerprint()+".json")
}

// recall serves k from the memory tier, counting the hit by kind, or
// returns nil together with the tier's generation for remember.
func (s *Store) recall(k ArtifactKey) (*verified, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.mem[k]
	if v != nil {
		if k.Prefixes == "" {
			s.stats.Hits++
		} else {
			s.stats.SliceHits++
		}
	}
	return v, s.gen
}

// remember keeps an artifact that a read just verified from disk. It
// keeps nothing when a key has left the tier since recall returned gen:
// the read may have raced that change, and what it read may be older
// than the file now on disk.
func (s *Store) remember(k ArtifactKey, gen uint64, v *verified) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gen != gen {
		return
	}
	if _, ok := s.mem[k]; !ok && len(s.mem) >= memEntries {
		for old := range s.mem {
			delete(s.mem, old)
			break
		}
	}
	s.mem[k] = v
}

// forget drops k from the memory tier, so the next read of k goes to
// disk.
func (s *Store) forget(k ArtifactKey) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.mem, k)
	s.gen++
}

// readEntry loads and validates the envelope stored at path under k,
// returning its payload. A missing file is a plain miss (ok false,
// corrupt false); an entry failing any envelope check — schema,
// recorded key, checksum — is deleted and reported corrupt. Payload-
// level decoding belongs to the caller (the two artifact kinds decode
// differently); rejectEntry is its counterpart for payloads that fail
// there.
func (s *Store) readEntry(k ArtifactKey, path string) (payload []byte, ok, corrupt bool) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, false, false
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		s.rejectEntry(k, path)
		return nil, false, true
	}
	if env.Schema != schemaVersion || env.Key != k {
		s.rejectEntry(k, path)
		return nil, false, true
	}
	sum := sha256.Sum256(env.Payload)
	if hex.EncodeToString(sum[:]) != env.SHA256 {
		s.rejectEntry(k, path)
		return nil, false, true
	}
	// Refresh the entry's recency for LRU eviction; best-effort.
	now := time.Now()
	os.Chtimes(path, now, now)
	return env.Payload, true, false
}

// rejectEntry removes an untrustworthy entry so the artifact silently
// recomputes instead of failing the same way on every lookup.
func (s *Store) rejectEntry(k ArtifactKey, path string) {
	s.forget(k)
	os.Remove(path)
}

// Get returns the stored whole result at an experiment's default
// point: GetParam(id, "").
func (s *Store) Get(id string) (experiments.Result, bool) {
	return s.GetParam(id, "")
}

// GetParam implements experiments.Cache: it returns the stored whole
// result of one experiment at one canonical parameter point ("" is the
// default point, so a spelled-out default request and a plain one
// share one entry). Untrustworthy entries — wrong schema, mismatched
// key, bad checksum, undecodable payload, or a stored failure — are
// deleted and reported as corrupt misses.
func (s *Store) GetParam(id, params string) (experiments.Result, bool) {
	k := s.keyFor(id, params, "")
	v, gen := s.recall(k)
	if v != nil {
		return v.result, true
	}
	path := s.path(k)
	payload, ok, corrupt := s.readEntry(k, path)
	if ok {
		res, err := decodeResult(payload, id)
		if err == nil {
			res = experiments.WithBodies(res)
			s.remember(k, gen, &verified{path: path, result: res})
			s.count(func(st *Stats) { st.Hits++ })
			return res, true
		}
		s.rejectEntry(k, path)
		corrupt = true
	}
	s.count(func(st *Stats) {
		st.Misses++
		if corrupt {
			st.Corrupt++
		}
	})
	return experiments.Result{}, false
}

// decodeResult parses a whole-result payload and vets that it is a
// successful result for the expected experiment.
func decodeResult(payload []byte, id string) (experiments.Result, error) {
	results, err := experiments.DecodeJSON(bytes.NewReader(payload))
	if err != nil {
		return experiments.Result{}, err
	}
	if len(results) != 1 {
		return experiments.Result{}, fmt.Errorf("cache: entry holds %d results, want 1", len(results))
	}
	r := results[0]
	if r.ID != id || r.Err != nil || r.Table == nil {
		return experiments.Result{}, fmt.Errorf("cache: entry is not a successful %s result", id)
	}
	return r, nil
}

// GetSlice implements experiments.Cache: it returns the stored
// shard envelope for one slice of one experiment's exploration space
// at one parameter point ("" = the fixed point). The same trust rules
// as GetParam apply — an entry whose payload is not a shard envelope for
// exactly this id, parameter point, prefix set, and space generation
// is deleted and reported as a corrupt miss, so a corrupt slice
// re-explores one range, never the whole space. The envelope carries
// the body store attached on the read that filled the memory tier
// (experiments.WithShardBody), so experiments.ShardBody checks its
// aggregate and encodes it once for every later read in this process.
func (s *Store) GetSlice(id, params, prefixes string) (experiments.ShardEnvelope, bool) {
	if prefixes == "" {
		// The whole space is a whole result; there is no empty slice.
		s.count(func(st *Stats) { st.SliceMisses++ })
		return experiments.ShardEnvelope{}, false
	}
	k := s.keyFor(id, params, prefixes)
	v, gen := s.recall(k)
	if v != nil {
		return v.slice, true
	}
	path := s.path(k)
	payload, ok, corrupt := s.readEntry(k, path)
	if ok {
		env, err := experiments.DecodeShard(bytes.NewReader(payload))
		if err == nil && env.ID == id && env.Prefixes == prefixes &&
			env.Params == params && env.SpaceVersion == k.SpaceVersion {
			env = experiments.WithShardBody(env)
			s.remember(k, gen, &verified{path: path, slice: env})
			s.count(func(st *Stats) { st.SliceHits++ })
			return env, true
		}
		s.rejectEntry(k, path)
		corrupt = true
	}
	s.count(func(st *Stats) {
		st.SliceMisses++
		if corrupt {
			st.Corrupt++
		}
	})
	return experiments.ShardEnvelope{}, false
}

// Put stores a successful whole result at an experiment's default
// point: PutParam(id, "", r).
func (s *Store) Put(id string, r experiments.Result) error {
	return s.PutParam(id, "", r)
}

// PutParam implements experiments.Cache: it stores one point's
// successful whole result atomically (temp file + rename) and then
// enforces the size cap.
func (s *Store) PutParam(id, params string, r experiments.Result) error {
	if r.Err != nil || r.Table == nil {
		return fmt.Errorf("cache: refusing to store failed result %s", id)
	}
	r.ID = id
	var encoded bytes.Buffer
	if err := experiments.EncodeJSON(&encoded, []experiments.Result{r}); err != nil {
		return err
	}
	return s.write(s.keyFor(id, params, ""), encoded.Bytes())
}

// PutSlice implements experiments.Cache: it stores one slice's
// shard envelope under the artifact key derived from its id,
// parameter point, and prefix set. An envelope from a different space
// generation is refused — its numbers describe a different space, and
// storing it under this store's key would serve them as this
// generation's.
func (s *Store) PutSlice(env experiments.ShardEnvelope) error {
	if env.ID == "" || env.Prefixes == "" || len(env.Aggregate) == 0 {
		return fmt.Errorf("cache: refusing to store incomplete slice envelope %+v", env)
	}
	if want := s.spaceVersion(env.ID); env.SpaceVersion != want {
		return fmt.Errorf("cache: slice envelope space %s, store %s", env.SpaceVersion, want)
	}
	payload, err := json.Marshal(env)
	if err != nil {
		return err
	}
	if err := s.write(s.keyFor(env.ID, env.Params, env.Prefixes), payload); err != nil {
		return err
	}
	s.count(func(st *Stats) { st.SliceStores++ })
	return nil
}

// write stores one artifact payload under its key — the single code
// path both artifact kinds share: compact, checksum, envelope, atomic
// write, drop the key from the memory tier, evict. The key is dropped
// after the rename, so no read can refill the tier with the bytes the
// write replaced.
func (s *Store) write(k ArtifactKey, encoded []byte) error {
	// Compact before checksumming: json.Marshal compacts RawMessage
	// fields when writing the envelope, and the checksum must cover
	// the payload bytes as they appear on disk.
	var payload bytes.Buffer
	if err := json.Compact(&payload, encoded); err != nil {
		return err
	}
	sum := sha256.Sum256(payload.Bytes())
	raw, err := json.Marshal(envelope{
		Schema:  schemaVersion,
		Key:     k,
		SHA256:  hex.EncodeToString(sum[:]),
		Payload: payload.Bytes(),
	})
	if err != nil {
		return err
	}
	if err := writeAtomic(s.dir, s.path(k), raw); err != nil {
		return err
	}
	s.forget(k)
	return s.evict()
}

// writeAtomic writes data to path via a temp file in dir and a rename,
// so readers only ever observe complete entries.
func writeAtomic(dir, path string, data []byte) error {
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("cache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	return nil
}

// tempMaxAge is how old a .tmp-* file must be before it is presumed
// orphaned (a writer died between CreateTemp and Rename) and swept.
// Live writers hold their temp file for milliseconds, so an hour is
// safely conservative even across processes sharing the directory.
const tempMaxAge = time.Hour

// sweepStaleTemps removes orphaned temp files so crashed writes
// cannot grow the directory past the byte cap forever. Called on
// Open; eviction passes do the same check inline on their single
// directory scan. Best-effort.
func sweepStaleTemps(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	cutoff := time.Now().Add(-tempMaxAge)
	for _, de := range entries {
		removeIfStaleTemp(dir, de, cutoff)
	}
}

// removeIfStaleTemp deletes de when it is a temp file older than
// cutoff, reporting whether de was a temp file (stale or not).
func removeIfStaleTemp(dir string, de os.DirEntry, cutoff time.Time) bool {
	if de.IsDir() || !strings.HasPrefix(de.Name(), ".tmp-") {
		return false
	}
	if info, err := de.Info(); err == nil && info.ModTime().Before(cutoff) {
		os.Remove(filepath.Join(dir, de.Name()))
	}
	return true
}

// evict removes least-recently-used entries until the store fits the
// byte cap, sweeping stale temp files on the same directory scan.
// A Get or GetSlice that reads an entry from disk refreshes its mtime,
// so mtime order is the order in which processes last loaded entries
// (repeat hits from a Store's memory tier touch nothing on disk);
// whole results and slice aggregates share the one cap and the one
// recency order — a run that only ever touches slices ages whole
// entries out, and vice versa.
func (s *Store) evict() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	type entry struct {
		path  string
		size  int64
		mtime time.Time
	}
	var (
		files  []entry
		total  int64
		cutoff = time.Now().Add(-tempMaxAge)
	)
	for _, de := range entries {
		if removeIfStaleTemp(s.dir, de, cutoff) {
			continue
		}
		if de.IsDir() || filepath.Ext(de.Name()) != ".json" {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue // raced with another evictor
		}
		files = append(files, entry{filepath.Join(s.dir, de.Name()), info.Size(), info.ModTime()})
		total += info.Size()
	}
	if total <= s.maxBytes {
		return nil
	}
	sort.Slice(files, func(a, b int) bool { return files[a].mtime.Before(files[b].mtime) })
	var removed []string
	for _, f := range files {
		if total <= s.maxBytes {
			break
		}
		if os.Remove(f.path) == nil {
			total -= f.size
			removed = append(removed, f.path)
		}
	}
	s.dropEvicted(removed)
	return nil
}

// dropEvicted counts the evicted files and drops their artifacts from
// the memory tier, so the tier never serves what the disk cap removed.
func (s *Store) dropEvicted(paths []string) {
	if len(paths) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Evicted += int64(len(paths))
	for k, v := range s.mem {
		if slices.Contains(paths, v.path) {
			delete(s.mem, k)
		}
	}
	s.gen++
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

func (s *Store) count(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}
