package experiments

import (
	"context"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sched"
)

// withBumps replaces the link-time bump table for one test. The Once
// is forced first so familyVersion never re-parses over the override.
func withBumps(t *testing.T, m map[string]string) {
	t.Helper()
	bumpOnce.Do(func() { bumps = parseBumps(spaceVersionBump) })
	old := bumps
	bumps = m
	t.Cleanup(func() { bumps = old })
}

func TestParseBumps(t *testing.T) {
	got := parseBumps("E2=v2, E15=v3")
	want := map[string]string{"E2": "v2", "E15": "v3"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseBumps = %v, want %v", got, want)
	}
	// Malformed entries degrade to "no bump", never to a crash: a bad
	// ldflags value must not take down every binary built with it.
	for _, s := range []string{"", ",", "=v2", "E2=", "garbage", "E2"} {
		if m := parseBumps(s); len(m) != 0 {
			t.Errorf("parseBumps(%q) = %v, want empty", s, m)
		}
	}
}

// TestSpaceVersionByteCompat pins the tentpole's warm-store contract:
// an experiment without a declared code version keys exactly as the
// registry-wide scheme did, so every pre-existing fingerprint in every
// store stays valid.
func TestSpaceVersionByteCompat(t *testing.T) {
	withBumps(t, map[string]string{})
	for _, id := range IDs() {
		if got := SpaceVersion(id); got != RegistryVersion {
			t.Errorf("SpaceVersion(%q) = %q, want the pinned registry version %q", id, got, RegistryVersion)
		}
	}
}

// TestSpaceVersionBumpIsSurgical: bumping one family moves only that
// family's space — the cold-start blast radius the issue closes.
func TestSpaceVersionBumpIsSurgical(t *testing.T) {
	withBumps(t, map[string]string{"E2": "v2"})
	if got, want := SpaceVersion("E2"), RegistryVersion+"+E2/v2"; got != want {
		t.Fatalf("bumped SpaceVersion(E2) = %q, want %q", got, want)
	}
	for _, id := range []string{"E1", "E7", "E15"} {
		if got := SpaceVersion(id); got != RegistryVersion {
			t.Errorf("SpaceVersion(%q) moved to %q under an E2-only bump", id, got)
		}
	}
}

// TestSpaceVersionBumpBeatsFamilyVersion: the link-time bump must win
// over a registered Family.Version, or the cache-surgery gate could
// not simulate a deploy.
func TestSpaceVersionBumpBeatsFamilyVersion(t *testing.T) {
	withBumps(t, map[string]string{"E15": "surgery"})
	if got, want := SpaceVersion("E15"), RegistryVersion+"+E15/surgery"; got != want {
		t.Fatalf("SpaceVersion(E15) = %q, want %q", got, want)
	}
}

func TestFamiliesForOptIn(t *testing.T) {
	if got := FamiliesFor(nil); len(got) != 2 {
		t.Fatalf("real registry families = %d, want E2 and E15", len(got))
	}
	synthetic := map[string]Runner{"E2": Registry()["E2"]}
	if got := FamiliesFor(synthetic); len(got) != 0 {
		t.Fatalf("test registry inherited %d families; overrides must opt in", len(got))
	}
}

func TestParseParamsValidation(t *testing.T) {
	e2 := Families()["E2"]
	e15 := Families()["E15"]
	cases := []struct {
		name    string
		fam     Family
		query   string
		wantErr string
	}{
		{"unknown param", e2, "q=1", `unknown parameter "q"`},
		{"repeated param", e2, "k=2&k=3", `parameter "k" given 2 times`},
		{"not an integer", e2, "k=2.5", `parameter "k"`},
		{"below min", e2, "k=0", `parameter "k"`},
		{"above max", e2, "k=7", `parameter "k"`},
		{"bad int input", e2, "i0=x", `parameter "i0"`},
		{"cross check", e15, "c=2&i1=2", `parameter "i1"`},
		// The choice task's inputs are {0,1}² at every size, so the c=3
		// points the ranges admit beyond them are rejected up front.
		{"c=3 input i1=2", e15, "c=3&i0=0&i1=2", `parameter "i1"`},
		{"c=3 input (1,2)", e15, "c=3&i0=1&i1=2", `parameter "i1"`},
		{"c=3 input i0=2", e15, "c=3&i0=2&i1=0", `parameter "i0"`},
		{"c=3 input (2,1)", e15, "c=3&i0=2&i1=1", `parameter "i0"`},
		{"c=3 input (2,2)", e15, "c=3&i0=2&i1=2", `parameter "i0"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q, err := url.ParseQuery(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ParseParams(tc.fam, q); err == nil {
				t.Fatalf("ParseParams(%q) succeeded, want error mentioning %q", tc.query, tc.wantErr)
			} else if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("ParseParams(%q) error %q does not name the field (%q)", tc.query, err, tc.wantErr)
			}
		})
	}
}

// TestParamSetOrderInvariance: ?k=7&i0=0 and ?i0=0&k=7 are one point —
// one canonical string, hence one cache entry and one singleflight key.
func TestParamSetOrderInvariance(t *testing.T) {
	fam := Families()["E2"]
	a, err := ParseParams(fam, url.Values{"k": {"3"}, "i0": {"1"}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseParams(fam, url.Values{"i0": {"1"}, "k": {"3"}})
	if err != nil {
		t.Fatal(err)
	}
	if a.Canonical() != b.Canonical() || a.Canonical() == "" {
		t.Fatalf("order changed identity: %q vs %q", a.Canonical(), b.Canonical())
	}
	if want := "i0=1,i1=1,k=3"; a.Canonical() != want {
		t.Fatalf("canonical = %q, want sorted defaults-filled %q", a.Canonical(), want)
	}
}

// TestDefaultPointAliasesFixed: spelling out a family's defaults must
// canonicalize to "", the identity of the fixed registry experiment —
// so both spellings share a cache entry.
func TestDefaultPointAliasesFixed(t *testing.T) {
	for id, fam := range Families() {
		q := url.Values{}
		for _, spec := range fam.Params {
			q.Set(spec.Name, spec.Default)
		}
		ps, err := ParseParams(fam, q)
		if err != nil {
			t.Fatalf("%s defaults: %v", id, err)
		}
		if ps.Canonical() != "" {
			t.Errorf("%s spelled-out defaults canonicalize to %q, want \"\"", id, ps.Canonical())
		}
		dp, err := DefaultParams(fam)
		if err != nil {
			t.Fatalf("%s DefaultParams: %v", id, err)
		}
		if dp.Canonical() != "" || dp.Query() == "" {
			t.Errorf("%s DefaultParams: canonical %q query %q", id, dp.Canonical(), dp.Query())
		}
	}
}

func TestParamSetQueryRoundTrip(t *testing.T) {
	fam := Families()["E15"]
	ps, err := ParseParamList(fam, "c=3,i0=1")
	if err != nil {
		t.Fatal(err)
	}
	q, err := url.ParseQuery(ps.Query())
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParseParams(fam, q)
	if err != nil {
		t.Fatal(err)
	}
	if again.Canonical() != ps.Canonical() {
		t.Fatalf("Query round trip moved the point: %q vs %q", again.Canonical(), ps.Canonical())
	}
	if got, want := ps.Canonical(), "c=3,i0=1,i1=1"; got != want {
		t.Fatalf("canonical = %q, want %q", got, want)
	}
}

func TestParseParamListErrors(t *testing.T) {
	fam := Families()["E2"]
	for _, s := range []string{"k", "=3", "k=9", "zz=1", "k=1,k=2"} {
		if _, err := ParseParamList(fam, s); err == nil {
			t.Errorf("ParseParamList(%q) succeeded, want error", s)
		}
	}
}

// TestE2FamilyDifferentialDefaultPoint is the differential pin: the
// parameterized family evaluated at its default point must reproduce
// the fixed registry table byte-for-byte (same rendering path, same
// bytes — the alias is real, not approximate).
func TestE2FamilyDifferentialDefaultPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive k=4 sweep in -short mode")
	}
	fam := Families()["E2"]
	ps, err := DefaultParams(fam)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := fam.Run(ps)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Figure2Executions()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("family default point differs from fixed E2:\n%s\nvs\n%s", got.Format(), want.Format())
	}
}

func TestE15FamilyDifferentialDefaultPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive Algorithm 2 sweep in -short mode")
	}
	fam := Families()["E15"]
	ps, err := DefaultParams(fam)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := fam.Run(ps)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Theorem12Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("family default point differs from fixed E15:\n%s\nvs\n%s", got.Format(), want.Format())
	}
}

// TestRunParamNonDefaultPoint exercises the off-default surface the
// fixed registry never reached: a cheap k=1 sweep through RunParam
// with a caching store, warm on the second call.
func TestRunParamNonDefaultPoint(t *testing.T) {
	fam := Families()["E2"]
	ps, err := ParseParamList(fam, "k=1")
	if err != nil {
		t.Fatal(err)
	}
	c := newMapParamCache()
	res := RunParam(context.Background(), fam, ps, Options{Cache: c})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Cached {
		t.Fatal("first evaluation reported cached")
	}
	if res.Memo.Executions == 0 || res.Memo.Replays == 0 {
		t.Fatalf("first evaluation carries no exploration counters: %+v", res.Memo)
	}
	again := RunParam(context.Background(), fam, ps, Options{Cache: c})
	if again.Err != nil || !again.Cached {
		t.Fatalf("second evaluation: cached=%v err=%v", again.Cached, again.Err)
	}
	if again.Memo != (sched.MemoStats{}) {
		t.Fatalf("cache hit carries exploration counters: %+v", again.Memo)
	}
	if !reflect.DeepEqual(res.Table, again.Table) {
		t.Fatal("cached table differs from computed table")
	}
}

// mapParamCache is an in-memory ParamCache for engine tests.
type mapParamCache struct {
	whole map[string]Result
	param map[string]Result
}

func newMapParamCache() *mapParamCache {
	return &mapParamCache{whole: map[string]Result{}, param: map[string]Result{}}
}

func (c *mapParamCache) Get(id string) (Result, bool)  { r, ok := c.whole[id]; return r, ok }
func (c *mapParamCache) Put(id string, r Result) error { c.whole[id] = r; return nil }
func (c *mapParamCache) GetParam(id, params string) (Result, bool) {
	if params == "" {
		return c.Get(id)
	}
	r, ok := c.param[id+"?"+params]
	return r, ok
}
func (c *mapParamCache) PutParam(id, params string, r Result) error {
	if params == "" {
		c.Put(id, r)
		return nil
	}
	c.param[id+"?"+params] = r
	return nil
}

// TestRunParamDefaultPointSharesFixedEntry: at the default point
// RunParam reads and writes the fixed experiment's cache slot, so a
// parameterized request warms (and is warmed by) plain runs.
func TestRunParamDefaultPointSharesFixedEntry(t *testing.T) {
	fam := Families()["E2"]
	ps, err := DefaultParams(fam)
	if err != nil {
		t.Fatal(err)
	}
	c := newMapParamCache()
	seeded := Result{ID: "E2", Table: &Table{ID: "E2", Title: "seeded"}}
	c.Put("E2", seeded)
	res := RunParam(context.Background(), fam, ps, Options{Cache: c})
	if res.Err != nil || !res.Cached || res.Table.Title != "seeded" {
		t.Fatalf("default point missed the fixed entry: cached=%v table=%+v err=%v", res.Cached, res.Table, res.Err)
	}
}
