package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// TestE2ShardedMergeByteIdentical is the seam's core guarantee at the
// experiments layer: exploring E2's partition in slices and merging
// the aggregates renders exactly the table the whole-space runner
// produces — same struct, same encoded bytes.
func TestE2ShardedMergeByteIdentical(t *testing.T) {
	sh := Shardables()["E2"]
	whole, err := Figure2Executions()
	if err != nil {
		t.Fatal(err)
	}

	roots, err := sh.Roots()
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) < 4 {
		t.Fatalf("E2 partition has %d roots, want enough to shard", len(roots))
	}
	// Carve the partition into three uneven ranges — the shape a
	// coordinator hands to an unevenly-loaded fleet.
	cuts := []int{len(roots) / 3, len(roots) / 2}
	ranges := [][][]int{roots[:cuts[0]], roots[cuts[0]:cuts[1]], roots[cuts[1]:]}
	var merged Aggregate
	for _, rng := range ranges {
		agg, err := sh.Explore(rng)
		if err != nil {
			t.Fatal(err)
		}
		if merged == nil {
			merged = agg
			continue
		}
		if err := merged.Merge(agg); err != nil {
			t.Fatal(err)
		}
	}
	tab, err := sh.Finish(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tab, whole) {
		t.Fatalf("sharded merge differs from whole run:\n%s\nvs\n%s", tab.Format(), whole.Format())
	}

	// And through the wire form: encode each slice, decode, merge.
	var wireMerged Aggregate
	for _, rng := range ranges {
		agg, err := sh.Explore(rng)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := EncodeShard(&buf, "E2", "", rng, agg); err != nil {
			t.Fatal(err)
		}
		env, err := DecodeShard(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if env.ID != "E2" || env.SpaceVersion != RegistryVersion {
			t.Fatalf("envelope = %+v", env)
		}
		decoded, err := sh.Decode(env.Aggregate)
		if err != nil {
			t.Fatal(err)
		}
		if wireMerged == nil {
			wireMerged = decoded
			continue
		}
		if err := wireMerged.Merge(decoded); err != nil {
			t.Fatal(err)
		}
	}
	wireTab, err := sh.Finish(wireMerged)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wireTab, whole) {
		t.Fatalf("wire-form merge differs from whole run:\n%s\nvs\n%s", wireTab.Format(), whole.Format())
	}
}

// TestPrefixCodecRoundTrip pins the ?prefixes= wire syntax.
func TestPrefixCodecRoundTrip(t *testing.T) {
	for _, roots := range [][][]int{
		{{}},
		{{0}, {1}},
		{{0, 1, 0}, {0, 2}, {1}},
		{{12, 3}, {0, 0, 0, 7}},
	} {
		s := FormatPrefixes(roots)
		got, err := ParsePrefixes(s)
		if err != nil {
			t.Fatalf("ParsePrefixes(%q): %v", s, err)
		}
		if len(got) != len(roots) {
			t.Fatalf("round trip of %v via %q = %v", roots, s, got)
		}
		for i := range roots {
			if len(got[i]) != len(roots[i]) {
				t.Fatalf("round trip of %v via %q = %v", roots, s, got)
			}
			for j := range roots[i] {
				if got[i][j] != roots[i][j] {
					t.Fatalf("round trip of %v via %q = %v", roots, s, got)
				}
			}
		}
	}
	if FormatPrefixes([][]int{{}}) != "-" {
		t.Fatalf("empty root spells %q, want -", FormatPrefixes([][]int{{}}))
	}
	// Overlapping roots double-count subtrees: duplicates, one root a
	// prefix of another, and the everything-prefix empty root.
	for _, bad := range []string{"", ",", "0..1", "a", "0.-1", "-1", "0,", "1.x",
		"-,-", "0,0", "0,0.1", "1.2,1.2.3", "-,0"} {
		if _, err := ParsePrefixes(bad); err == nil {
			t.Errorf("ParsePrefixes(%q) accepted", bad)
		}
	}
}

// TestDecodeShardRejectsGarbage: a shard envelope must carry an id and
// an aggregate, and non-JSON is an error, never a panic.
func TestDecodeShardRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"", "{", `{"id":"E2"}`, `{"aggregate":{"execs":1}}`, "null"} {
		if _, err := DecodeShard(bytes.NewReader([]byte(bad))); err == nil {
			t.Errorf("DecodeShard(%q) accepted", bad)
		}
	}
}

// TestE2DecodeRejectsCorruptAggregates: a 200 response whose payload
// violates the merge invariants (unsorted or duplicated seen set,
// negative counters) must be rejected, not folded into the table.
func TestE2DecodeRejectsCorruptAggregates(t *testing.T) {
	sh := Shardables()["E2"]
	if _, err := sh.Decode([]byte(`{"execs":2,"seen":[0,9],"worst_num":1,"max_steps":11}`)); err != nil {
		t.Fatalf("valid aggregate rejected: %v", err)
	}
	for _, bad := range []string{
		`{"seen":[9,0]}`,
		`{"seen":[3,3]}`,
		`{"execs":-1,"seen":[]}`,
		`{"max_steps":-2,"seen":[]}`,
		`not json`,
	} {
		if _, err := sh.Decode([]byte(bad)); err == nil {
			t.Errorf("Decode(%s) accepted", bad)
		}
	}
}

// TestShardablesForRestricts: only the real registry's E2 and E15
// carry shardable seams, and a registry override's entries shard only
// when they declare it — an override's "E2" is not the real E2, so a
// fixed description of it inherits no seam that runs the real code.
func TestShardablesForRestricts(t *testing.T) {
	shs := Shardables()
	if _, ok := shs["E2"]; !ok || len(shs) != 2 {
		t.Fatalf("default shardables = %d entries, want E2 and E15", len(shs))
	}
	for _, e := range []Experiment{Fixed("E1", nil), Fixed("E2", nil)} {
		if _, ok := e.ShardableAt(ParamSet{}); ok {
			t.Fatalf("registry override %s inherited a shardable seam", e.ID)
		}
	}
}

// TestAlg1SweepAggMergeGrouping: merging is associative and
// commutative over a partition — any grouping folds identically.
func TestAlg1SweepAggMergeGrouping(t *testing.T) {
	a := &alg1SweepAgg{Execs: 2, Seen: []int{0, 3}, WorstNum: 1, MaxSteps: 5}
	b := &alg1SweepAgg{Execs: 3, Seen: []int{1, 3, 9}, WorstNum: 0, MaxSteps: 7}
	c := &alg1SweepAgg{Execs: 1, Seen: []int{0, 9}, WorstNum: 2, MaxSteps: 2}

	clone := func(x *alg1SweepAgg) *alg1SweepAgg {
		cp := *x
		cp.Seen = append([]int(nil), x.Seen...)
		return &cp
	}
	fold := func(xs ...*alg1SweepAgg) *alg1SweepAgg {
		out := clone(xs[0])
		for _, x := range xs[1:] {
			if err := out.Merge(clone(x)); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	want := fold(a, b, c)
	for _, got := range []*alg1SweepAgg{fold(c, b, a), fold(b, a, c), fold(fold(a, b), c), fold(a, fold(b, c))} {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("merge grouping differs: %+v vs %+v", got, want)
		}
	}
	if want.Execs != 6 || !reflect.DeepEqual(want.Seen, []int{0, 1, 3, 9}) || want.WorstNum != 2 || want.MaxSteps != 7 {
		t.Fatalf("merged = %+v", want)
	}
	if err := a.Merge(nil); err == nil {
		t.Fatal("merging a nil aggregate accepted")
	}
}

// TestE15ShardedMergeByteIdentical: the second real shardable
// workload (the exhaustive Algorithm 2 validation sweep) renders the
// same table whether explored whole or merged from wire-form slices.
func TestE15ShardedMergeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive exploration")
	}
	sh := Shardables()["E15"]
	whole, err := Theorem12Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	roots, err := sh.Roots()
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) < 4 {
		t.Fatalf("E15 partition has %d roots, want enough to shard", len(roots))
	}
	cut := len(roots) / 3
	var merged Aggregate
	for _, rng := range [][][]int{roots[:cut], roots[cut:]} {
		agg, err := sh.Explore(rng)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := EncodeShard(&buf, "E15", "", rng, agg); err != nil {
			t.Fatal(err)
		}
		env, err := DecodeShard(&buf)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := sh.Decode(env.Aggregate)
		if err != nil {
			t.Fatal(err)
		}
		if merged == nil {
			merged = decoded
			continue
		}
		if err := merged.Merge(decoded); err != nil {
			t.Fatal(err)
		}
	}
	tab, err := sh.Finish(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tab, whole) {
		t.Fatalf("sharded merge differs from whole run:\n%s\nvs\n%s", tab.Format(), whole.Format())
	}
}

// TestAlg2SweepAggMerge: E15's aggregate folds identically under any
// grouping, and its Decode rejects counts that would corrupt the
// merged total.
func TestAlg2SweepAggMerge(t *testing.T) {
	a := &alg2SweepAgg{Execs: 2}
	if err := a.Merge(&alg2SweepAgg{Execs: 5}); err != nil {
		t.Fatal(err)
	}
	if a.Execs != 7 {
		t.Fatalf("merged execs = %d", a.Execs)
	}
	if err := a.Merge(&alg1SweepAgg{}); err == nil {
		t.Fatal("cross-type merge accepted")
	}
	sh := Shardables()["E15"]
	if _, err := sh.Decode([]byte(`{"execs":3}`)); err != nil {
		t.Fatalf("valid aggregate rejected: %v", err)
	}
	for _, bad := range []string{`{"execs":-1}`, `not json`} {
		if _, err := sh.Decode([]byte(bad)); err == nil {
			t.Errorf("Decode(%s) accepted", bad)
		}
	}
}

// TestShardEnvelopeCachedReencodeByteIdentical pins the invariant the
// slice cache rests on: an envelope that round-trips through a
// compact store form re-encodes to exactly the bytes of a fresh
// EncodeShard.
func TestShardEnvelopeCachedReencodeByteIdentical(t *testing.T) {
	roots := [][]int{{0, 1}, {1}}
	agg := &alg1SweepAgg{Execs: 4, Seen: []int{0, 9}, WorstNum: 1, MaxSteps: 11}
	var fresh bytes.Buffer
	if err := EncodeShard(&fresh, "E2", "", roots, agg); err != nil {
		t.Fatal(err)
	}
	env, err := NewShardEnvelope("E2", "", roots, agg)
	if err != nil {
		t.Fatal(err)
	}
	// The store keeps the envelope compact (json.Marshal) and decodes
	// it back before serving — simulate that round trip.
	compact, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := DecodeShard(bytes.NewReader(compact))
	if err != nil {
		t.Fatal(err)
	}
	var served bytes.Buffer
	if err := EncodeShardEnvelope(&served, stored); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served.Bytes(), fresh.Bytes()) {
		t.Fatalf("cached re-encode differs:\n%q\nvs\n%q", served.Bytes(), fresh.Bytes())
	}
}
