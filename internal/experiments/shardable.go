package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/agreement"
	"repro/internal/sched"
)

// This file is the partial-run seam: the contract that lets one
// experiment's exhaustive exploration be split across machines. A
// prefix-shardable experiment decomposes into an order-insensitive
// Aggregate computed over any subset of its schedule-prefix partition
// (sched.PartitionRoots); aggregates merge associatively and
// commutatively, and Finish renders the merged aggregate into exactly
// the table the whole-space Run produces — so a sharded run
// re-encodes byte-identically to a local one, the invariant
// internal/shard's differential tests and CI pin.

// Aggregate is an order-insensitive partial result of a shardable
// experiment. Implementations are JSON-marshalable (the wire form the
// ?prefixes= protocol carries) and must merge so that any grouping of
// a partition's slices folds to the same value.
type Aggregate interface {
	// Merge folds another slice's aggregate (same concrete type) into
	// the receiver.
	Merge(other Aggregate) error
}

// Shardable describes one prefix-shardable experiment: how to carve
// its exploration space, explore a slice of it, move an aggregate over
// the wire, and render the merged whole.
type Shardable struct {
	// Roots enumerates the partition of the experiment's exploration
	// space at its preferred cut depth, in deterministic order. It must
	// be deterministic per point and do no I/O: internal/shard's
	// coordinator relies on that to call it once per point and hand the
	// same roots to every later request. The roots it hands out are
	// shared and read-only — callers may sub-slice and read them, never
	// write them.
	Roots func() ([][]int, error)
	// Explore computes the aggregate over the subtrees under roots —
	// the whole experiment when roots is the full partition (or the
	// single empty prefix).
	Explore func(roots [][]int) (Aggregate, error)
	// Decode parses an aggregate from its JSON wire form.
	Decode func(data []byte) (Aggregate, error)
	// Finish renders the table from a fully-merged aggregate. It must
	// equal the whole-space Run's table when the aggregate covers
	// the full partition.
	Finish func(agg Aggregate) (*Table, error)
}

// Shardables returns the prefix-shardable experiments' partial-run
// seams at each one's default point: a view of the registry's
// Shardable entries, for callers that carve the fixed tables directly
// (the layer benchmarks, tests). The serving layers resolve
// Experiment.ShardableAt per request instead, at the requested point.
func Shardables() map[string]Shardable {
	out := make(map[string]Shardable)
	for id, e := range registry {
		if sh, ok := e.ShardableAt(ParamSet{}); ok {
			out[id] = sh
		}
	}
	return out
}

// FormatPrefixes renders a root set as the ?prefixes= parameter value:
// pids dot-separated within a root, roots comma-separated, the empty
// root (the whole tree) spelled "-". The inverse of ParsePrefixes.
func FormatPrefixes(roots [][]int) string {
	parts := make([]string, len(roots))
	for i, root := range roots {
		if len(root) == 0 {
			parts[i] = "-"
			continue
		}
		pids := make([]string, len(root))
		for j, pid := range root {
			pids[j] = strconv.Itoa(pid)
		}
		parts[i] = strings.Join(pids, ".")
	}
	return strings.Join(parts, ",")
}

// ParsePrefixes parses a ?prefixes= parameter value into a root set.
// The empty string is rejected: a caller that wants the whole space
// omits the parameter (or sends "-", the explicit empty prefix).
// Overlapping roots — duplicates, or one root a prefix of another —
// are rejected too: their subtrees would double-count executions, and
// a confidently wrong aggregate served with a 200 is exactly the
// silent corruption this protocol exists to prevent.
func ParsePrefixes(s string) ([][]int, error) {
	if s == "" {
		return nil, fmt.Errorf("experiments: empty prefixes parameter")
	}
	parts := strings.Split(s, ",")
	roots := make([][]int, len(parts))
	for i, part := range parts {
		if part == "-" {
			roots[i] = []int{}
			continue
		}
		if part == "" {
			return nil, fmt.Errorf("experiments: empty prefix in %q", s)
		}
		pids := strings.Split(part, ".")
		root := make([]int, len(pids))
		for j, p := range pids {
			pid, err := strconv.Atoi(p)
			if err != nil || pid < 0 {
				return nil, fmt.Errorf("experiments: bad pid %q in prefixes %q", p, s)
			}
			root[j] = pid
		}
		roots[i] = root
	}
	// Overlap check in O(n log n): sort an index view of the roots
	// lexicographically (a prefix sorts immediately before everything
	// it prefixes) and compare adjacent pairs. If root a is a prefix of
	// root b anywhere in the set, every root between them in sorted
	// order also extends a, so a is in particular a prefix of its own
	// successor — adjacent comparison misses nothing. The returned
	// slice keeps request order; only the check sorts.
	order := make([]int, len(roots))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return lessIntSlice(roots[order[a]], roots[order[b]]) })
	for x := 0; x+1 < len(order); x++ {
		i, j := order[x], order[x+1]
		if isIntPrefix(roots[i], roots[j]) {
			return nil, fmt.Errorf("experiments: overlapping prefixes %q and %q in %q", parts[i], parts[j], s)
		}
	}
	return roots, nil
}

// lessIntSlice is lexicographic order on int slices, shorter prefixes
// first.
func lessIntSlice(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// isIntPrefix reports whether a is a (non-strict) prefix of b.
func isIntPrefix(a, b []int) bool {
	if len(a) > len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ShardEnvelope is the wire form of one slice's aggregate: the body of
// a GET /experiments/{id}?prefixes=... response. SpaceVersion (kept
// under the pre-params "registry_version" wire key) lets a coordinator
// detect a fleet running a different generation of this experiment's
// space before trusting its numbers; Params and Prefixes echo the
// parameter point and the slice so a response cannot be silently
// credited to the wrong space or range.
type ShardEnvelope struct {
	ID           string          `json:"id"`
	SpaceVersion string          `json:"registry_version"`
	Params       string          `json:"params,omitempty"`
	Prefixes     string          `json:"prefixes"`
	Aggregate    json.RawMessage `json:"aggregate"`
}

// NewShardEnvelope builds the wire envelope of one slice's aggregate
// under the experiment's current space generation — the value
// EncodeShard writes, PutSlice stores, and the slice cache serves
// back. params is the canonical parameter rendering of the space's
// point, "" for a fixed experiment or a default point.
func NewShardEnvelope(id, params string, roots [][]int, agg Aggregate) (ShardEnvelope, error) {
	raw, err := json.Marshal(agg)
	if err != nil {
		return ShardEnvelope{}, err
	}
	return ShardEnvelope{
		ID:           id,
		SpaceVersion: SpaceVersion(id),
		Params:       params,
		Prefixes:     FormatPrefixes(roots),
		Aggregate:    raw,
	}, nil
}

// EncodeShardEnvelope writes an envelope in the slice endpoint's wire
// form. Because the encoder re-indents the raw aggregate bytes, a
// cached envelope (stored compact) re-encodes byte-identically to a
// freshly computed one — the invariant that lets the serving layer
// answer slice requests straight from the store.
func EncodeShardEnvelope(w io.Writer, env ShardEnvelope) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(env)
}

// EncodeShard writes the wire form of one slice's aggregate.
func EncodeShard(w io.Writer, id, params string, roots [][]int, agg Aggregate) error {
	env, err := NewShardEnvelope(id, params, roots, agg)
	if err != nil {
		return err
	}
	return EncodeShardEnvelope(w, env)
}

// DecodeShard reads one slice's wire envelope back. The aggregate
// stays raw: the caller resolves the experiment's Shardable.Decode.
func DecodeShard(r io.Reader) (ShardEnvelope, error) {
	var env ShardEnvelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return env, fmt.Errorf("experiments: decoding shard envelope: %w", err)
	}
	if env.ID == "" || len(env.Aggregate) == 0 {
		return env, fmt.Errorf("experiments: shard envelope missing id or aggregate")
	}
	return env, nil
}

// --- E2: the Algorithm 1 exhaustive sweep, in partial-run form ---

// e2K and e2Inputs pin Figure 2's instance: Algorithm 1 with k = 4 on
// inputs (0, 1). e2ShardDepth is the partition cut — depth 5 carves
// the ~22k-execution tree into 32 roots, fine-grained enough to
// balance a small fleet. Carving is not free: it replays the system
// 32 times, about 0.3 ms (BenchmarkCarve), which a coordinator pays
// once per point, on the point's first request.
const (
	e2K          = 4
	e2ShardDepth = 5
)

var e2Inputs = [2]uint64{0, 1}

// alg1SweepAgg is the order-insensitive aggregate of an exhaustive
// Algorithm 1 exploration — everything E2's table derives from. Seen
// is kept sorted; Merge is a union/sum/max fold, so slices combine in
// any grouping to the same value.
type alg1SweepAgg struct {
	Execs    int   `json:"execs"`
	Seen     []int `json:"seen"`
	WorstNum int   `json:"worst_num"`
	MaxSteps int   `json:"max_steps"`
}

// Merge implements Aggregate.
func (a *alg1SweepAgg) Merge(other Aggregate) error {
	b, ok := other.(*alg1SweepAgg)
	if !ok {
		return fmt.Errorf("experiments: cannot merge %T into %T", other, a)
	}
	a.Execs += b.Execs
	a.Seen = unionSorted(a.Seen, b.Seen)
	if b.WorstNum > a.WorstNum {
		a.WorstNum = b.WorstNum
	}
	if b.MaxSteps > a.MaxSteps {
		a.MaxSteps = b.MaxSteps
	}
	return nil
}

// unionSorted merges two sorted distinct-int slices into one.
func unionSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i == len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// alg1LeafAgg is one execution's contribution to E2's aggregate: a
// single-run alg1SweepAgg. It is determined by the run's final state
// (outputs, per-process step counts) and invariant under process
// relabelling (set of outputs, absolute difference, max), as the memo
// contract requires.
func alg1LeafAgg(ar *agreement.Alg1Run) any {
	a, b := ar.Outs[0].Num, ar.Outs[1].Num
	seen := []int{min(a, b), max(a, b)}
	if a == b {
		seen = seen[:1]
	}
	return &alg1SweepAgg{
		Execs:    1,
		Seen:     seen,
		WorstNum: max(a-b, b-a),
		MaxSteps: max(ar.Result.Steps[0], ar.Result.Steps[1]),
	}
}

// mergeAlg1Agg is the pure MemoOptions.Merge over E2 aggregates: it
// folds both into a fresh zero aggregate, leaving the arguments — live
// memo entries — untouched. (alg1SweepAgg.Merge mutates its receiver,
// which is exactly why the memoized path merges into a clone.)
func mergeAlg1Agg(a, b any) any {
	out := &alg1SweepAgg{}
	out.Merge(a.(*alg1SweepAgg))
	out.Merge(b.(*alg1SweepAgg))
	return out
}

// alg1AggOf unwraps a memoized exploration's aggregate; an exploration
// with no leaves (an empty root set) yields the zero aggregate, with
// Seen encoded as [] rather than null.
func alg1AggOf(agg any) *alg1SweepAgg {
	if a, ok := agg.(*alg1SweepAgg); ok {
		return a
	}
	return &alg1SweepAgg{Seen: []int{}}
}

// finishE2 renders the E2 family's table at one (k, inputs) point from
// a fully-merged aggregate — the one rendering path shared by the
// local runner, the sharded merge, and every parameterized point,
// which is what makes their bytes identical. At the default point
// (e2K, e2Inputs) the rendering is byte-for-byte Figure 2's.
func finishE2(a *alg1SweepAgg, k int, inputs [2]uint64) (*Table, error) {
	den := agreement.Alg1Den(k)
	t := &Table{
		ID:      "E2",
		Title:   fmt.Sprintf("Figure 2 / Prop 5.1 — Algorithm 1 executions, k=%d, inputs (%d,%d)", k, inputs[0], inputs[1]),
		Headers: []string{"quantity", "value"},
	}
	t.Rows = append(t.Rows,
		[]string{"interleavings", itoa(a.Execs)},
		[]string{"distinct decisions", itoa(len(a.Seen))},
		[]string{"decision range", fmt.Sprintf("0..%s by 1/%d", rat(den, den), den)},
		[]string{"worst co-final distance", rat(a.WorstNum, den)},
		[]string{"max steps per process", fmt.Sprintf("%d (bound 2k+3 = %d)", a.MaxSteps, agreement.Alg1MaxSteps(k))},
	)
	if a.WorstNum > 1 {
		t.Notes = append(t.Notes, "VIOLATION: co-final decisions exceed ε")
	} else {
		t.Notes = append(t.Notes, "all co-final decision pairs within ε = 1/(2k+1); full range covered")
	}
	return t, nil
}

// runE2At evaluates the E2 family whole at one (k, inputs) point —
// the Experiment.Run behind GET /experiments/E2 and
// /experiments/E2?k=... — through the serial canonical-state memo,
// returning the explorer's counters with the table. Serial, like every
// engine-driven runner: the engine owns the concurrency budget one
// level up.
func runE2At(k int, inputs [2]uint64) (*Table, sched.MemoStats, error) {
	agg, stats, err := agreement.ExploreAlg1Memo(k, inputs, alg1LeafAgg, mergeAlg1Agg)
	if err != nil {
		return nil, stats, err
	}
	tab, err := finishE2(alg1AggOf(agg), k, inputs)
	return tab, stats, err
}

// e2ShardableAt is the partial-run form at one (k, inputs) point.
// Explore runs the serial memo over the slice's roots, like the whole
// runner: the server's slice slots and the coordinator's range fan-out
// own the cores.
func e2ShardableAt(k int, inputs [2]uint64) Shardable {
	return Shardable{
		Roots: func() ([][]int, error) {
			return agreement.Alg1Roots(k, inputs, e2ShardDepth)
		},
		Explore: func(roots [][]int) (Aggregate, error) {
			agg, _, err := agreement.ExploreAlg1MemoPrefixes(k, inputs, roots, alg1LeafAgg, mergeAlg1Agg)
			if err != nil {
				return nil, err
			}
			return alg1AggOf(agg), nil
		},
		Decode: func(data []byte) (Aggregate, error) {
			var a alg1SweepAgg
			if err := json.Unmarshal(data, &a); err != nil {
				return nil, fmt.Errorf("experiments: decoding E2 aggregate: %w", err)
			}
			// Merge's union depends on Seen being sorted and distinct,
			// and the counters being non-negative; a payload violating
			// either would corrupt the merged table silently, so it is
			// rejected like any other unusable response.
			if a.Execs < 0 || a.WorstNum < 0 || a.MaxSteps < 0 {
				return nil, fmt.Errorf("experiments: E2 aggregate with negative counters")
			}
			for i := 1; i < len(a.Seen); i++ {
				if a.Seen[i] <= a.Seen[i-1] {
					return nil, fmt.Errorf("experiments: E2 aggregate seen set not sorted and distinct")
				}
			}
			return &a, nil
		},
		Finish: func(agg Aggregate) (*Table, error) {
			a, ok := agg.(*alg1SweepAgg)
			if !ok {
				return nil, fmt.Errorf("experiments: E2 finish on %T", agg)
			}
			return finishE2(a, k, inputs)
		},
	}
}
