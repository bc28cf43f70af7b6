package experiments

import (
	"context"
	"fmt"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/sched"
	"repro/internal/task"
)

// This file is the experiment descriptor. The paper's theorems are
// families over (k, inputs, choice size, ...), and every registered
// experiment is one: an Experiment declares a validated parameter
// schema of integers with ranges and defaults (empty for the fixed
// experiments E1, E3..E14), a canonical parameter rendering (so
// ?i0=0&k=7 and ?k=7&i0=0 are one cache entry and one singleflight
// key, and the all-defaults point is the experiment's plain id), and a
// Run / Shardable pair evaluated at any point of the space. Every
// request any layer serves is (id, ParamSet, prefixes), resolved
// through this one descriptor.
//
// It is also where cache identity is computed per experiment space
// rather than registry-wide: SpaceVersion(id) extends RegistryVersion
// with a per-experiment code version declared at registration, so
// editing one experiment's code cold-starts its artifacts and nothing
// else. For an experiment whose Version is empty the space version IS
// the registry version — byte-identical cache keys, so stores written
// before this seam existed stay warm.

// ParamSpec declares one integer parameter of an experiment: name,
// inclusive range, default, and a one-line doc string served on the
// experiment index.
type ParamSpec struct {
	Name string
	// Default is the parameter's value at the experiment's default
	// point; a request omitting the parameter gets it.
	Default int
	// Min and Max bound the value inclusively.
	Min, Max int
	Doc      string
}

// Experiment is one registered experiment: a parameter space (empty
// for a fixed experiment) and how to evaluate it. The default point —
// every parameter at its default, which is also what the zero ParamSet
// of a request naming no parameters stands for — is the experiment's
// plain id: the table Run produces there is what the engine runs, and
// it shares the id's cache entry and singleflight.
type Experiment struct {
	// ID is the experiment id (E1..E15).
	ID string
	// Doc is a one-line description for the index and docs.
	Doc string
	// Version is the experiment's code version, "" for the generation
	// per-experiment identity landed in. Bump it whenever the
	// experiment's output bytes could change at any parameter point:
	// only its cache fingerprints move (SpaceVersion), every other
	// experiment stays warm.
	Version string
	// Params is the parameter schema, in any order (canonicalization
	// sorts by name); empty for a fixed experiment.
	Params []ParamSpec
	// Check, when non-nil, validates cross-parameter constraints that
	// per-spec ranges cannot express (e.g. an input bounded by another
	// parameter). Errors are field-level client messages.
	Check func(ps ParamSet) error
	// Run evaluates the experiment at one validated, fully spelled-out
	// parameter point, returning the counters of the memoized
	// exploration it ran (zero when it explored nothing through the
	// memo). Callers holding a request's point go through RunParam,
	// which resolves the zero ParamSet first.
	Run func(ps ParamSet) (*Table, sched.MemoStats, error)
	// Shardable, when non-nil, returns the partial-run seam at one
	// fully spelled-out point, so the experiment's exploration space
	// prefix-shards across a fleet at any point. Callers go through
	// ShardableAt.
	Shardable func(ps ParamSet) Shardable
}

// Fixed describes a zero-parameter experiment: run evaluated at the
// one point its empty schema has.
func Fixed(id string, run func() (*Table, error)) Experiment {
	return Experiment{ID: id, Run: func(ParamSet) (*Table, sched.MemoStats, error) {
		tab, err := run()
		return tab, sched.MemoStats{}, err
	}}
}

// at resolves a request's point against the schema: the zero ParamSet
// (a request that named no parameters) becomes the default point,
// spelled out — Run and Shardable read parameter values, and ps.Int
// is 0 on the zero value.
func (e Experiment) at(ps ParamSet) (ParamSet, error) {
	if ps.id != "" {
		return ps, nil
	}
	return DefaultParams(e)
}

// ShardableAt returns the experiment's partial-run seam at one point
// (the zero ParamSet is the default point), and false when the
// experiment does not prefix-shard.
func (e Experiment) ShardableAt(ps ParamSet) (Shardable, bool) {
	if e.Shardable == nil {
		return Shardable{}, false
	}
	ps, err := e.at(ps)
	if err != nil {
		// A schema whose defaults do not parse cannot carve; the whole
		// path reports the same error through RunParam.
		return Shardable{}, false
	}
	return e.Shardable(ps), true
}

// spaceVersionBump is a link-time override of per-experiment code
// versions ("E2=v2" or "E2=v2,E15=v3"), settable with
//
//	go build -ldflags "-X repro/internal/experiments.spaceVersionBump=E2=v2"
//
// It exists for the cache-surgery CI gate: bumping one experiment's
// version at link time simulates deploying a surgical code edit
// without patching source, and the gate then asserts every other
// experiment's artifacts stayed warm.
var spaceVersionBump string

var (
	bumpOnce sync.Once
	bumps    map[string]string
)

// parseBumps parses the spaceVersionBump spelling ("E2=v2,E15=v3");
// malformed entries are dropped rather than failing the process — a
// bad ldflags value degrades to "no bump", never to a crash.
func parseBumps(s string) map[string]string {
	m := make(map[string]string)
	for _, part := range strings.Split(s, ",") {
		if name, v, ok := strings.Cut(strings.TrimSpace(part), "="); ok && name != "" && v != "" {
			m[name] = v
		}
	}
	return m
}

// codeVersion resolves one experiment's code version: the link-time
// bump wins, then the registered Experiment.Version, then "". It reads
// the once-built registry, so the cache's per-artifact key resolution
// allocates nothing.
func codeVersion(id string) string {
	bumpOnce.Do(func() { bumps = parseBumps(spaceVersionBump) })
	if v, ok := bumps[id]; ok {
		return v
	}
	return registry[id].Version
}

// SpaceVersion names the cache-identity generation of one experiment's
// space: RegistryVersion alone when the experiment declares no code
// version of its own (every pre-existing fingerprint is preserved
// byte-identically), and RegistryVersion+"+"+id+"/"+version otherwise
// — so bumping one experiment's Version moves only its fingerprints
// while a RegistryVersion bump still moves them all.
func SpaceVersion(id string) string {
	if v := codeVersion(id); v != "" {
		return RegistryVersion + "+" + id + "/" + v
	}
	return RegistryVersion
}

// ParamSet is one validated point of an experiment's parameter space,
// with every parameter present (defaults filled) in canonical order.
// The zero value is the point of a request that named no parameters —
// the default point, not yet spelled out; its Canonical and Query are
// "".
type ParamSet struct {
	id string
	// canonical is the sorted-by-name "i0=0,i1=1,k=7" rendering — the
	// cache and singleflight identity of the point — and "" at the
	// default point, which makes a spelled-out default request (?k=4)
	// the same identity as the plain id.
	canonical string
	// params holds every parameter of the point, sorted by name.
	params []param
}

// param is one parameter's value at a point.
type param struct {
	name string
	val  int
}

// Canonical returns the point's identity string: parameters sorted by
// name, values in canonical rendering, "name=value" pairs joined with
// commas — and "" at the default point.
func (ps ParamSet) Canonical() string { return ps.canonical }

// Query returns the point as an explicit URL query fragment
// ("i0=0&i1=1&k=7", every parameter spelled out, names escaped), and
// "" for the zero ParamSet.
func (ps ParamSet) Query() string {
	if len(ps.params) == 0 {
		return ""
	}
	parts := make([]string, len(ps.params))
	for i, p := range ps.params {
		parts[i] = url.QueryEscape(p.name) + "=" + strconv.Itoa(p.val)
	}
	return strings.Join(parts, "&")
}

// Int returns a parameter's value; 0 for an unknown name.
func (ps ParamSet) Int(name string) int {
	for _, p := range ps.params {
		if p.name == name {
			return p.val
		}
	}
	return 0
}

// String renders the point for logs and trace lines.
func (ps ParamSet) String() string {
	if ps.canonical == "" {
		return ps.id + " (defaults)"
	}
	return ps.id + "?" + ps.canonical
}

// paramNames lists an experiment's parameter names in sorted order,
// for error messages.
func paramNames(e Experiment) string {
	names := make([]string, len(e.Params))
	for i, spec := range e.Params {
		names[i] = spec.Name
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// ParseParams validates one request's parameters against an
// experiment's schema and returns the canonical point: parameters on a
// fixed experiment, unknown names, repeated names, unparsable or
// out-of-range values, and Check violations are field-level errors
// (the 400 body internal/server returns); missing parameters take
// their defaults. Parameter order never matters — the canonical
// rendering is sorted by name, each value rendered by strconv.Itoa (no
// sign or leading-zero noise, so "+07" and "7" are one identity) — so
// every spelling of a point shares one cache entry and one singleflight
// key. q is only read; a schema has a handful of parameters, so names
// are matched by a scan of e.Params.
func ParseParams(e Experiment, q url.Values) (ParamSet, error) {
	if len(e.Params) == 0 && len(q) > 0 {
		return ParamSet{}, fmt.Errorf("experiment %q takes no parameters", e.ID)
	}
	for name, vals := range q {
		if !slices.ContainsFunc(e.Params, func(spec ParamSpec) bool { return spec.Name == name }) {
			return ParamSet{}, fmt.Errorf("unknown parameter %q for %s (parameters: %s)", name, e.ID, paramNames(e))
		}
		if len(vals) != 1 {
			return ParamSet{}, fmt.Errorf("parameter %q given %d times, want once", name, len(vals))
		}
	}
	ps := ParamSet{id: e.ID, params: make([]param, 0, len(e.Params))}
	defaulted := true
	for _, spec := range e.Params {
		v, given := spec.Default, false
		if vals := q[spec.Name]; len(vals) == 1 {
			var err error
			if v, err = strconv.Atoi(vals[0]); err != nil {
				return ParamSet{}, fmt.Errorf("parameter %q: %q is not an integer", spec.Name, vals[0])
			}
			given = true
		}
		if v < spec.Min || v > spec.Max {
			err := fmt.Errorf("parameter %q: %d out of range [%d, %d]", spec.Name, v, spec.Min, spec.Max)
			if !given {
				return ParamSet{}, fmt.Errorf("experiments: %s: bad default for %w", e.ID, err)
			}
			return ParamSet{}, err
		}
		ps.params = append(ps.params, param{name: spec.Name, val: v})
		defaulted = defaulted && v == spec.Default
	}
	slices.SortFunc(ps.params, func(a, b param) int { return strings.Compare(a.name, b.name) })
	if e.Check != nil {
		if err := e.Check(ps); err != nil {
			return ParamSet{}, err
		}
	}
	if !defaulted {
		canonical := make([]byte, 0, 32)
		for i, p := range ps.params {
			if i > 0 {
				canonical = append(canonical, ',')
			}
			canonical = append(canonical, p.name...)
			canonical = append(canonical, '=')
			canonical = strconv.AppendInt(canonical, int64(p.val), 10)
		}
		ps.canonical = string(canonical)
	}
	return ps, nil
}

// DefaultParams returns an experiment's default point, spelled out
// (Canonical "").
func DefaultParams(e Experiment) (ParamSet, error) {
	return ParseParams(e, url.Values{})
}

// ParseParamList parses the CLI parameter form "k=7,i0=0" (the -param
// flag) into a validated point.
func ParseParamList(e Experiment, s string) (ParamSet, error) {
	q := url.Values{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok || name == "" {
			return ParamSet{}, fmt.Errorf("parameter %q: want name=value", part)
		}
		q.Add(name, val)
	}
	return ParseParams(e, q)
}

// RunParam evaluates one experiment at one point (the zero ParamSet is
// the default point) with the engine's execution contract — cache
// read-through keyed by the point's canonical rendering, panic
// isolation, timeout — and returns the point's Result, with Memo set
// when the point explored. Only Timeout and Cache of opts are
// consulted: a point is a single execution, so Jobs/IDs do not apply.
func RunParam(ctx context.Context, e Experiment, ps ParamSet, opts Options) Result {
	id, params := e.ID, ps.Canonical()
	if opts.Cache != nil {
		if res, ok := opts.Cache.GetParam(id, params); ok && res.Err == nil && res.Table != nil {
			return cacheHit(id, res)
		}
	}
	res := runOne(ctx, id, func() (*Table, sched.MemoStats, error) {
		ps, err := e.at(ps)
		if err != nil {
			return nil, sched.MemoStats{}, err
		}
		return e.Run(ps)
	}, opts.Timeout)
	if opts.Cache != nil && res.Err == nil {
		opts.Cache.PutParam(id, params, res) // best-effort; a failed write just means a future miss
	}
	return res
}

// --- the parameterized experiments ---

// e2Experiment is E2's space: the exhaustive Algorithm 1 sweep over the
// ε-agreement parameter k and the two processes' input registers. The
// default point (k=4, inputs (0,1)) is Figure 2.
func e2Experiment() Experiment {
	return Experiment{
		ID:  "E2",
		Doc: "exhaustive Algorithm 1 sweep over k and the input registers",
		Params: []ParamSpec{
			{Name: "i0", Default: 0, Min: 0, Max: 1, Doc: "process 0's input register"},
			{Name: "i1", Default: 1, Min: 0, Max: 1, Doc: "process 1's input register"},
			// k=6's tree is ~30x k=4's; the cap keeps one request from
			// monopolizing a worker past any realistic timeout.
			{Name: "k", Default: 4, Min: 1, Max: 6, Doc: "ε-agreement parameter (ε = 1/(2k+1))"},
		},
		Run: func(ps ParamSet) (*Table, sched.MemoStats, error) {
			return runE2At(ps.Int("k"), e2InputsOf(ps))
		},
		Shardable: func(ps ParamSet) Shardable {
			return e2ShardableAt(ps.Int("k"), e2InputsOf(ps))
		},
	}
}

// e2InputsOf extracts E2's input-register pair from a point.
func e2InputsOf(ps ParamSet) [2]uint64 {
	return [2]uint64{uint64(ps.Int("i0")), uint64(ps.Int("i1"))}
}

// e15Experiment is E15's space: the exhaustive Algorithm 2 validation
// sweep over the choice task's value count and the two inputs. The
// default point (c=2, inputs (0,1)) is Theorem 1.2's exhaustive check.
// The choice task's inputs are {0,1}² at every size (its outputs grow
// with c), so Check rejects any other input pair before it explores.
func e15Experiment() Experiment {
	return Experiment{
		ID:  "E15",
		Doc: "exhaustive Algorithm 2 validation over the choice task size and inputs",
		Params: []ParamSpec{
			{Name: "c", Default: 2, Min: 2, Max: 3, Doc: "choice task value count"},
			{Name: "i0", Default: 0, Min: 0, Max: 2, Doc: "process 0's input (an input pair of the task)"},
			{Name: "i1", Default: 1, Min: 0, Max: 2, Doc: "process 1's input (an input pair of the task)"},
		},
		Check: func(ps ParamSet) error {
			plan, err := e15Plan(ps.Int("c"))
			if err != nil {
				return err
			}
			in, inputs := e15InputOf(ps), plan.Task.Inputs
			if slices.Contains(inputs, in) {
				return nil
			}
			// Name the field whose value no input pair of the task has.
			for i, name := range []string{"i0", "i1"} {
				if !slices.ContainsFunc(inputs, func(p task.Pair) bool { return p[i] == in[i] }) {
					return fmt.Errorf("parameter %q: %d is not an input of task %s (inputs %v)", name, in[i], plan.Task.Name, inputs)
				}
			}
			return fmt.Errorf("parameters \"i0\", \"i1\": (%d, %d) is not an input pair of task %s (inputs %v)",
				in[0], in[1], plan.Task.Name, inputs)
		},
		Run: func(ps ParamSet) (*Table, sched.MemoStats, error) {
			return runE15At(ps.Int("c"), e15InputOf(ps))
		},
		Shardable: func(ps ParamSet) Shardable {
			return e15ShardableAt(ps.Int("c"), e15InputOf(ps))
		},
	}
}
