package experiments

import (
	"context"
	"fmt"
	"math"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/sched"
	"repro/internal/task"
)

// This file is the parameterized-experiment seam. The paper's theorems
// are families over (k, inputs, choice size, ...); the fixed E1..E15
// registry pins one point per family. A Family lifts that point into a
// queryable surface: a validated parameter schema with types, ranges,
// and defaults, a canonical parameter rendering (so ?i0=0&k=7 and
// ?k=7&i0=0 are one cache entry and one singleflight key), and a Run /
// Shardable pair evaluated at any point of the space.
//
// It is also where cache identity is computed per experiment space
// rather than registry-wide: SpaceVersion(id) extends RegistryVersion
// with a per-family code version declared at registration, so editing
// one family's code cold-starts that family's artifacts and nothing
// else. For a family whose Version is empty the space version IS the
// registry version — byte-identical cache keys, so stores written
// before this seam existed stay warm.

// ParamKind is a parameter's wire type.
type ParamKind int

const (
	// ParamInt is an integer-valued parameter.
	ParamInt ParamKind = iota
	// ParamFloat is a float-valued parameter.
	ParamFloat
)

// String names the kind for schemas and error messages.
func (k ParamKind) String() string {
	if k == ParamInt {
		return "int"
	}
	return "float"
}

// ParamSpec declares one parameter of a family: name, type, inclusive
// range, default (in canonical rendering), and a one-line doc string
// served on the experiment index.
type ParamSpec struct {
	Name string
	Kind ParamKind
	// Default is the parameter's value at the family's fixed point, in
	// canonical rendering; a request omitting the parameter gets it.
	Default string
	// Min and Max bound the value inclusively.
	Min, Max float64
	Doc      string
}

// Family is one parameterized experiment space. Its fixed registry
// experiment (Registry()[ID]) is the space evaluated at every
// parameter's default — the table Run produces there is byte-identical
// to the fixed experiment's, which is what lets a default-point request
// share the fixed experiment's cache entry and singleflight.
type Family struct {
	// ID is the family's experiment id (the fixed point's registry id).
	ID string
	// Doc is a one-line description for the index and docs.
	Doc string
	// Version is the family's code version, "" for the generation this
	// seam landed in. Bump it whenever the family's output bytes could
	// change at any parameter point: only this family's cache
	// fingerprints move (SpaceVersion), every other family stays warm.
	Version string
	// Params is the parameter schema, in any order (canonicalization
	// sorts by name).
	Params []ParamSpec
	// Check, when non-nil, validates cross-parameter constraints that
	// per-spec ranges cannot express (e.g. an input bounded by another
	// parameter). Errors are field-level client messages.
	Check func(ps ParamSet) error
	// Run evaluates the family at one validated parameter point,
	// returning the counters of the memoized exploration it ran (zero
	// when it explored nothing through the memo).
	Run func(ps ParamSet) (*Table, sched.MemoStats, error)
	// Shardable, when non-nil, returns the partial-run seam at one
	// point, so parameterized spaces prefix-shard like fixed ones.
	Shardable func(ps ParamSet) Shardable
}

// Families returns the parameterized experiment families by id: the
// registry experiments whose spaces are open to ?param= requests.
func Families() map[string]Family {
	return map[string]Family{
		"E2":  e2Family(),
		"E15": e15Family(),
	}
}

// FamiliesFor returns the default family set for a registry choice:
// the full Families() when reg is nil (the real registry), and none
// otherwise — a family's Run executes the real experiment's code, so a
// registry override (tests, subset deployments) must opt in explicitly
// rather than silently serving spaces of experiments it replaced.
func FamiliesFor(reg map[string]Runner) map[string]Family {
	if reg == nil {
		return Families()
	}
	return map[string]Family{}
}

// spaceVersionBump is a link-time override of per-family code versions
// ("E2=v2" or "E2=v2,E15=v3"), settable with
//
//	go build -ldflags "-X repro/internal/experiments.spaceVersionBump=E2=v2"
//
// It exists for the cache-surgery CI gate: bumping one family's
// version at link time simulates deploying a surgical code edit
// without patching source, and the gate then asserts every other
// family's artifacts stayed warm.
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

// familyVersion resolves one experiment's code version: the link-time
// bump wins, then the registered Family.Version, then "".
func familyVersion(id string) string {
	bumpOnce.Do(func() { bumps = parseBumps(spaceVersionBump) })
	if v, ok := bumps[id]; ok {
		return v
	}
	if f, ok := Families()[id]; ok {
		return f.Version
	}
	return ""
}

// SpaceVersion names the cache-identity generation of one experiment's
// space: RegistryVersion alone when the experiment declares no code
// version of its own (every pre-existing fingerprint is preserved
// byte-identically), and RegistryVersion+"+"+id+"/"+version otherwise
// — so bumping one family's Version moves only that family's
// fingerprints while a RegistryVersion bump still moves them all.
func SpaceVersion(id string) string {
	if v := familyVersion(id); v != "" {
		return RegistryVersion + "+" + id + "/" + v
	}
	return RegistryVersion
}

// ParamSet is one validated point of a family's parameter space, with
// every parameter present (defaults filled) in canonical order. The
// zero value is the no-parameters point of an unparameterized request;
// its Canonical and Query are "".
type ParamSet struct {
	family string
	// canonical is the sorted-by-name "i0=0,i1=1,k=7" rendering — the
	// cache and singleflight identity of the point — and "" at the
	// family's default point, which makes a spelled-out default request
	// (?k=4) the same identity as the fixed experiment.
	canonical string
	order     []string
	render    map[string]string
	vals      map[string]float64
}

// Canonical returns the point's identity string: parameters sorted by
// name, values in canonical rendering, "name=value" pairs joined with
// commas — and "" at the family's default point.
func (ps ParamSet) Canonical() string { return ps.canonical }

// Query returns the point as an explicit URL query fragment
// ("i0=0&i1=1&k=7", every parameter spelled out, values escaped), and
// "" for the zero ParamSet.
func (ps ParamSet) Query() string {
	if len(ps.order) == 0 {
		return ""
	}
	parts := make([]string, len(ps.order))
	for i, name := range ps.order {
		parts[i] = url.QueryEscape(name) + "=" + url.QueryEscape(ps.render[name])
	}
	return strings.Join(parts, "&")
}

// Int returns an integer parameter's value; 0 for an unknown name.
func (ps ParamSet) Int(name string) int { return int(ps.vals[name]) }

// Float returns a parameter's value; 0 for an unknown name.
func (ps ParamSet) Float(name string) float64 { return ps.vals[name] }

// String renders the point for logs and trace lines.
func (ps ParamSet) String() string {
	if ps.canonical == "" {
		return ps.family + " (defaults)"
	}
	return ps.family + "?" + ps.canonical
}

// paramNames lists a family's parameter names in sorted order, for
// error messages.
func paramNames(f Family) string {
	names := make([]string, len(f.Params))
	for i, spec := range f.Params {
		names[i] = spec.Name
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// renderValue canonicalizes one parsed value: integers without
// exponent or sign noise, floats in shortest round-trip form — so
// "0.010", "1e-2", and "0.01" are one cache identity.
func renderValue(kind ParamKind, v float64) string {
	if kind == ParamInt {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// parseValue parses and range-checks one parameter value against its
// spec. Errors are field-level client messages.
func parseValue(spec ParamSpec, raw string) (float64, error) {
	var v float64
	switch spec.Kind {
	case ParamInt:
		n, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parameter %q: %q is not an integer", spec.Name, raw)
		}
		v = float64(n)
	default:
		f, err := strconv.ParseFloat(raw, 64)
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
			return 0, fmt.Errorf("parameter %q: %q is not a finite number", spec.Name, raw)
		}
		v = f
	}
	if v < spec.Min || v > spec.Max {
		return 0, fmt.Errorf("parameter %q: %s out of range [%s, %s]",
			spec.Name, renderValue(spec.Kind, v), renderValue(spec.Kind, spec.Min), renderValue(spec.Kind, spec.Max))
	}
	return v, nil
}

// ParseParams validates one request's parameters against a family's
// schema and returns the canonical point: unknown names, repeated
// names, unparsable or out-of-range values, and Check violations are
// field-level errors (the 400 body internal/server returns); missing
// parameters take their defaults. Parameter order never matters — the
// canonical rendering is sorted by name — so every spelling of a point
// shares one cache entry and one singleflight key.
func ParseParams(f Family, q url.Values) (ParamSet, error) {
	specs := make(map[string]ParamSpec, len(f.Params))
	for _, spec := range f.Params {
		specs[spec.Name] = spec
	}
	for name, vals := range q {
		spec, ok := specs[name]
		if !ok {
			return ParamSet{}, fmt.Errorf("unknown parameter %q for %s (parameters: %s)", name, f.ID, paramNames(f))
		}
		if len(vals) != 1 {
			return ParamSet{}, fmt.Errorf("parameter %q given %d times, want once", spec.Name, len(vals))
		}
	}
	ps := ParamSet{
		family: f.ID,
		render: make(map[string]string, len(f.Params)),
		vals:   make(map[string]float64, len(f.Params)),
	}
	defaulted := true
	for _, spec := range f.Params {
		raw, given := spec.Default, false
		if vals := q[spec.Name]; len(vals) == 1 {
			raw, given = vals[0], true
		}
		v, err := parseValue(spec, raw)
		if err != nil {
			if !given {
				return ParamSet{}, fmt.Errorf("experiments: %s: bad default for %w", f.ID, err)
			}
			return ParamSet{}, err
		}
		render := renderValue(spec.Kind, v)
		ps.order = append(ps.order, spec.Name)
		ps.render[spec.Name] = render
		ps.vals[spec.Name] = v
		defaulted = defaulted && render == spec.Default
	}
	sort.Strings(ps.order)
	if f.Check != nil {
		if err := f.Check(ps); err != nil {
			return ParamSet{}, err
		}
	}
	if !defaulted {
		pairs := make([]string, len(ps.order))
		for i, name := range ps.order {
			pairs[i] = name + "=" + ps.render[name]
		}
		ps.canonical = strings.Join(pairs, ",")
	}
	return ps, nil
}

// DefaultParams returns a family's default point (Canonical "").
func DefaultParams(f Family) (ParamSet, error) {
	return ParseParams(f, url.Values{})
}

// ParseParamList parses the CLI parameter form "k=7,i0=0" (the -param
// flag) into a validated point.
func ParseParamList(f Family, s string) (ParamSet, error) {
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
	return ParseParams(f, q)
}

// ParamCache is the parameterized extension of Cache: a store that
// keys whole results by experiment id plus canonical parameter
// rendering. internal/cache.Store implements it; callers holding a
// plain Cache type-assert, so a store without parameter support
// degrades to cold non-default points, never to an error. The ""
// params key is the default point and aliases Get/Put — one entry
// serves the fixed experiment and every spelling of its defaults.
type ParamCache interface {
	Cache
	// GetParam returns the stored result for one parameter point of an
	// experiment family. Same trust contract as Get.
	GetParam(id, params string) (Result, bool)
	// PutParam stores a successful result for one parameter point.
	PutParam(id, params string, r Result) error
}

// getParam consults opts.Cache for one parameter point, degrading a
// plain Cache to the default point only.
func getParam(c Cache, id, params string) (Result, bool) {
	switch pc := c.(type) {
	case nil:
		return Result{}, false
	case ParamCache:
		return pc.GetParam(id, params)
	default:
		if params == "" {
			return c.Get(id)
		}
		return Result{}, false
	}
}

// putParam stores one parameter point's result, best-effort, with the
// same degradation as getParam.
func putParam(c Cache, id, params string, r Result) {
	switch pc := c.(type) {
	case nil:
	case ParamCache:
		pc.PutParam(id, params, r)
	default:
		if params == "" {
			c.Put(id, r)
		}
	}
}

// RunParam evaluates one family at one validated point with the
// engine's execution contract — cache read-through (ParamCache when
// the store supports it), panic isolation, timeout — and returns the
// point's Result, with Memo set when the point explored. Only Timeout
// and Cache of opts are consulted: a parameter point is a single
// execution, so Jobs/IDs do not apply.
func RunParam(ctx context.Context, f Family, ps ParamSet, opts Options) Result {
	id := f.ID
	params := ps.Canonical()
	if res, ok := getParam(opts.Cache, id, params); ok && res.Err == nil && res.Table != nil {
		return cacheHit(id, res)
	}
	res := runOne(ctx, id, func() (*Table, sched.MemoStats, error) { return f.Run(ps) }, opts.Timeout)
	if res.Err == nil {
		putParam(opts.Cache, id, params, res) // best-effort, like the engine's Put
	}
	return res
}

// --- the registered families ---

// e2Family is E2's space: the exhaustive Algorithm 1 sweep over the
// ε-agreement parameter k and the two processes' input registers. The
// default point (k=4, inputs (0,1)) is Figure 2.
func e2Family() Family {
	return Family{
		ID:  "E2",
		Doc: "exhaustive Algorithm 1 sweep over k and the input registers",
		Params: []ParamSpec{
			{Name: "i0", Kind: ParamInt, Default: "0", Min: 0, Max: 1, Doc: "process 0's input register"},
			{Name: "i1", Kind: ParamInt, Default: "1", Min: 0, Max: 1, Doc: "process 1's input register"},
			// k=6's tree is ~30x k=4's; the cap keeps one request from
			// monopolizing a worker past any realistic timeout.
			{Name: "k", Kind: ParamInt, Default: "4", Min: 1, Max: 6, Doc: "ε-agreement parameter (ε = 1/(2k+1))"},
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

// e15Family is E15's space: the exhaustive Algorithm 2 validation
// sweep over the choice task's value count and the two inputs. The
// default point (c=2, inputs (0,1)) is Theorem 1.2's exhaustive check.
// The choice task's inputs are {0,1}² at every size (its outputs grow
// with c), so Check rejects any other input pair before it explores.
func e15Family() Family {
	return Family{
		ID:  "E15",
		Doc: "exhaustive Algorithm 2 validation over the choice task size and inputs",
		Params: []ParamSpec{
			{Name: "c", Kind: ParamInt, Default: "2", Min: 2, Max: 3, Doc: "choice task value count"},
			{Name: "i0", Kind: ParamInt, Default: "0", Min: 0, Max: 2, Doc: "process 0's input (an input pair of the task)"},
			{Name: "i1", Kind: ParamInt, Default: "1", Min: 0, Max: 2, Doc: "process 1's input (an input pair of the task)"},
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
