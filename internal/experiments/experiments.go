// Package experiments regenerates every figure and theorem-level claim of
// the paper (the E1..E15 experiment index of DESIGN.md): each experiment
// returns a printable table whose rows are the series the paper reports.
//
// The concurrent execution engine (Run) drives the registry on a bounded
// worker pool with per-experiment timeouts and panic isolation, returning
// results in request order so that concurrent runs emit byte-identical
// output to serial runs. EncodeText, EncodeJSON, and EncodeCSV render a
// result slice; the cmd/figures binary is the CLI over all of it, and the
// root benchmarks wrap the individual experiments.
//
// Two properties make the engine composable with the layers above it.
// First, the JSON wire form (EncodeJSON, inverted by DecodeJSON) is a
// pure function of an experiment's outputs — durations and cache
// provenance are excluded — so a result that travelled through the
// on-disk cache (internal/cache) or over HTTP (internal/server,
// internal/shard) re-encodes to exactly the bytes a fresh local run
// would have produced. Second, result order is always request order,
// never completion order. Together they are the merge-order guarantee:
// any distribution of the work — across goroutines (Jobs), cache hits,
// or a remote worker fleet — emits byte-identical output.
//
// Every experiment is one descriptor (Experiment): a parameter schema,
// empty for the fixed experiments, and Run / Shardable evaluated at a
// point of it. A request is (id, ParamSet, prefixes) — the zero
// ParamSet is the default point, the experiment's plain id — and the
// engine, the server, the shard coordinator and the load harness all
// resolve it through the one registry.
//
// Options.Cache is the storage seam: one interface keyed by (id,
// parameter point) for whole results and (id, point, prefixes) for
// slice aggregates, consulted before each run and updated after each
// success, with failed results never stored. RegistryVersion names the
// current experiment generation and must be bumped whenever output
// bytes could change; cache keys include it (through SpaceVersion), so
// stale stores miss instead of lying.
package experiments

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Table is one experiment's output.
type Table struct {
	// ID is the experiment id of DESIGN.md (E1..E15).
	ID string
	// Title names the paper object reproduced.
	Title   string
	Headers []string
	Rows    [][]string
	// Notes records the claim checked and the verdict.
	Notes []string
}

// RegistryVersion names the current generation of the experiment
// definitions and is part of every cache key (internal/cache). Bump it
// whenever any registered experiment's output bytes could change —
// new or removed experiments, parameter sweeps, wording of titles,
// headers, or notes — so stale cached tables are never served; old
// entries simply stop matching and age out of the store.
const RegistryVersion = "e1-e15/v1"

// Registry maps experiment ids to their descriptors: E2 and E15 are
// parameter families, the others take no parameters. It builds the
// map and nothing more — every point is resolved when it runs.
func Registry() map[string]Experiment {
	return map[string]Experiment{
		"E1":  Fixed("E1", Figure1Summary),
		"E2":  e2Experiment(),
		"E3":  Fixed("E3", Theorem12Universal),
		"E4":  Fixed("E4", Theorem11Pigeonhole),
		"E5":  Fixed("E5", Theorem13Pipeline),
		"E6":  Fixed("E6", Theorem14IIS1Bit),
		"E7":  Fixed("E7", Figure4ISComplex),
		"E8":  Fixed("E8", Figure5Labels),
		"E9":  Fixed("E9", Figure6SimulatedIS),
		"E10": Fixed("E10", Theorem81Crossover),
		"E11": Fixed("E11", Figure3Ring),
		"E12": Fixed("E12", Lemma22Convergence),
		"E13": Fixed("E13", Theorem12Fast),
		"E14": Fixed("E14", Lemma23Substrates),
		"E15": e15Experiment(),
	}
}

// IDs returns the experiment ids in order.
func IDs() []string { return sortIDs(registry) }

// IDsOf returns a registry's experiment ids in index order ("E2"
// before "E10"); nil means the built-in registry. Callers that accept
// a registry override (the server index, the shard coordinator, tests)
// use it to list and expand "run everything" the same way Run does.
func IDsOf(reg map[string]Experiment) []string {
	if reg == nil {
		reg = registry
	}
	return sortIDs(reg)
}

// sortIDs returns a registry's ids sorted by numeric suffix ("E2" before
// "E10"), falling back to lexicographic order for ids without one.
func sortIDs(reg map[string]Experiment) []string {
	ids := make([]string, 0, len(reg))
	for id := range reg {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool {
		na, ea := strconv.Atoi(strings.TrimLeft(ids[a], "E"))
		nb, eb := strconv.Atoi(strings.TrimLeft(ids[b], "E"))
		if ea == nil && eb == nil && na != nb {
			return na < nb
		}
		if (ea == nil) != (eb == nil) {
			return ea == nil
		}
		return ids[a] < ids[b]
	})
	return ids
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		out := ""
		for i, c := range cells {
			out += fmt.Sprintf("%-*s  ", widths[i], c)
		}
		return out + "\n"
	}
	out := fmt.Sprintf("== %s: %s ==\n", t.ID, t.Title)
	out += line(t.Headers)
	for _, row := range t.Rows {
		out += line(row)
	}
	for _, n := range t.Notes {
		out += "  note: " + n + "\n"
	}
	return out
}

func itoa(v int) string { return strconv.Itoa(v) }

func rat(num, den int) string { return fmt.Sprintf("%d/%d", num, den) }
