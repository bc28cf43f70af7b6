package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// runCompare implements `bench compare A*.json [-- B*.json]`.
//
// With two sets of run files — A the parent, B the change — it reports
// for each metric and workload both medians and quartiles, the share
// of pairs (runs matched by position) B won, and a verdict: improved,
// worse, unchanged or unresolved. It exits 1 when any end-to-end
// verdict is worse or any run of B was not correct.
//
// With one set it prints the spread table: each metric's median,
// quartiles and spread (interquartile distance over median) against
// its bound, the host speed index the runs measured, and — when the set
// mixes untraced and traced runs — the tracing overhead on throughput.
func runCompare(args []string, stdout, stderr io.Writer) int {
	var a, b []string
	side := &a
	for _, arg := range args {
		if arg == "--" {
			side = &b
			continue
		}
		*side = append(*side, arg)
	}
	if len(a) == 0 {
		fmt.Fprintln(stderr, "usage: bench compare A.json... [-- B.json...]")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	sp, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	runsA, err := loadRuns(a)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if len(b) == 0 {
		spreadTable(stdout, sp, runsA)
		return 0
	}
	runsB, err := loadRuns(b)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return compareTable(stdout, sp, runsA, runsB)
}

func loadRuns(paths []string) ([]runFile, error) {
	runs := make([]runFile, 0, len(paths))
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rf runFile
		if err := json.Unmarshal(raw, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		runs = append(runs, rf)
	}
	return runs, nil
}

// value returns one metric of one workload of a run, and whether the
// run measured it: the workload ran correctly and the metric is not
// marked missing.
func value(r runFile, workload, name string) (float64, bool) {
	rep, ok := r.Workloads[workload]
	if !ok || !rep.Correct {
		return 0, false
	}
	if m, ok := rep.Metrics[name]; ok {
		_, missing := rep.Missing[name]
		return m.Value, !missing
	}
	m, ok := rep.Layers[name]
	return m.Value, ok
}

// values collects one metric of one workload across runs, in run
// order, skipping runs that did not measure it.
func values(runs []runFile, workload, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := value(r, workload, name); ok {
			out = append(out, v)
		}
	}
	return out
}

// pairs collects one metric of one workload from A's and B's runs
// paired by position, the i-th run of A with the i-th of B. A pair is
// kept only when both runs measured the metric, so a run that failed
// drops its pair and never shifts later runs onto other partners. Runs
// beyond the shorter side have no partner and are left out.
func pairs(a, b []runFile, workload, name string) (va, vb []float64) {
	for i := 0; i < min(len(a), len(b)); i++ {
		x, okA := value(a[i], workload, name)
		y, okB := value(b[i], workload, name)
		if okA && okB {
			va, vb = append(va, x), append(vb, y)
		}
	}
	return va, vb
}

// better reports whether x is better than y in the metric's direction.
func better(x, y float64, dir string) bool {
	if dir == "higher" {
		return x > y
	}
	return x < y
}

// verdict judges B (the change) against A (the parent) for one metric;
// a[i] and b[i] are a pair.
//
//   - improved: B wins at least nine tenths of the pairs (ties count
//     for neither side) and the medians differ, in B's favour, by more
//     than A's interquartile distance.
//   - unresolved: either side's spread exceeds the bound, unless every
//     run of B is better than every run of A.
//   - worse: B's median is worse than A's by more than the bound (for a
//     metric without a bound, the mirror image of improved).
//   - unchanged: anything else.
func verdict(a, b []float64, dir string, bound float64) (string, int, int) {
	n := min(len(a), len(b))
	wins, losses := 0, 0
	for i := 0; i < n; i++ {
		switch {
		case better(b[i], a[i], dir):
			wins++
		case better(a[i], b[i], dir):
			losses++
		}
	}
	if n == 0 {
		return "unresolved", 0, 0
	}
	ma, mb := median(a), median(b)
	q1, q3 := quartiles(a)
	gap := math.Abs(mb - ma)
	if 10*wins >= 9*n && better(mb, ma, dir) && gap > q3-q1 {
		return "improved", wins, n
	}
	if bound == 0 {
		if 10*losses >= 9*n && better(ma, mb, dir) && gap > q3-q1 {
			return "worse", wins, n
		}
		return "unchanged", wins, n
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			if !better(x, y, dir) {
				allBetter = false
			}
		}
	}
	if max(relSpread(a), relSpread(b)) > bound && !allBetter {
		return "unresolved", wins, n
	}
	if better(ma, mb, dir) && ma != 0 && gap/math.Abs(ma) > bound {
		return "worse", wins, n
	}
	return "unchanged", wins, n
}

func describe(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.6g [%.6g, %.6g]", median(xs), q1, q3)
}

func workloadsOf(sp *spec, runs ...[]runFile) []string {
	seen := map[string]bool{}
	for _, rs := range runs {
		for _, r := range rs {
			for w := range r.Workloads {
				seen[w] = true
			}
		}
	}
	var out []string
	for _, w := range sp.workloadNames() {
		if seen[w] {
			out = append(out, w)
		}
	}
	return out
}

func compareTable(w io.Writer, sp *spec, a, b []runFile) int {
	fmt.Fprintf(w, "A: %d runs, B: %d runs; verdicts follow choosing-metrics §8 (gain needs ≥9/10 pair wins and a median gap above A's IQR)\n", len(a), len(b))
	fmt.Fprintf(w, "%-7s %-34s %-36s %-36s %-7s %s\n", "load", "metric", "A median [q1, q3]", "B median [q1, q3]", "wins", "verdict")
	code := 0
	counts := map[string]int{}
	for _, wl := range workloadsOf(sp, a, b) {
		for _, side := range []struct {
			name string
			runs []runFile
		}{{"A", a}, {"B", b}} {
			for i, r := range side.runs {
				if rep, ok := r.Workloads[wl]; ok && !rep.Correct {
					// A failure in B is a regression whatever the numbers say.
					fmt.Fprintf(w, "%-7s %s run %d was not correct; its pair is left out\n", wl, side.name, i+1)
					if side.name == "B" {
						code = 1
					}
				}
			}
		}
		for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
			va, vb := pairs(a, b, wl, m.Name)
			if len(va) == 0 {
				continue
			}
			v, wins, n := verdict(va, vb, m.Better, m.Bound)
			counts[v]++
			if v == "worse" && m.Bound > 0 {
				code = 1
			}
			fmt.Fprintf(w, "%-7s %-34s %-36s %-36s %3d/%-3d %s\n", wl, m.Name+" ("+m.Unit+")", describe(va), describe(vb), wins, n, v)
		}
	}
	fmt.Fprintf(w, "verdicts: %d improved, %d worse, %d unchanged, %d unresolved\n",
		counts["improved"], counts["worse"], counts["unchanged"], counts["unresolved"])
	return code
}

func spreadTable(w io.Writer, sp *spec, runs []runFile) {
	if len(runs) > 0 {
		h := runs[0].Host
		fmt.Fprintf(w, "host: %d CPUs, GOMAXPROCS %d, %s, %s, kernel %s\n", h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.Kernel)
	}
	var untraced, traced []runFile
	for _, r := range runs {
		if r.Trace {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
	}
	fmt.Fprintf(w, "%d untraced runs, %d traced runs\n", len(untraced), len(traced))
	fmt.Fprintf(w, "%-7s %-34s %4s %-36s %8s %7s %-12s %s\n", "load", "metric", "n", "median [q1, q3]", "spread", "bound", "spread/bound", "raw spread")
	for _, wl := range workloadsOf(sp, runs) {
		for _, m := range sp.EndToEnd {
			xs := values(untraced, wl, m.Name)
			if len(xs) == 0 {
				continue
			}
			var raw []float64
			for _, r := range untraced {
				if rep, ok := r.Workloads[wl]; ok && rep.Correct {
					raw = append(raw, rep.Raw[m.Name].Value)
				}
			}
			s := relSpread(xs)
			fmt.Fprintf(w, "%-7s %-34s %4d %-36s %7.2f%% %6.0f%% %-12.2f %.2f%%\n", wl, m.Name+" ("+m.Unit+")", len(xs), describe(xs),
				100*s, 100*m.Bound, s/m.Bound, 100*relSpread(raw))
		}
		var speeds []float64
		for _, r := range untraced {
			if rep, ok := r.Workloads[wl]; ok && rep.Correct {
				speeds = append(speeds, rep.Speed)
			}
		}
		if len(speeds) > 0 {
			fmt.Fprintf(w, "%-7s %-34s %4d %s\n", wl, "host speed index", len(speeds), describe(speeds))
		}
		plain := values(untraced, wl, "throughput_ops_s")
		withTrace := values(traced, wl, "traced.throughput_ops_s")
		if len(plain) > 0 && len(withTrace) > 0 {
			fmt.Fprintf(w, "%-7s %-34s %4d %.2f%% throughput lost to tracing\n", wl, "bench.trace_overhead_frac", len(withTrace),
				100*(1-median(withTrace)/median(plain)))
		}
	}
	if len(traced) == 0 {
		return
	}
	fmt.Fprintf(w, "\nper-layer metrics (median of %d traced runs)\n", len(traced))
	for _, wl := range workloadsOf(sp, traced) {
		seen := map[string]bool{}
		var names []string
		for _, r := range traced {
			rep := r.Workloads[wl]
			for _, n := range append(sortedKeys(rep.Metrics), sortedKeys(rep.Layers)...) {
				if !seen[n] {
					seen[n] = true
					names = append(names, n)
				}
			}
		}
		sort.Strings(names)
		for _, n := range names {
			if xs := values(traced, wl, n); len(xs) > 0 {
				fmt.Fprintf(w, "%-7s %-34s %.6g\n", wl, n, median(xs))
			}
		}
	}
}
