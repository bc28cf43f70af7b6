// Command bench is the repository's benchmark of record. It builds
// cmd/figures and cmd/figuresd from the tree it sits in and drives
// them only through their command-line flags and HTTP wire forms,
// under four workloads:
//
//	sweep  back-to-back `figures` regenerations of the paper's tables
//	warm   two clients over a pre-filled figuresd artifact store
//	cold   one client over a cacheless figuresd, every request explores
//	fleet  two clients through a -peers front door over two warm workers
//
// Every answer is checked against reference bytes computed by
// `figures` itself. A window alternates cycles of the workload with
// slices of a host speed probe (probe.go), and the timing metrics are
// normalised by the host speed the probe measured. An untraced run
// reports the end-to-end metrics of BENCHMARK.json; a traced run
// (-trace) adds timing proxies, /stats scrapes and the in-process layer
// ladder (./ladder) and reports the per-layer metrics. Usage, from the
// repository root:
//
//	sh bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace] [-o FILE]
//	sh bench/run.sh compare A*.json [-- B*.json]
//
// The last line of standard output is one JSON object per workload
// with the keys correct, attempted, failed and metrics. The process
// exits non-zero when any answer is wrong or any request fails.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

func main() {
	probeMain(os.Args[1:])
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// env is one benchmark run's context: where the checkout and the
// binaries are, the workload settings, and the processes it owns.
type env struct {
	root     string // checkout root
	build    string // .bench_build under root
	work     string // scratch directory of this run, removed at the end
	figures  string
	figuresd string
	spec     *spec
	seed     int64
	window   time.Duration
	trace    bool
	log      io.Writer
	refs     *refs
	procs    procs
	// The host speed probe of the workload being run.
	probeBase   string
	probeClient *http.Client
	// The layer ladder's metrics, measured once per traced run, and the
	// reason any are missing.
	rungs     map[string]float64
	ladderErr string
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run one workload (default: all, in BENCHMARK.json order)")
		seed     = fs.Int64("seed", 1, "workload seed: shuffles each workload's rotation order")
		seconds  = fs.Int("seconds", 0, "measurement window per workload (0 = BENCHMARK.json run_seconds)")
		traced   = fs.Bool("trace", false, "traced run: report the per-layer metrics instead of the end-to-end ones")
		outFile  = fs.String("o", "", "also write the run, with host details, to this JSON file")
	)
	if err := fs.Parse(joinBoolValues(args, "trace")); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
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
	names := sp.workloadNames()
	if *workload != "" {
		if !contains(names, *workload) {
			fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *workload, strings.Join(names, ", "))
			return 2
		}
		names = []string{*workload}
	}
	for _, name := range names {
		if workloadFunc(name) == nil {
			fmt.Fprintf(stderr, "bench: BENCHMARK.json names workload %q, which this driver does not implement\n", name)
			return 1
		}
	}
	if *seconds <= 0 {
		*seconds = sp.RunSeconds
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e := &env{
		root:   root,
		build:  filepath.Join(root, ".bench_build"),
		spec:   sp,
		seed:   *seed,
		window: time.Duration(*seconds) * time.Second,
		trace:  *traced,
		log:    stderr,
	}
	defer func() {
		e.procs.stopAll()
		if e.work != "" {
			os.RemoveAll(e.work)
		}
	}()
	if err := e.prepare(ctx); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	rf := runFile{Host: hostInfo(), Seed: *seed, Seconds: *seconds, Trace: *traced, Workloads: map[string]report{}}
	code := 0
	for _, name := range names {
		fmt.Fprintf(stderr, "bench: %s: seed %d, %ds window, trace %v\n", name, *seed, *seconds, *traced)
		err := e.startProbe(ctx)
		var rep *report
		if err == nil {
			rep, err = workloadFunc(name)(e, ctx)
		}
		if err != nil {
			// A workload that could not run has no trustworthy numbers:
			// it reports no metrics and fails the run.
			rep = &report{result: result{Metrics: map[string]metric{}}, Errors: []string{err.Error()}}
		}
		e.procs.stopAll()
		if err := e.finish(name, rep); err != nil {
			rep.Errors = append(rep.Errors, err.Error())
			rep.Correct = false
		}
		rf.Workloads[name] = *rep
		printReport(stdout, name, rep)
		if !rep.Correct {
			code = 1
		}
	}
	if *outFile != "" {
		if err := writeJSON(*outFile, rf); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			code = 1
		}
	}
	return code
}

// workloadFunc maps a workload name to its implementation.
func workloadFunc(name string) func(*env, context.Context) (*report, error) {
	switch name {
	case "sweep":
		return (*env).sweep
	case "warm":
		return (*env).warm
	case "cold":
		return (*env).cold
	case "fleet":
		return (*env).fleet
	}
	return nil
}

// finish checks that a report carries exactly the metrics
// BENCHMARK.json declares for its mode, with their declared units, and
// settles correctness: a report is correct when it attempted at least
// one operation and nothing failed.
func (e *env) finish(name string, rep *report) error {
	rep.Correct = rep.Attempted > 0 && rep.Failed == 0 && len(rep.Errors) == 0
	if len(rep.Metrics) == 0 && len(rep.Errors) > 0 {
		return nil
	}
	want := e.spec.EndToEnd
	if e.trace {
		want = e.spec.PerLayer
	}
	var problems []string
	for _, m := range want {
		got, ok := rep.Metrics[m.Name]
		switch {
		case !ok:
			problems = append(problems, m.Name+" not measured")
		case got.Unit != m.Unit:
			problems = append(problems, fmt.Sprintf("%s in %s, declared %s", m.Name, got.Unit, m.Unit))
		}
	}
	if len(rep.Metrics) != len(want) {
		problems = append(problems, fmt.Sprintf("%d metrics, declared %d", len(rep.Metrics), len(want)))
	}
	if len(problems) > 0 {
		return fmt.Errorf("%s: %s", name, strings.Join(problems, "; "))
	}
	return nil
}

// printReport writes a workload's metrics one per line, by name with
// unit, then its result as the one-line JSON object.
func printReport(w io.Writer, name string, rep *report) {
	fmt.Fprintf(w, "workload %s: %d attempted, %d failed, %d latency samples\n", name, rep.Attempted, rep.Failed, rep.Samples)
	for _, k := range sortedKeys(rep.Metrics) {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
	for _, k := range sortedKeys(rep.Layers) {
		fmt.Fprintf(w, "  %-34s %14.6g %s (layer)\n", k, rep.Layers[k].Value, rep.Layers[k].Unit)
	}
	for _, k := range sortedKeys(rep.Missing) {
		fmt.Fprintf(w, "  %-34s missing: %s\n", k, rep.Missing[k])
	}
	for _, msg := range rep.Errors {
		fmt.Fprintf(w, "  error: %s\n", msg)
	}
	line, _ := json.Marshal(rep.result)
	fmt.Fprintf(w, "%s\n", line)
}

// prepare builds the binaries under test into .bench_build and loads
// (or computes once per build) the reference bytes and the fleet's
// carve. None of it counts toward any metric.
func (e *env) prepare(ctx context.Context) error {
	bin := filepath.Join(e.build, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(e.build, "run-")
	if err != nil {
		return err
	}
	e.work = work
	e.figures = filepath.Join(bin, "figures")
	e.figuresd = filepath.Join(bin, "figuresd")
	build := exec.CommandContext(ctx, "go", "build", "-o", bin+string(filepath.Separator), "./cmd/figures", "./cmd/figuresd")
	build.Dir = e.root
	build.Stdout, build.Stderr = e.log, e.log
	if err := build.Run(); err != nil {
		return fmt.Errorf("building cmd/figures and cmd/figuresd: %w", err)
	}
	e.refs, err = e.loadRefs(ctx)
	return err
}

// findRoot locates the checkout: the directory holding BENCHMARK.json,
// either the working directory or its parent (go run from bench/).
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("no BENCHMARK.json here or in the parent directory; run from the repository root")
}

// joinBoolValues rewrites "-name 0" and "--name 1" as "-name=0" so a
// boolean flag also takes the separate 0/1 value the benchmark
// harness passes, while a bare "-name" still means true.
func joinBoolValues(args []string, name string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-"+name || a == "--"+name) && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, a+"="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// tmp returns a fresh directory under the run's scratch directory.
func (e *env) tmp(name string) (string, error) {
	return os.MkdirTemp(e.work, name+"-")
}

// logPath names a daemon log file in the run's scratch directory.
func (e *env) logPath(name string) string {
	return filepath.Join(e.work, name+".log")
}
