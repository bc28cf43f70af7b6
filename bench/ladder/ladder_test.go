// Package ladder is the benchmark's layer ladder: one Go benchmark per
// layer, each calling that layer's public functions in-process. Every
// rung reports its result under the name of the per-layer metric it
// measures in BENCHMARK.json (sched.step_ns, cache.get_us, ...), as a
// custom benchmark unit for people reading `go test -bench` output and,
// at full precision, in the JSON file -ladder.out names. The driver's
// traced mode runs
//
//	go test -c ./ladder && ladder.test -test.bench . -test.benchtime 300ms -ladder.out FILE
//
// The rungs bind to the repository's Go API, which refactors may
// change; when the ladder no longer builds, only the layer numbers go
// missing.
package ladder

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/agreement"
	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/hist"
	"repro/internal/sched"
	"repro/internal/task"
	"repro/internal/trace"
)

var outFile = flag.String("ladder.out", "", "write every rung's metric as JSON to this file")

// rungs holds each metric's value from the last (largest b.N) run of
// its benchmark; benchmarks run one at a time.
var rungs = map[string]float64{}

func TestMain(m *testing.M) {
	code := m.Run()
	if *outFile != "" {
		raw, err := json.Marshal(rungs)
		if err == nil {
			err = os.WriteFile(*outFile, raw, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "ladder:", err)
			code = 1
		}
	}
	os.Exit(code)
}

// record reports one rung's metric.
func record(b *testing.B, name string, v float64) {
	b.ReportMetric(v, name)
	rungs[name] = v
}

// perOp returns the mean time of one b.N iteration divided by scale
// nanoseconds (1 for ns, 1e3 for µs, 1e6 for ms, 1e9 for s).
func perOp(b *testing.B, scale float64) float64 {
	return float64(b.Elapsed().Nanoseconds()) / float64(b.N) / scale
}

// e2 is the material several rungs share: E2's table (Algorithm 1's
// exhaustive k = 4 sweep) and its four-range carve with each range's
// explored aggregate on the wire — the slices a two-worker fleet
// fetches.
var e2 struct {
	once     sync.Once
	err      error
	result   experiments.Result
	sh       experiments.Shardable
	ranges   [][][]int
	prefixes []string
	wire     [][]byte
}

func loadE2(b *testing.B) {
	b.Helper()
	e2.once.Do(func() {
		tab, _, err := experiments.Figure2ExecutionsReduced(1)
		if err != nil {
			e2.err = err
			return
		}
		e2.result = experiments.Result{ID: "E2", Table: tab}
		e2.sh = experiments.Shardables()["E2"]
		roots, err := e2.sh.Roots()
		if err != nil {
			e2.err = err
			return
		}
		for i := 0; i < 4; i++ {
			r := roots[i*len(roots)/4 : (i+1)*len(roots)/4]
			agg, err := e2.sh.Explore(r)
			if err != nil {
				e2.err = err
				return
			}
			env, err := experiments.NewShardEnvelope("E2", "", r, agg)
			if err != nil {
				e2.err = err
				return
			}
			e2.ranges = append(e2.ranges, r)
			e2.prefixes = append(e2.prefixes, env.Prefixes)
			e2.wire = append(e2.wire, env.Aggregate)
		}
	})
	if e2.err != nil {
		b.Fatal(e2.err)
	}
	b.ResetTimer()
}

// BenchmarkSchedStep: one scheduler-gated step, the simulator's unit
// of work.
func BenchmarkSchedStep(b *testing.B) {
	const steps = 1000
	procs := []sched.ProcFunc{func(p *sched.Proc) error {
		for i := 0; i < steps; i++ {
			p.Step()
		}
		return nil
	}}
	for i := 0; i < b.N; i++ {
		if _, err := sched.Run(sched.Config{Scheduler: sched.Lowest{}}, procs); err != nil {
			b.Fatal(err)
		}
	}
	record(b, "sched.step_ns", perOp(b, steps))
}

// BenchmarkReplay: one Algorithm 1 execution at k = 4, E2's instance.
func BenchmarkReplay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := agreement.RunAlg1(4, [2]uint64{0, 1}, &sched.RoundRobin{}); err != nil {
			b.Fatal(err)
		}
	}
	record(b, "sched.replay_us", perOp(b, 1e3))
}

var sinkKey sched.StateKey

// BenchmarkCanonKey: one canonical state key of a two-process state.
func BenchmarkCanonKey(b *testing.B) {
	var c sched.Canonicalizer
	for i := 0; i < b.N; i++ {
		c.Reset()
		c.Global(uint64(i), 3)
		c.Proc(uint64(i) * 0x9e3779b97f4a7c15)
		c.Proc(uint64(i) ^ 0x5bd1e995)
		sinkKey = c.Key()
	}
	record(b, "sched.canon_key_ns", perOp(b, 1))
}

// BenchmarkExploreE2: E2's exhaustive interleaving sweep (22,080
// executions), serial.
func BenchmarkExploreE2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := agreement.ExploreAlg1(4, [2]uint64{0, 1}, func(*agreement.Alg1Run) {}); err != nil {
			b.Fatal(err)
		}
	}
	record(b, "agreement.explore_e2_ms", perOp(b, 1e6))
}

// BenchmarkMemoE2: the same space through the canonical-state memo,
// with the replays and states it took.
func BenchmarkMemoE2(b *testing.B) {
	var st sched.MemoStats
	for i := 0; i < b.N; i++ {
		var err error
		if _, st, err = agreement.ExploreAlg1Memo(4, [2]uint64{0, 1}, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
	record(b, "agreement.memo_e2_ms", perOp(b, 1e6))
	record(b, "agreement.memo_e2_replays", float64(st.Replays))
	record(b, "agreement.memo_e2_states", float64(st.StatesVisited))
}

// BenchmarkExploreE15: E15's exhaustive Algorithm 2 sweep on the
// two-value choice task, input (0, 1).
func BenchmarkExploreE15(b *testing.B) {
	tk := task.ChoiceTask(2)
	sub, ok := tk.FindSolvableSubset()
	if !ok {
		b.Fatal("choice task not solvable")
	}
	plan, err := tk.BuildPlan(sub)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := task.ExploreAlg2(plan, task.Pair{0, 1}); err != nil {
			b.Fatal(err)
		}
	}
	record(b, "task.explore_e15_ms", perOp(b, 1e6))
}

// The sweep rungs run the experiment engine in-process over one
// experiment at a time: the four that dominate a `figures` sweep by
// name, every other default experiment together as "rest".
var sweepNamed = []string{"E2", "E4", "E5", "E15"}

func benchSweep(b *testing.B, ids []string, name string) {
	for i := 0; i < b.N; i++ {
		results, err := experiments.Run(context.Background(), experiments.Options{IDs: ids, Jobs: 1})
		if err == nil {
			err = experiments.FirstError(results)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	record(b, name, perOp(b, 1e9))
}

func BenchmarkSweepE2(b *testing.B)  { benchSweep(b, []string{"E2"}, "experiments.sweep.E2_s") }
func BenchmarkSweepE4(b *testing.B)  { benchSweep(b, []string{"E4"}, "experiments.sweep.E4_s") }
func BenchmarkSweepE5(b *testing.B)  { benchSweep(b, []string{"E5"}, "experiments.sweep.E5_s") }
func BenchmarkSweepE15(b *testing.B) { benchSweep(b, []string{"E15"}, "experiments.sweep.E15_s") }

func BenchmarkSweepRest(b *testing.B) {
	var rest []string
	for _, id := range experiments.IDs() {
		named := false
		for _, n := range sweepNamed {
			named = named || n == id
		}
		if !named {
			rest = append(rest, id)
		}
	}
	benchSweep(b, rest, "experiments.sweep.rest_s")
}

func openStore(b *testing.B) *cache.Store {
	b.Helper()
	s, err := cache.Open(b.TempDir(), cache.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkCacheGet: a warm whole-result read of E2.
func BenchmarkCacheGet(b *testing.B) {
	loadE2(b)
	s := openStore(b)
	if err := s.Put("E2", e2.result); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get("E2"); !ok {
			b.Fatal("warm read missed")
		}
	}
	record(b, "cache.get_us", perOp(b, 1e3))
}

// BenchmarkCachePut: one atomic write of E2's result.
func BenchmarkCachePut(b *testing.B) {
	loadE2(b)
	s := openStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put("E2", e2.result); err != nil {
			b.Fatal(err)
		}
	}
	record(b, "cache.put_us", perOp(b, 1e3))
}

// BenchmarkCacheGetSlice: a warm read of one E2 quarter-range slice,
// decoded the way the server and coordinator use it.
func BenchmarkCacheGetSlice(b *testing.B) {
	loadE2(b)
	s := openStore(b)
	agg, err := e2.sh.Decode(e2.wire[0])
	if err != nil {
		b.Fatal(err)
	}
	env, err := experiments.NewShardEnvelope("E2", "", e2.ranges[0], agg)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.PutSlice(env); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, ok := s.GetSlice("E2", "", e2.prefixes[0])
		if !ok {
			b.Fatal("warm slice missed")
		}
		if _, err := e2.sh.Decode(got.Aggregate); err != nil {
			b.Fatal(err)
		}
	}
	record(b, "cache.get_slice_us", perOp(b, 1e3))
}

func benchEncode(b *testing.B, enc func(io.Writer, []experiments.Result) error, unit string) {
	loadE2(b)
	rs := []experiments.Result{e2.result}
	for i := 0; i < b.N; i++ {
		if err := enc(io.Discard, rs); err != nil {
			b.Fatal(err)
		}
	}
	record(b, unit, perOp(b, 1e3))
}

// BenchmarkEncodeText, BenchmarkEncodeJSON and BenchmarkEncodeCSV:
// E2's table in each wire format.
func BenchmarkEncodeText(b *testing.B) {
	benchEncode(b, experiments.EncodeText, "experiments.encode_text_us")
}

func BenchmarkEncodeJSON(b *testing.B) {
	benchEncode(b, experiments.EncodeJSON, "experiments.encode_json_us")
}

func BenchmarkEncodeCSV(b *testing.B) {
	benchEncode(b, experiments.EncodeCSV, "experiments.encode_csv_us")
}

// BenchmarkDecodeJSON: E2's JSON wire form back into a result, the
// coordinator's whole-fetch and the cache's read path.
func BenchmarkDecodeJSON(b *testing.B) {
	loadE2(b)
	var raw bytes.Buffer
	if err := experiments.EncodeJSON(&raw, []experiments.Result{e2.result}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.DecodeJSON(bytes.NewReader(raw.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
	record(b, "experiments.decode_json_us", perOp(b, 1e3))
}

// BenchmarkParsePrefixes: one quarter-range prefix set, as a worker
// parses it from a slice request.
func BenchmarkParsePrefixes(b *testing.B) {
	loadE2(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ParsePrefixes(e2.prefixes[0]); err != nil {
			b.Fatal(err)
		}
	}
	record(b, "experiments.parse_prefixes_us", perOp(b, 1e3))
}

// BenchmarkMergeE2: the coordinator's merge of a four-range E2 carve —
// four Decodes, three Merges, one Finish.
func BenchmarkMergeE2(b *testing.B) {
	loadE2(b)
	for i := 0; i < b.N; i++ {
		merged, err := e2.sh.Decode(e2.wire[0])
		if err != nil {
			b.Fatal(err)
		}
		for _, w := range e2.wire[1:] {
			agg, err := e2.sh.Decode(w)
			if err != nil {
				b.Fatal(err)
			}
			if err := merged.Merge(agg); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := e2.sh.Finish(merged); err != nil {
			b.Fatal(err)
		}
	}
	record(b, "experiments.merge_e2_us", perOp(b, 1e3))
}

// BenchmarkHistRecord: one latency observation into a histogram.
func BenchmarkHistRecord(b *testing.B) {
	h := hist.New()
	for i := 0; i < b.N; i++ {
		h.Record(time.Duration(i&0xfffff) * time.Microsecond)
	}
	record(b, "hist.record_ns", perOp(b, 1))
}

// BenchmarkTraceAdd: one event into the span journal, 256 events per
// request ID so the ring's start and eviction paths run too.
func BenchmarkTraceAdd(b *testing.B) {
	j := trace.NewJournal(0, 0)
	ids := make([]string, 1024)
	for i := range ids {
		ids[i] = "req-" + strconv.Itoa(i)
	}
	ev := trace.Event{Kind: trace.KindFetch, Worker: "http://127.0.0.1:1", Detail: "fetched slice"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.Add(ids[(i/256)%len(ids)], ev)
	}
	record(b, "trace.add_ns", perOp(b, 1))
}
