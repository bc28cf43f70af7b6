package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// fetchRec is one request a timing proxy forwarded: the coordinator's
// fetch of a range or a whole table from one worker.
type fetchRec struct {
	id         string
	path       string
	start, end time.Time
	bytes      int64
	status     int
	body       []byte
}

// proxy is a timing reverse proxy in front of one worker. It records
// every forwarded request under the Repro-Request-ID the coordinator
// propagates, so each fetch can be tied to the client request that
// caused it.
type proxy struct {
	addr string
	srv  *http.Server
	tr   *http.Transport
	done chan struct{}

	mu   sync.Mutex
	recs []fetchRec
}

func startProxy(target string, keepBodies bool) (*proxy, error) {
	u, err := url.Parse(target)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &proxy{
		addr: ln.Addr().String(),
		tr:   &http.Transport{Proxy: nil, MaxIdleConnsPerHost: 64, DisableCompression: true},
		done: make(chan struct{}),
	}
	rp := httputil.NewSingleHostReverseProxy(u)
	rp.Transport = p.tr
	p.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rw := &recordingWriter{ResponseWriter: w, status: http.StatusOK, keep: keepBodies}
		start := time.Now()
		rp.ServeHTTP(rw, r)
		rec := fetchRec{
			id: r.Header.Get("Repro-Request-ID"), path: r.URL.RequestURI(),
			start: start, end: time.Now(), bytes: rw.n, status: rw.status, body: rw.body.Bytes(),
		}
		p.mu.Lock()
		p.recs = append(p.recs, rec)
		p.mu.Unlock()
	})}
	go func() {
		p.srv.Serve(ln)
		close(p.done)
	}()
	return p, nil
}

// close stops the proxy, waits for its server to return and drops
// its connections to the worker.
func (p *proxy) close() {
	p.srv.Close()
	<-p.done
	p.tr.CloseIdleConnections()
}

func (p *proxy) records() []fetchRec {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]fetchRec(nil), p.recs...)
}

// recordingWriter counts (and optionally keeps) a response's bytes.
type recordingWriter struct {
	http.ResponseWriter
	status int
	n      int64
	keep   bool
	body   bytes.Buffer
}

func (w *recordingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *recordingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	if w.keep {
		w.body.Write(b[:n])
	}
	return n, err
}

func (w *recordingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// statsWire is the part of a figuresd /stats body the benchmark reads.
type statsWire struct {
	Cache     *cacheWire          `json:"cache"`
	Endpoints map[string]histWire `json:"endpoints"`
}

type cacheWire struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	SliceHits   int64 `json:"slice_hits"`
	SliceMisses int64 `json:"slice_misses"`
	SliceStores int64 `json:"slice_stores"`
	Corrupt     int64 `json:"corrupt"`
	Evicted     int64 `json:"evicted"`
}

func (c cacheWire) minus(o cacheWire) cacheWire {
	return cacheWire{c.Hits - o.Hits, c.Misses - o.Misses, c.SliceHits - o.SliceHits,
		c.SliceMisses - o.SliceMisses, c.SliceStores - o.SliceStores, c.Corrupt - o.Corrupt, c.Evicted - o.Evicted}
}

func (c cacheWire) plus(o cacheWire) cacheWire {
	return cacheWire{c.Hits + o.Hits, c.Misses + o.Misses, c.SliceHits + o.SliceHits,
		c.SliceMisses + o.SliceMisses, c.SliceStores + o.SliceStores, c.Corrupt + o.Corrupt, c.Evicted + o.Evicted}
}

// histWire is one latency histogram on /stats: non-empty log buckets,
// each with its inclusive upper bound in milliseconds.
type histWire struct {
	Count     int64   `json:"count"`
	SumMillis float64 `json:"sum_ms"`
	Buckets   []struct {
		Le    float64 `json:"le_ms"`
		Count int64   `json:"count"`
	} `json:"buckets"`
}

func scrapeStats(ctx context.Context, client *http.Client, base string) (statsWire, error) {
	var st statsWire
	body, err := get(ctx, client, base, "/stats", "")
	if err != nil {
		return st, fmt.Errorf("/stats: %w", err)
	}
	return st, json.Unmarshal(body, &st)
}

func (s statsWire) cache() cacheWire {
	if s.Cache == nil {
		return cacheWire{}
	}
	return *s.Cache
}

// buckets is a latency histogram as bucket upper bound → count.
type buckets map[float64]int64

// scrape is one daemon's /stats before and after a window.
type scrape struct{ before, after statsWire }

// endpointDelta returns the requests the daemons recorded between
// their two scrapes, for the named endpoints (all when none are
// named), merged into one histogram.
func endpointDelta(scrapes []scrape, names ...string) buckets {
	out := buckets{}
	for _, s := range scrapes {
		for name, h := range s.after.Endpoints {
			if len(names) > 0 && !contains(names, name) {
				continue
			}
			for _, b := range h.Buckets {
				out[b.Le] += b.Count
			}
			for _, b := range s.before.Endpoints[name].Buckets {
				out[b.Le] -= b.Count
			}
		}
	}
	return out
}

// endpointMean returns the exact mean in-process time, in
// milliseconds, of the requests the daemons served between their two
// scrapes, from the histograms' running sums and counts.
func endpointMean(scrapes []scrape) float64 {
	var sum float64
	var n int64
	for _, s := range scrapes {
		for name, h := range s.after.Endpoints {
			b := s.before.Endpoints[name]
			sum += h.SumMillis - b.SumMillis
			n += h.Count - b.Count
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// bucketGrowth is the histogram's ratio between adjacent bucket
// bounds (four buckets per octave).
var bucketGrowth = math.Pow(2, 0.25)

// quantile estimates the q-quantile of a bucketed histogram,
// interpolating linearly inside the bucket that holds the rank. The
// second result is the observation count.
func (b buckets) quantile(q float64) (float64, int64) {
	les := make([]float64, 0, len(b))
	var total int64
	for le, n := range b {
		if n > 0 {
			les = append(les, le)
			total += n
		}
	}
	if total == 0 {
		return 0, 0
	}
	sort.Float64s(les)
	rank := q * float64(total)
	var seen float64
	for _, le := range les {
		n := float64(b[le])
		if seen+n >= rank {
			lo := le / bucketGrowth
			return lo + (rank-seen)/n*(le-lo), total
		}
		seen += n
	}
	return les[len(les)-1], total
}

// layerSet accumulates a traced run's layer metrics: those
// BENCHMARK.json lists go to the result, the rest to the report, and a
// metric that cannot be measured carries its reason.
type layerSet struct {
	values  map[string]metric
	missing map[string]string
	// unmeasured is the reason given for a declared metric that nothing
	// measured and nothing explained, such as a ladder that failed.
	unmeasured string
}

func newLayerSet() *layerSet {
	return &layerSet{values: map[string]metric{}, missing: map[string]string{}}
}

func (l *layerSet) set(name, unit string, v float64) { l.values[name] = metric{Value: v, Unit: unit} }

func (l *layerSet) miss(reason string, names ...string) {
	for _, n := range names {
		l.missing[n] = reason
	}
}

// apply moves the layer metrics into a report: every per-layer metric
// BENCHMARK.json declares becomes a result metric (0 when missing, the
// reason kept beside it), every other one a report layer.
func (l *layerSet) apply(sp *spec, rep *report) {
	rep.Metrics = map[string]metric{}
	rep.Layers = map[string]metric{}
	rep.Missing = map[string]string{}
	declared := map[string]bool{}
	for _, m := range sp.PerLayer {
		declared[m.Name] = true
		v, ok := l.values[m.Name]
		if !ok {
			v = metric{Unit: m.Unit}
			reason := l.missing[m.Name]
			if reason == "" {
				reason = l.unmeasured
			}
			if reason == "" {
				reason = "not measured"
			}
			rep.Missing[m.Name] = reason
		}
		rep.Metrics[m.Name] = v
	}
	for name, v := range l.values {
		if !declared[name] {
			rep.Layers[name] = v
		}
	}
	for name, reason := range l.missing {
		if !declared[name] {
			rep.Missing[name] = reason
		}
	}
}

// serverLayers records the serving layer's own view of the window:
// the mean in-process time per request of the daemon the clients talk
// to (edge), exact from the histograms' running sums; the wire time
// between that and the client's mean latency; and, estimated from the
// histogram buckets, each endpoint class's p50 and p99. Slices come
// from the inner daemons (a fleet's workers) when there are any.
func serverLayers(ls *layerSet, edge, inner []scrape, clientMean float64) {
	mean := endpointMean(edge)
	ls.set("server.mean_ms", "ms", mean)
	ls.set("server.wire_mean_ms", "ms", clientMean-mean)
	for _, ep := range []string{"experiment", "param", "slice"} {
		src := edge
		if ep == "slice" && len(inner) > 0 {
			src = inner
		}
		h := endpointDelta(src, ep)
		if _, n := h.quantile(0.5); n == 0 {
			ls.miss("this workload sends no "+ep+" requests to this daemon", "server."+ep+".p50_ms", "server."+ep+".p99_ms")
			continue
		}
		q50, _ := h.quantile(0.50)
		q99, _ := h.quantile(0.99)
		ls.set("server."+ep+".p50_ms", "ms", q50)
		ls.set("server."+ep+".p99_ms", "ms", q99)
	}
}

// cacheLayers records the artifact store's traffic over the window.
func cacheLayers(ls *layerSet, d cacheWire, ops int) {
	lookups := d.Hits + d.Misses + d.SliceHits + d.SliceMisses
	rate := 0.0
	if lookups > 0 {
		rate = float64(d.Hits+d.SliceHits) / float64(lookups)
	}
	ls.set("cache.hit_rate", "ratio", rate)
	ls.set("cache.misses_per_op", "count", float64(d.Misses+d.SliceMisses)/float64(max(ops, 1)))
	if d.SliceHits+d.SliceMisses > 0 {
		ls.set("cache.slice_hit_rate", "ratio", float64(d.SliceHits)/float64(d.SliceHits+d.SliceMisses))
	} else {
		ls.miss("no slice lookups on this workload", "cache.slice_hit_rate")
	}
	// /stats counts the stores of slices only.
	ls.set("cache.stores_per_op", "count", float64(d.SliceStores)/float64(max(ops, 1)))
	ls.set("cache.corrupt", "count", float64(d.Corrupt))
	ls.set("cache.evicted", "count", float64(d.Evicted))
}

// noShard marks the shard layer's metrics on a workload without a
// coordinator: no op fetches anything, so the counts are zero and the
// timings do not exist.
func noShard(ls *layerSet) {
	ls.set("shard.fetches_per_op", "count", 0)
	ls.set("shard.coalesced_frac", "ratio", 0)
	ls.miss("no shard coordinator on this workload's path",
		"shard.fetch.p50_ms", "shard.fetch.p99_ms", "shard.fetch_bytes_per_op", "shard.fanout_skew.p50_ms",
		"shard.self.p50_ms", "shard.self.p99_ms", "shard.fetch_errors")
	ls.miss("no front door over workers on this workload",
		"figuresd.front.cpu_ms_per_op", "figuresd.front.rss_mb", "figuresd.worker.cpu_ms_per_op", "figuresd.worker.rss_mb")
}

// shardLayers ties each client request to the fetches its front door
// made (grouped by Repro-Request-ID) and records the coordinator's
// fan-out. A request that was not coalesced into another's flight must
// fetch exactly its carve; any other count is a failure.
func shardLayers(ls *layerSet, samples []sample, ops []op, recs []fetchRec, fails *failures) {
	byID := map[string][]fetchRec{}
	var fetchMs []float64
	var fetchBytes, fetchErrors int64
	for _, r := range recs {
		if !strings.HasPrefix(r.id, "bench-") {
			continue // health and load probes
		}
		byID[r.id] = append(byID[r.id], r)
		fetchMs = append(fetchMs, millis(r.end.Sub(r.start)))
		fetchBytes += r.bytes
		if r.status != http.StatusOK {
			fetchErrors++
		}
	}
	var skews, selfs []float64
	coalesced, fetching := 0, 0
	for _, s := range samples {
		fs := byID[s.id]
		if len(fs) == 0 {
			coalesced++
			continue
		}
		fetching++
		if want := ops[s.op].fetches; len(fs) != want {
			fails.add("%s: the front door made %d fetches, want its carve of %d", ops[s.op].name, len(fs), want)
		}
		ivs := make([]interval, len(fs))
		lo, hi := time.Duration(math.MaxInt64), time.Duration(0)
		for i, f := range fs {
			ivs[i] = interval{f.start, f.end}
			d := f.end.Sub(f.start)
			lo, hi = min(lo, d), max(hi, d)
		}
		if len(fs) > 1 {
			skews = append(skews, millis(hi-lo))
		}
		selfs = append(selfs, millis(selfTime(interval{s.start, s.end}, ivs)))
	}
	ls.set("shard.fetches_per_op", "count", float64(len(fetchMs))/float64(max(fetching, 1)))
	ls.set("shard.coalesced_frac", "ratio", float64(coalesced)/float64(max(len(samples), 1)))
	ls.set("shard.fetch.p50_ms", "ms", percentile(fetchMs, 0.50))
	ls.set("shard.fetch.p99_ms", "ms", percentile(fetchMs, 0.99))
	ls.set("shard.fetch_bytes_per_op", "bytes", float64(fetchBytes)/float64(max(fetching, 1)))
	ls.set("shard.fanout_skew.p50_ms", "ms", percentile(skews, 0.50))
	ls.set("shard.self.p50_ms", "ms", percentile(selfs, 0.50))
	ls.set("shard.self.p99_ms", "ms", percentile(selfs, 0.99))
	ls.set("shard.fetch_errors", "count", float64(fetchErrors))
}

// totalLine matches the `figures -v` line with the process's own
// time for the whole run.
var totalLine = regexp.MustCompile(`(?m)^figures: total\s+([0-9.]+)s`)

// figuresTotal parses that line from figures' standard error, in
// milliseconds.
func figuresTotal(stderr []byte) (float64, bool) {
	m := totalLine.FindSubmatch(stderr)
	if m == nil {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	return 1000 * v, err == nil
}

// oneLine folds a command's output onto one line for a report.
func oneLine(b []byte) string { return strings.Join(strings.Fields(string(b)), " ") }

// ladderTime bounds each rung of the layer ladder.
const ladderTime = "300ms"

// ladder records the in-process layer benchmarks' metrics (./ladder)
// in ls. The rungs do not depend on the workload, so a run builds and
// runs the ladder once, for its first traced workload, and every later
// workload reuses those numbers.
func (e *env) ladder(ctx context.Context, ls *layerSet) {
	if e.rungs == nil {
		e.rungs, e.ladderErr = e.runLadder(ctx)
	}
	ls.unmeasured = e.ladderErr
	for _, m := range e.spec.PerLayer {
		if v, ok := e.rungs[m.Name]; ok {
			ls.set(m.Name, m.Unit, v)
		}
	}
}

// runLadder builds and runs the ladder, which writes each rung's
// metric, named as in BENCHMARK.json, to a JSON file. A ladder that no
// longer builds against the repository, or fails, leaves its metrics
// missing with the reason it returns; the end-to-end workloads do not
// depend on it.
func (e *env) runLadder(ctx context.Context) (map[string]float64, string) {
	rungs := map[string]float64{}
	bin := filepath.Join(e.build, "bin", "ladder.test")
	outFile := filepath.Join(e.work, "ladder.json")
	var out bytes.Buffer
	build := exec.CommandContext(ctx, "go", "test", "-c", "-o", bin, "./ladder")
	build.Dir = filepath.Join(e.root, "bench")
	build.Stdout, build.Stderr = &out, &out
	if err := build.Run(); err != nil {
		return rungs, fmt.Sprintf("the ladder does not build: %v: %.300s", err, oneLine(out.Bytes()))
	}
	out.Reset()
	cmd := exec.CommandContext(ctx, bin, "-test.run", "^$", "-test.bench", ".",
		"-test.benchtime", ladderTime, "-test.timeout", "170s", "-ladder.out", outFile)
	cmd.Dir = filepath.Join(e.root, "bench", "ladder")
	cmd.Stdout, cmd.Stderr = &out, &out
	var reason string
	if err := cmd.Run(); err != nil {
		reason = fmt.Sprintf("the ladder failed: %v: %.300s", err, oneLine(out.Bytes()))
	}
	if raw, err := os.ReadFile(outFile); err == nil {
		json.Unmarshal(raw, &rungs)
	}
	return rungs, reason
}
