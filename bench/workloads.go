package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"time"
)

// setupBatch is how many set-ups an untraced run times in each of two
// batches, one before its window and one after it; setup_s is the
// median of all of them, each normalised by the probe slices around its
// batch. One set-up takes a few milliseconds, in which the host's
// scheduling moves a single launch by a tenth or more, so only the
// median of many is steady; and the host's speed drifts over a run, so
// the two batches sample it half a minute apart.
const setupBatch = 11

// Tail percentiles. Warm and fleet answer tens of thousands of requests
// a run, so p99 keeps hundreds of samples beyond it. Cold answers 66 to
// 99 in whole rotations of eleven requests, of which the slowest,
// E15?c=3, is one in eleven: its p95 is always the middle of that
// request's samples, where p90 would fall on the edge between the two
// slowest requests and jump between them. Sweep runs seven to eleven
// figures processes, too few for any tail; it reports their upper
// quartile.
const (
	tailServe = 0.99
	tailCold  = 0.95
	tailSweep = 0.75
)

// The requests each workload sends. E2 is Algorithm 1's exhaustive
// ε-agreement sweep on 3-bit registers and E15 the exhaustive
// Algorithm 2 validation: the two prefix-shardable spaces. E1 and E7
// are cheap tables that take the coordinator's whole-fetch path.
var (
	warmWhole = []wholeReq{
		{"E1", "", "json"}, {"E1", "", "text"}, {"E1", "", "csv"},
		{"E2", "", "json"}, {"E2", "", "text"}, {"E2", "", "csv"},
		{"E7", "", "json"}, {"E7", "", "text"}, {"E7", "", "csv"},
		{"E15", "", "json"}, {"E15", "", "text"}, {"E15", "", "csv"},
		{"E2", "k=4,i0=0,i1=1", "json"}, // the default point, spelled out
		{"E2", "k=3", "json"},
		{"E15", "c=3", "json"},
	}
	coldWhole  = []wholeReq{{"E2", "k=3", "json"}, {"E15", "c=3", "json"}, {"E2", "", "json"}}
	fleetWhole = []wholeReq{{"E1", "", "json"}, {"E2", "", "json"}, {"E7", "", "json"}, {"E15", "", "json"}, {"E2", "k=3", "json"}}
)

// setups are a workload's timed set-ups: each one's time in seconds,
// unnormalised, and the host speed index around its batch.
type setups struct {
	times, speeds []float64
}

// median is setup_s: the median set-up time, each normalised by its
// speed index when norm is set.
func (s setups) median(norm bool) float64 {
	xs := make([]float64, len(s.times))
	for i, t := range s.times {
		xs[i] = t
		if norm {
			xs[i] *= s.speeds[i]
		}
	}
	return median(xs)
}

// timeSetups times one batch of a workload's set-ups between two probe
// slices and adds them to su. Each call of once sets up and returns how
// long its timed part took. A traced run, which does not report
// setup_s, sets up once: its first batch is one set-up and any later
// batch is empty.
func (e *env) timeSetups(ctx context.Context, su *setups, once func() (time.Duration, error)) error {
	n := setupBatch
	if e.trace {
		n = 1 - len(su.times)
	}
	if n <= 0 {
		return nil
	}
	before, err := e.probe(ctx)
	if err != nil {
		return err
	}
	var times []float64
	for i := 0; i < n; i++ {
		d, err := once()
		if err != nil {
			return err
		}
		times = append(times, d.Seconds())
	}
	after, err := e.probe(ctx)
	if err != nil {
		return err
	}
	for _, t := range times {
		su.times = append(su.times, t)
		su.speeds = append(su.speeds, speedIndex((before+after)/2))
	}
	return nil
}

// newReport builds a workload's report from its set-up times and its
// window. The end-to-end timing metrics are host-normalised; the report
// keeps the same numbers unnormalised as raw. Traced, the end-to-end
// numbers go to the layer set under "traced." (the tracing overhead is
// their gap to an untraced run) and the result carries the per-layer
// metrics.
func (e *env) newReport(ls *layerSet, su setups, w *window, fails *failures, tail, rssMB float64) *report {
	n := len(w.samples())
	e2e := endToEnd(su.median(true), w.stats(tail, true), rssMB)
	rep := &report{
		result:       result{Attempted: int64(n), Failed: fails.n, Metrics: e2e},
		Samples:      n,
		TailQuantile: tail,
		Speed:        w.speed(),
		SetupTimes:   su.times,
		SetupSpeeds:  su.speeds,
		Raw:          endToEnd(su.median(false), w.stats(tail, false), rssMB),
		Errors:       fails.errors,
	}
	if e.trace {
		for name, m := range e2e {
			if name != "setup_s" {
				ls.set("traced."+name, m.Unit, m.Value)
			}
		}
		ls.set("bench.driver_cpu_ms_per_op", "ms", millis(w.driverCPU)/float64(max(n, 1)))
		ls.apply(e.spec, rep)
	}
	return rep
}

func endToEnd(setup float64, ws windowStats, rssMB float64) map[string]metric {
	return map[string]metric{
		"setup_s":          {setup, "s"},
		"throughput_ops_s": {ws.throughput, "1/s"},
		"latency_p50_ms":   {ws.p50, "ms"},
		"latency_tail_ms":  {ws.tail, "ms"},
		"cpu_ms_per_op":    {ws.cpuPerOp, "ms"},
		"peak_rss_mb":      {rssMB, "MB"},
	}
}

// sweep regenerates the paper's tables back to back, one `figures`
// process at a time, each into a fresh artifact store: the
// researcher's "regenerate the paper" path. No server or shard code
// runs. A cycle is one figures run. Setup is the figures process's own
// start-up, `figures -list`.
func (e *env) sweep(ctx context.Context) (*report, error) {
	setup := func() (time.Duration, error) {
		t0 := time.Now()
		cmd := systemCmd(ctx, e.figures, "-list")
		cmd.Stdout = io.Discard
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("figures -list: %w", err)
		}
		return time.Since(t0), nil
	}
	var su setups
	if err := e.timeSetups(ctx, &su, setup); err != nil {
		return nil, err
	}
	var (
		fails    failures
		rss      []float64     // each figures run's peak RSS
		childCPU time.Duration // every finished figures run's CPU time
		totals   []float64
		hits     []float64
		misses   []float64
		dirs     []string
	)
	defer func() {
		for _, dir := range dirs {
			os.RemoveAll(dir)
		}
	}()
	run := func(ctx context.Context) ([]sample, error) {
		dir, err := e.tmp("sweep-store")
		if err != nil {
			return nil, err
		}
		dirs = append(dirs, dir)
		out := filepath.Join(dir, "out.json")
		args := []string{"-format", "json", "-cache-dir", dir, "-o", out}
		if e.trace {
			args = append(args, "-v")
		}
		var stderr bytes.Buffer
		cmd := systemCmd(ctx, e.figures, args...)
		cmd.Stderr = &stderr
		s := sample{start: time.Now()}
		err = cmd.Run()
		s.end = time.Now()
		if cmd.ProcessState != nil {
			cpu, r := childUsage(cmd.ProcessState)
			childCPU += cpu
			rss = append(rss, r)
		}
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			fails.add("figures run: %v: %.300s", err, stderr.Bytes())
		} else if body, err := os.ReadFile(out); err != nil || !bytes.Equal(body, e.refs.Sweep) {
			fails.add("figures run: output differs from the serial cacheless reference")
		}
		if e.trace {
			if t, ok := figuresTotal(stderr.Bytes()); ok {
				totals = append(totals, t)
			}
			if h, n, ok := cacheLine(stderr.Bytes()); ok {
				hits = append(hits, h)
				misses = append(misses, n-h)
			}
		}
		return []sample{s}, nil
	}
	w, err := e.measure(ctx, run, func() (time.Duration, error) { return childCPU, nil })
	if err != nil {
		return nil, err
	}
	if err := e.timeSetups(ctx, &su, setup); err != nil {
		return nil, err
	}
	ls := newLayerSet()
	if e.trace {
		// The serving process of a sweep is figures itself: its own
		// "total" line is the in-process time, the rest of a run's wall
		// time is process start-up, output and exit.
		if len(totals) > 0 {
			ls.set("server.mean_ms", "ms", mean(totals))
			ls.set("server.wire_mean_ms", "ms", mean(latencies(w.samples()))-mean(totals))
		} else {
			ls.miss("figures -v printed no total line", "server.mean_ms", "server.wire_mean_ms")
		}
		ls.miss("a sweep sends no HTTP requests", "server.experiment.p50_ms", "server.experiment.p99_ms",
			"server.param.p50_ms", "server.param.p99_ms", "server.slice.p50_ms", "server.slice.p99_ms")
		if len(hits) > 0 {
			ls.set("cache.hit_rate", "ratio", sum(hits)/max(sum(hits)+sum(misses), 1))
			ls.set("cache.misses_per_op", "count", sum(misses)/float64(len(misses)))
		} else {
			ls.miss("figures printed no cache line", "cache.hit_rate", "cache.misses_per_op")
		}
		ls.miss("figures reports whole-result lookups only", "cache.slice_hit_rate", "cache.stores_per_op", "cache.corrupt", "cache.evicted")
		noShard(ls)
		e.ladder(ctx, ls)
	}
	// The mean run's peak, not the largest of however many runs the
	// window held: with two experiments at a time, a run's peak moves
	// with which of them overlap and when the collector runs, by about
	// a tenth either way. Over ten windows of eight runs drawn from 40
	// runs' peaks, the mean spread 4.8%, the median 5.3% and the
	// largest 6.7%.
	return e.newReport(ls, su, w, &fails, tailSweep, mean(rss)), nil
}

// cacheLine parses `figures: cache H/N hits` from figures' stderr.
var cacheLineRE = regexp.MustCompile(`(?m)^figures: cache (\d+)/(\d+) hits`)

func cacheLine(stderr []byte) (hits, lookups float64, ok bool) {
	m := cacheLineRE.FindSubmatch(stderr)
	if m == nil {
		return 0, 0, false
	}
	h, _ := strconv.ParseFloat(string(m[1]), 64)
	n, _ := strconv.ParseFloat(string(m[2]), 64)
	return h, n, true
}

// warm serves every read path of the artifact store — whole tables in
// all three formats, parameter points, and the prefix-range slices of
// E2 and E15 — from one figuresd whose store was filled beforehand, to
// two closed-loop clients. No request explores. Setup launches the
// daemon on the filled store and serves every distinct request once;
// /stats must show each as a hit.
func (e *env) warm(ctx context.Context) (*report, error) {
	ops := append(e.wholeOps(warmWhole...), e.sliceOps("E2", "E15")...)
	store, err := e.tmp("warm-store")
	if err != nil {
		return nil, err
	}
	client := newHTTPClient(2)
	defer client.CloseIdleConnections()
	d, err := e.startDaemon(ctx, e.logPath("warm-fill"), "-cache-dir", store)
	if err != nil {
		return nil, err
	}
	if err := serveOnce(ctx, client, d.base, ops); err != nil {
		return nil, fmt.Errorf("filling the store: %w", err)
	}
	setup := func() (time.Duration, error) {
		e.procs.stop(d)
		client.CloseIdleConnections()
		t0 := time.Now()
		var err error
		if d, err = e.startDaemon(ctx, e.logPath("warm"), "-cache-dir", store); err != nil {
			return 0, err
		}
		if err := serveOnce(ctx, client, d.base, ops); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		took := time.Since(t0)
		st, err := scrapeStats(ctx, client, d.base)
		if err != nil {
			return 0, err
		}
		wholeN := int64(len(warmWhole))
		if c := st.cache(); c.Hits != wholeN || c.SliceHits != int64(len(ops))-wholeN || c.Misses+c.SliceMisses != 0 {
			return 0, fmt.Errorf("setup: the store was not warm: /stats cache %+v", c)
		}
		return took, nil
	}
	var su setups
	if err := e.timeSetups(ctx, &su, setup); err != nil {
		return nil, err
	}
	client.CloseIdleConnections()

	before, err := scrapeStats(ctx, client, d.base)
	if err != nil {
		return nil, err
	}
	var fails failures
	l := e.newLoop(d.base, ops, 2, &fails)
	defer l.client.CloseIdleConnections()
	w, err := e.measure(ctx, l.step(false), daemonsCPU(d))
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	ls := newLayerSet()
	if e.trace {
		after, err := scrapeStats(ctx, client, d.base)
		if err != nil {
			return nil, err
		}
		samples := w.samples()
		serverLayers(ls, []scrape{{before, after}}, nil, mean(latencies(samples)))
		cacheLayers(ls, after.cache().minus(before.cache()), len(samples))
		noShard(ls)
		e.ladder(ctx, ls)
	}
	if err := e.timeSetups(ctx, &su, setup); err != nil {
		return nil, err
	}
	return e.newReport(ls, su, w, &fails, tailServe, rss), nil
}

// cold is warm's mirror image: one cacheless figuresd and one client
// walking whole rotations of requests that each explore — the
// quarter-range slices of E2 and E15, two non-default parameter
// points, and the whole of E2. A cycle is one rotation, so every
// request is sent equally often. Setup is launch to healthy.
func (e *env) cold(ctx context.Context) (*report, error) {
	ops := append(e.sliceOps("E2", "E15"), e.wholeOps(coldWhole...)...)
	var d *daemon
	setup := func() (time.Duration, error) {
		e.procs.stop(d)
		t0 := time.Now()
		var err error
		d, err = e.startDaemon(ctx, e.logPath("cold"))
		return time.Since(t0), err
	}
	var su setups
	if err := e.timeSetups(ctx, &su, setup); err != nil {
		return nil, err
	}
	client := newHTTPClient(1)
	defer client.CloseIdleConnections()
	before, err := scrapeStats(ctx, client, d.base)
	if err != nil {
		return nil, err
	}
	var fails failures
	l := e.newLoop(d.base, ops, 1, &fails)
	defer l.client.CloseIdleConnections()
	w, err := e.measure(ctx, l.step(true), daemonsCPU(d))
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	ls := newLayerSet()
	if e.trace {
		after, err := scrapeStats(ctx, client, d.base)
		if err != nil {
			return nil, err
		}
		serverLayers(ls, []scrape{{before, after}}, nil, mean(latencies(w.samples())))
		ls.set("cache.hit_rate", "ratio", 0)
		ls.set("cache.misses_per_op", "count", 0)
		ls.miss("the daemon runs without a store", "cache.slice_hit_rate", "cache.stores_per_op", "cache.corrupt", "cache.evicted")
		noShard(ls)
		e.ladder(ctx, ls)
	}
	if err := e.timeSetups(ctx, &su, setup); err != nil {
		return nil, err
	}
	return e.newReport(ls, su, w, &fails, tailCold, rss), nil
}

// fleetProcs is one running fleet: a -peers front door without a
// store over two workers sharing one warm store, with a timing proxy
// in front of each worker on traced runs.
type fleetProcs struct {
	front   *daemon
	workers []*daemon
	proxies []*proxy
}

func (e *env) startFleet(ctx context.Context, store string) (*fleetProcs, error) {
	fl := &fleetProcs{}
	var peers []string
	for i := 1; i <= 2; i++ {
		w, err := e.startDaemon(ctx, e.logPath(fmt.Sprintf("fleet-worker%d", i)), "-cache-dir", store)
		if err != nil {
			return fl, err
		}
		fl.workers = append(fl.workers, w)
		addr := w.addr
		if e.trace {
			p, err := startProxy(w.base, false)
			if err != nil {
				return fl, err
			}
			fl.proxies = append(fl.proxies, p)
			addr = p.addr
		}
		peers = append(peers, addr)
	}
	front, err := e.startDaemon(ctx, e.logPath("fleet-front"), "-peers", peers[0]+","+peers[1])
	fl.front = front
	return fl, err
}

func (e *env) stopFleet(fl *fleetProcs) {
	if fl == nil {
		return
	}
	e.procs.stop(fl.front)
	for _, p := range fl.proxies {
		p.close()
	}
	for _, w := range fl.workers {
		e.procs.stop(w)
	}
}

func (fl *fleetProcs) all() []*daemon { return append([]*daemon{fl.front}, fl.workers...) }

// fleet drives the coordinator: two clients through a -peers front
// door over two warm workers. Each E2, E15 and E2?k=3 request carves
// its space into prefix ranges, fetches each warm slice and merges
// them; E1 and E7 take the whole-fetch path. Setup launches the fleet
// on the filled store and serves every request once; the workers'
// /stats must show every fetch as a hit.
func (e *env) fleet(ctx context.Context) (*report, error) {
	ops := e.wholeOps(fleetWhole...)
	store, err := e.tmp("fleet-store")
	if err != nil {
		return nil, err
	}
	client := newHTTPClient(2)
	defer client.CloseIdleConnections()
	fl, err := e.startFleet(ctx, store)
	defer func() { e.stopFleet(fl) }()
	if err != nil {
		return nil, err
	}
	if err := serveOnce(ctx, client, fl.front.base, ops); err != nil {
		return nil, fmt.Errorf("filling the workers' store: %w", err)
	}
	var wantHits, wantSliceHits int64
	for _, o := range ops {
		if o.fetches == 1 {
			wantHits++
		} else {
			wantSliceHits += int64(o.fetches)
		}
	}
	setup := func() (time.Duration, error) {
		e.stopFleet(fl)
		client.CloseIdleConnections()
		t0 := time.Now()
		var err error
		if fl, err = e.startFleet(ctx, store); err != nil {
			return 0, err
		}
		if err := serveOnce(ctx, client, fl.front.base, ops); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		took := time.Since(t0)
		var c cacheWire
		for _, w := range fl.workers {
			st, err := scrapeStats(ctx, client, w.base)
			if err != nil {
				return 0, err
			}
			c = c.plus(st.cache())
		}
		if c.Hits != wantHits || c.SliceHits != wantSliceHits || c.Misses+c.SliceMisses != 0 {
			return 0, fmt.Errorf("setup: the workers were not warm: /stats cache %+v", c)
		}
		return took, nil
	}
	var su setups
	if err := e.timeSetups(ctx, &su, setup); err != nil {
		return nil, err
	}
	client.CloseIdleConnections()

	all := fl.all()
	befores := make([]statsWire, len(all))
	roleCPU := make([]time.Duration, len(all))
	for i, d := range all {
		if befores[i], err = scrapeStats(ctx, client, d.base); err != nil {
			return nil, err
		}
		if roleCPU[i], err = daemonCPU(d); err != nil {
			return nil, err
		}
	}
	var fails failures
	l := e.newLoop(fl.front.base, ops, 2, &fails)
	defer l.client.CloseIdleConnections()
	w, err := e.measure(ctx, l.step(false), daemonsCPU(all...))
	if err != nil {
		return nil, err
	}
	var rss float64
	roleRSS := make([]float64, len(all))
	for i, d := range all {
		c, err := daemonCPU(d)
		if err != nil {
			return nil, err
		}
		if roleRSS[i], err = peakRSSMB(d.cmd.Process.Pid); err != nil {
			return nil, err
		}
		roleCPU[i] = c - roleCPU[i]
		rss += roleRSS[i]
	}
	ls := newLayerSet()
	if e.trace {
		samples := w.samples()
		scrapes := make([]scrape, len(all))
		for i, d := range all {
			after, err := scrapeStats(ctx, client, d.base)
			if err != nil {
				return nil, err
			}
			scrapes[i] = scrape{befores[i], after}
		}
		serverLayers(ls, scrapes[:1], scrapes[1:], mean(latencies(samples)))
		var c cacheWire
		for _, s := range scrapes[1:] {
			c = c.plus(s.after.cache().minus(s.before.cache()))
		}
		cacheLayers(ls, c, len(samples))
		var recs []fetchRec
		for _, p := range fl.proxies {
			recs = append(recs, p.records()...)
		}
		shardLayers(ls, samples, ops, recs, &fails)
		n := float64(max(len(samples), 1))
		ls.set("figuresd.front.cpu_ms_per_op", "ms", millis(roleCPU[0])/n)
		ls.set("figuresd.worker.cpu_ms_per_op", "ms", millis(roleCPU[1]+roleCPU[2])/n)
		ls.set("figuresd.front.rss_mb", "MB", roleRSS[0])
		ls.set("figuresd.worker.rss_mb", "MB", roleRSS[1]+roleRSS[2])
		e.ladder(ctx, ls)
	}
	if err := e.timeSetups(ctx, &su, setup); err != nil {
		return nil, err
	}
	return e.newReport(ls, su, w, &fails, tailServe, rss), nil
}

// step is one cycle of the loop: cycleTime long or, with rotation, one
// rotation.
func (l *loop) step(rotation bool) step {
	return func(ctx context.Context) ([]sample, error) {
		var until time.Time
		if !rotation {
			until = time.Now().Add(cycleTime)
		}
		return l.cycle(ctx, until), nil
	}
}

// daemonsCPU reads the daemons' cumulative CPU time.
func daemonsCPU(ds ...*daemon) cpuReader {
	return func() (time.Duration, error) { return daemonCPU(ds...) }
}
