// Package shard distributes an experiment run across a fleet of
// figuresd workers: the HTTP fan-out coordinator the serving layer
// (internal/server) was built for. Every request is one experiment at
// one parameter point (RunParam; the zero ParamSet is the default
// point, and Run is RunParam at the default point of each id),
// resolved through one registry (Options.Local.Registry). A point is
// fetched from a worker via GET /experiments/{id}?[params&]format=json,
// decoded with experiments.DecodeJSON, and merged back in request
// order — and because the JSON wire form is a pure function of
// experiment outputs, sharded output is byte-identical to a local run,
// the invariant every test and CI gate here pins.
//
// The coordinator owns worker health end to end:
//
//   - startup: every worker's /healthz is probed concurrently; a
//     worker that fails the probe starts unhealthy and is never
//     selected until its revival is due.
//   - selection: least-loaded — the healthy untried worker with the
//     fewest of the coordinator's own in-flight requests wins. A
//     bounded per-worker in-flight cap (DefaultMaxInFlight) keeps one
//     slow worker from serializing the batch: once a worker is
//     saturated, work flows to its peers.
//   - failure: every request carries its own timeout. A transport
//     error (connection refused, reset, EOF — a killed worker) evicts
//     the worker, unless the request's own context had ended (its
//     timeout, or the caller's cancellation: slow is not dead); an
//     HTTP-level failure (non-200, undecodable body, mismatched id, or
//     a server.RegistryVersionHeader other than the experiment's
//     experiments.SpaceVersion, so that no answer computed by another
//     generation of its code is merged or stored) only fails the
//     attempt. Either way the experiment fails over to the next
//     worker, trying each worker at most once. Eviction is not
//     forever: a coordinator can outlive a worker restart
//     (cmd/figuresd -peers runs one for the daemon's whole life), so
//     after DefaultReviveAfter a live request is allowed to re-try an
//     evicted worker, and one success restores it to full rotation.
//   - fallback: an experiment that exhausts the fleet — including the
//     whole fleet being unreachable — runs locally through the
//     in-process engine with the coordinator's Local options, so a
//     sharded run degrades to a local run rather than failing.
//
// Deterministic experiment failures are reproduced by the fallback:
// a worker reports them as HTTP 500, the coordinator fails over and
// finally re-runs locally, producing the same failed Result (and the
// same encoded bytes) a local run would have.
//
// Prefix-shardable experiments (those whose registry entry declares a
// Shardable seam) go further: instead of fetching the whole point from
// one worker, the coordinator carves the point's own exploration space
// into disjoint schedule-prefix ranges (sched.PartitionRoots, computed
// once per point and reused by every later request), fans the ranges
// out with GET /experiments/{id}?[params&]prefixes=..., and merges the
// order-insensitive aggregates — so the fleet splits a single
// theorem-scale space and still emits byte-identical tables.
// Ranges inherit the failover rules above, and a merge holds worker
// answers only: a range whose attempts exhaust the fleet sends the
// point down the whole path (a whole fetch with failover, then the
// local engine), so no range is ever dropped or explored here.
//
// With a store (experiments.Cache) as Options.Local.Cache, the
// coordinator is the top of a read-through cache hierarchy: the whole
// result is consulted before carving or fetching and stored after, so
// a repeated run of the same point executes zero explorations
// fleet-wide. Ranges are kept by the workers' own stores, not here.
//
// A worker's answer is a pure function of its point and space version,
// so the coordinator decodes each answer once: per point it records,
// for every worker path it fetches, the last body it accepted and what
// that body decoded to, and for a carved point the merged result.
// Every fetch is still sent; a body byte-identical to the record's
// reuses the recorded decode (and, when every range did, the recorded
// merged result with its stored response bodies), while any other body
// is decoded and checked as if there were no record. Recorded tables
// and aggregates are shared across requests and read-only, so a merge
// folds into an aggregate no record holds.
package shard

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/hist"
	"repro/internal/server"
	"repro/internal/trace"
)

const (
	// DefaultRequestTimeout bounds one remote experiment fetch when
	// neither Options.RequestTimeout nor Options.Local.Timeout sets
	// it — generous because a cold exhaustive exploration legitimately
	// takes up to the worker's own execution timeout (figuresd's
	// -timeout, 2m by default).
	DefaultRequestTimeout = 3 * time.Minute
	// requestMargin is what a fetch bound derived from
	// Options.Local.Timeout adds to it, for transfer and queueing on
	// the worker.
	requestMargin = 30 * time.Second
	// DefaultProbeTimeout bounds the startup /healthz probe; a worker
	// that cannot answer a liveness check in this window is not worth
	// routing experiments to.
	DefaultProbeTimeout = 5 * time.Second
	// DefaultMaxInFlight caps concurrent requests per worker so a
	// slow worker holds at most this many experiments while its
	// peers absorb the rest of the batch.
	DefaultMaxInFlight = 4
	// DefaultReviveAfter is how long an evicted worker stays out of
	// rotation before a live request may re-try it — long enough not
	// to hammer a dead host, short enough that a restarted worker
	// rejoins a long-lived coordinator promptly.
	DefaultReviveAfter = 15 * time.Second
)

// Options configures New. Workers is the only required field.
type Options struct {
	// Workers lists the fleet as host:port addresses (a scheme-full
	// URL is accepted too). Order is irrelevant: selection is by
	// load, not position.
	Workers []string
	// RequestTimeout bounds each remote experiment fetch. Unset (<= 0),
	// it is Local.Timeout plus a 30 s margin, so a limit that lets an
	// experiment run long locally lets the fleet take as long, and
	// DefaultRequestTimeout when Local.Timeout is 0 (no limit).
	RequestTimeout time.Duration
	// Local configures the in-process fallback engine and the
	// coordinator's view of the experiments: Registry (nil means
	// experiments.Registry()) resolves every id, its entries' Shardable
	// seams decide which spaces are carved into prefix ranges; Cache is
	// the front cache of whole results; Timeout bounds a fallback run;
	// Jobs bounds how many fallback experiments run concurrently. IDs
	// is ignored — the coordinator fills it per experiment.
	Local experiments.Options
	// Journal, when non-nil, records every load-bearing decision —
	// carve, worker selection, fetch, retry, eviction, revival,
	// registry rejection, cache outcome, local fallback — as span
	// events under the request's trace ID (trace.IDFrom on the run
	// context; minted here when the coordinator is the edge). The same
	// ID travels to every worker in the Repro-Request-ID header, so
	// one ID names the request in the coordinator's journal and each
	// worker's. nil disables coordinator-side recording; the header
	// still propagates when the context carries an ID.
	Journal *trace.Journal
	// Now injects the coordinator's clock (eviction revival); nil means
	// time.Now. Tests use it to advance time without sleeping.
	Now func() time.Time
	// Logf receives one line per notable event (unreachable worker,
	// failover, fallback); nil means silent.
	Logf func(format string, args ...any)
}

// Stats is a snapshot of a coordinator's traffic counters.
type Stats struct {
	// WorkersTotal and WorkersHealthy describe the fleet now — a
	// worker that died mid-batch has already left WorkersHealthy.
	WorkersTotal, WorkersHealthy int
	// Remote counts experiments served whole by the fleet, Local those
	// that fell back whole to the in-process engine. A carved point
	// whose ranges all came back is counted by PrefixSharded alone; one
	// whose range exhausted the fleet is counted by PrefixSharded and
	// then by Remote or Local, as the whole path served it.
	Remote, Local int64
	// Failovers counts failed attempts — whole experiments or prefix
	// ranges — that moved work to another worker (or, when none
	// remained, to the whole path or the local fallback).
	Failovers int64
	// PrefixSharded counts experiments whose exploration space was
	// carved into prefix ranges across the fleet.
	PrefixSharded int64
	// PrefixRangesRemote counts the ranges of prefix-sharded
	// experiments that workers served.
	PrefixRangesRemote int64
	// RangesReassigned counts prefix-range attempts that failed on one
	// worker, moving the range to the next worker or, once none
	// remained, the point to the whole path.
	RangesReassigned int64
	// Workers holds one per-worker record, in configuration order —
	// the coordinator-side fetch-latency distributions that separate a
	// slow worker from a slow fleet.
	Workers []WorkerStats
}

// WorkerStats is one worker's coordinator-side record: every attempt
// through the shared fetch path (whole experiments and prefix slices
// alike, failures included) lands in the latency histogram, so a
// worker that fails fast looks exactly as suspicious as it is.
type WorkerStats struct {
	Addr    string
	Healthy bool
	// Fetches counts attempts sent to this worker; Errors the ones
	// that failed (transport, HTTP status, or decode).
	Fetches, Errors int64
	// Latency is the fetch-latency distribution as the coordinator
	// observed it — request start to body decoded.
	Latency hist.Snapshot
}

// worker is one fleet member and its load accounting.
type worker struct {
	base     string        // http://host:port, no trailing slash
	url      *url.URL      // base, parsed once; nil when it does not parse
	sem      chan struct{} // bounds in-flight requests to this worker
	inflight atomic.Int64  // the coordinator's own in-flight count
	healthy  atomic.Bool
	retryAt  atomic.Int64 // unix nanos after which eviction may be re-tried
	lat      hist.Histogram
	fetches  atomic.Int64
	errors   atomic.Int64
}

// selectable reports whether the worker may receive a request:
// healthy, or evicted long enough ago that a revival attempt is due.
func (w *worker) selectable(now time.Time) bool {
	if w.healthy.Load() {
		return true
	}
	r := w.retryAt.Load()
	return r != 0 && now.UnixNano() >= r
}

// Coordinator fans experiment runs out across a figuresd fleet. It is
// safe for concurrent use; one coordinator can serve many Run/RunParam
// calls at once (cmd/figuresd -peers does exactly that).
type Coordinator struct {
	workers    []*worker
	client     *http.Client
	reqTimeout time.Duration
	reg        map[string]experiments.Experiment
	local      experiments.Options
	localSem   chan struct{}
	journal    *trace.Journal
	now        func() time.Time
	logf       func(format string, args ...any)

	// points holds one record per served point: its worker URIs, its
	// carve and the answers the fleet gave for it (see point).
	pointsMu sync.Mutex
	points   map[pointKey]*point

	pickMu           sync.Mutex
	remote           atomic.Int64
	localRuns        atomic.Int64
	failovers        atomic.Int64
	prefixSharded    atomic.Int64
	prefixRemote     atomic.Int64
	rangesReassigned atomic.Int64
}

// defaultClient builds the coordinator's HTTP client: the default
// transport's dialer and keep-alive settings, with the per-host idle
// pool widened to the per-worker in-flight cap. The stock
// DefaultTransport keeps only 2 idle connections per host, so a
// coordinator pushing DefaultMaxInFlight concurrent range fetches at
// one worker would close and re-dial the rest of the burst on every
// wave; sizing the pool to the cap lets the whole burst reuse warm
// connections.
func defaultClient() *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = DefaultMaxInFlight
	if tr.MaxIdleConns < DefaultMaxInFlight {
		tr.MaxIdleConns = DefaultMaxInFlight
	}
	tr.IdleConnTimeout = 90 * time.Second
	return &http.Client{Transport: tr}
}

// New builds a coordinator over the given fleet and probes every
// worker's health concurrently before returning. An unreachable
// worker is not an error — it starts unhealthy and the coordinator
// degrades toward local execution — but an empty worker list is.
func New(opts Options) (*Coordinator, error) {
	if len(opts.Workers) == 0 {
		return nil, fmt.Errorf("shard: no workers configured")
	}
	reqTimeout := opts.RequestTimeout
	if reqTimeout <= 0 {
		reqTimeout = DefaultRequestTimeout
		if opts.Local.Timeout > 0 {
			reqTimeout = opts.Local.Timeout + requestMargin
		}
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	jobs := opts.Local.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	reg := opts.Local.Registry
	if reg == nil {
		reg = experiments.Registry()
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	c := &Coordinator{
		client:     defaultClient(),
		reqTimeout: reqTimeout,
		reg:        reg,
		local:      opts.Local,
		localSem:   make(chan struct{}, jobs),
		journal:    opts.Journal,
		now:        now,
		logf:       logf,
		points:     make(map[pointKey]*point),
	}
	for _, addr := range opts.Workers {
		base := baseURL(addr)
		u, _ := url.Parse(base) // nil for a bad address, which fails its probe and every fetch
		c.workers = append(c.workers, &worker{
			base: base,
			url:  u,
			sem:  make(chan struct{}, DefaultMaxInFlight),
		})
	}
	var wg sync.WaitGroup
	for _, w := range c.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			c.probe(w)
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	c.logf("shard: %d/%d workers healthy", st.WorkersHealthy, st.WorkersTotal)
	return c, nil
}

// baseURL normalizes a worker address to a scheme-full base URL.
func baseURL(addr string) string {
	addr = strings.TrimRight(addr, "/")
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return addr
}

// SplitList parses a comma-separated flag value — the format the
// -workers, -peers, and -run flags share — dropping empty entries and
// surrounding whitespace.
func SplitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

// probe marks w healthy if its /healthz answers 200 within
// DefaultProbeTimeout. A failed probe schedules revival like any other
// eviction, so a worker that was merely slow to boot rejoins a
// long-lived coordinator.
func (c *Coordinator) probe(w *worker) {
	ctx, cancel := context.WithTimeout(context.Background(), DefaultProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/healthz", nil)
	if err != nil {
		c.logf("shard: worker %s: bad address: %v", w.base, err)
		c.evict(w)
		return
	}
	resp, err := c.client.Do(req)
	if err != nil {
		c.logf("shard: worker %s unreachable: %v", w.base, err)
		c.evict(w)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		c.logf("shard: worker %s /healthz: status %d", w.base, resp.StatusCode)
		c.evict(w)
		return
	}
	w.healthy.Store(true)
}

// evict takes w out of rotation and schedules the moment a live
// request may try it again.
func (c *Coordinator) evict(w *worker) {
	w.healthy.Store(false)
	w.retryAt.Store(c.now().Add(DefaultReviveAfter).UnixNano())
}

// logReq writes one log line about the request reqID names, ending it
// with " trace=<id>" when there is an ID, so a coordinator's line can
// be found in the journal and in every worker's log.
func (c *Coordinator) logReq(reqID, format string, args ...any) {
	if reqID != "" {
		format += " trace=%s"
		args = append(args, reqID)
	}
	c.logf(format, args...)
}

// Run executes the selected experiments across the fleet, each at its
// default point, and returns one Result per requested id, in request
// order — the same contract as experiments.Run, which it degrades to
// when the fleet cannot serve. Because results are merged in request
// order and the JSON wire form is a pure function of experiment
// outputs, the encoded output of a sharded run is byte-identical to a
// local run of the same ids. Empty ids means every experiment in the
// local registry, in index order. Run errors only on configuration
// mistakes (an unknown id).
func (c *Coordinator) Run(ctx context.Context, ids []string) ([]experiments.Result, error) {
	if len(ids) == 0 {
		ids = experiments.IDsOf(c.reg)
	}
	for _, id := range ids {
		if _, ok := c.reg[id]; !ok {
			return nil, fmt.Errorf("shard: unknown experiment %q", id)
		}
	}
	results := make([]experiments.Result, len(ids))
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			results[i], errs[i] = c.RunParam(ctx, id, experiments.ParamSet{})
		}(i, id)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// RunParam executes one experiment at one parameter point through the
// fleet; the zero ParamSet is the default point, the plain id, and a
// spelled-out default shares its cache entries, carve, and worker
// URIs. The coordinator's own cache is consulted first — a warm whole
// result must stay a microsecond hit, not become a fleet-wide
// recompute, and a warm front cache absorbs whole fetches too, so one
// experiment's cold start never drags warm ones back to the fleet.
// Below that the point is prefix-sharded when the experiment shards
// and enough workers can take a range, fetched whole with per-worker
// failover otherwise (a range that exhausted the fleet included), and
// finally evaluated locally. The front store is read once per request,
// and a successful result, whichever path served it, is written back
// once. It is the execution backend cmd/figuresd -peers plugs into
// internal/server.
func (c *Coordinator) RunParam(ctx context.Context, id string, ps experiments.ParamSet) (experiments.Result, error) {
	exp, ok := c.reg[id]
	if !ok {
		return experiments.Result{}, fmt.Errorf("shard: unknown experiment %q", id)
	}
	params := ps.Canonical()
	if params != "" && len(exp.Params) == 0 {
		return experiments.Result{}, fmt.Errorf("shard: experiment %q takes no parameters", id)
	}
	name := id
	if params != "" {
		name = ps.String()
	}
	// The trace ID arrives on the context when an upstream edge (the
	// serving layer) minted it; when the coordinator is itself the edge
	// (a CLI run), it mints one so the fleet's journals still agree on
	// a name for this request.
	reqID := trace.IDFrom(ctx)
	if reqID == "" && c.journal != nil {
		reqID = trace.NewID()
		ctx = trace.WithID(ctx, reqID)
	}
	c.journal.Start(reqID, "run "+name)
	cache := c.local.Cache
	if cache != nil {
		if res, ok := cache.GetParam(id, params); ok && res.Err == nil && res.Table != nil {
			res.ID = id
			res.Cached = true
			c.journal.Add(reqID, trace.Event{Kind: trace.KindCacheHit, Detail: "coordinator front cache"})
			return res, nil
		}
		c.journal.Add(reqID, trace.Event{Kind: trace.KindCacheMiss, Detail: "coordinator front cache"})
	}
	var res experiments.Result
	done := false
	if sh, ok := exp.ShardableAt(ps); ok {
		res, done = c.runPrefixSharded(ctx, c.point(id, ps), sh)
	}
	if !done {
		res = c.runWhole(ctx, exp, ps, name)
	}
	if cache != nil && res.Err == nil {
		cache.PutParam(id, params, res) // best-effort, like the engine
	}
	return res, nil
}

// runWhole fetches one point whole from the workers, least-loaded
// first and each at most once, then falls back to local evaluation
// through experiments.RunParam, bounded by the local-fallback
// concurrency (Options.Local.Jobs). The fallback runs without the
// front store: RunParam has read it already and writes the result
// back.
func (c *Coordinator) runWhole(ctx context.Context, exp experiments.Experiment, ps experiments.ParamSet, name string) experiments.Result {
	id := exp.ID
	reqID := trace.IDFrom(ctx)
	tried := make(map[*worker]bool)
	for {
		w := c.pick(tried)
		if w == nil {
			break // fleet exhausted (or entirely unhealthy)
		}
		tried[w] = true
		c.journal.Add(reqID, trace.Event{Kind: trace.KindWorkerSelected, Worker: w.base,
			Detail: inFlightDetail(w)})
		fetchStart := time.Now()
		res, err := c.fetch(ctx, w, id, ps)
		w.inflight.Add(-1)
		if err == nil {
			c.remote.Add(1)
			c.journal.Add(reqID, trace.Event{Kind: trace.KindFetch, Worker: w.base,
				Detail: "fetched whole in " + sinceDetail(fetchStart)})
			return res
		}
		if ctx.Err() != nil {
			return experiments.Result{ID: id, Err: ctx.Err()}
		}
		c.failovers.Add(1)
		c.journal.Add(reqID, trace.Event{Kind: trace.KindRetry, Worker: w.base, Detail: err.Error()})
		c.logReq(reqID, "shard: %s on %s failed (%v); failing over", name, w.base, err)
	}
	c.journal.Add(reqID, trace.Event{Kind: trace.KindLocalFallback})
	select {
	case c.localSem <- struct{}{}:
	case <-ctx.Done():
		return experiments.Result{ID: id, Err: ctx.Err()}
	}
	defer func() { <-c.localSem }()
	res := experiments.RunParam(ctx, exp, ps, experiments.Options{Timeout: c.local.Timeout})
	c.localRuns.Add(1)
	c.logReq(reqID, "shard: %s ran locally", name)
	return res
}

// minShardWorkers is the fleet size below which prefix sharding is
// not worth carving: with fewer than two selectable workers there is
// no intra-experiment parallelism to win, and a whole fetch keeps the
// worker's content-addressed cache in play.
const minShardWorkers = 2

// runPrefixSharded splits one shardable experiment's exploration
// space across the fleet: carve the deterministic partition into
// contiguous ranges (about two per selectable worker, so a slow
// worker's second helping flows to its peers), fetch every range
// concurrently with the same least-loaded selection and failover
// rules as whole experiments, merge the order-insensitive aggregates
// in range order, and render the table. ps is the parameter point the
// space is carved at — the zero ParamSet at the default point. done
// reports whether the point was served here; a failed partition, fewer
// than two selectable workers, or a range that exhausted the fleet
// sends the point down the whole path instead, so every merged table
// is made of worker answers only.
//
// When every range came from a worker answer the point has recorded,
// and those are the answers its last merge was made from, that merge's
// Result is returned again: same Table, same stored bodies.
func (c *Coordinator) runPrefixSharded(ctx context.Context, pt *point, sh experiments.Shardable) (experiments.Result, bool) {
	start := c.now()
	id := pt.id
	// One reading of the fleet per request: the two-worker check, the
	// split and the carve's journal line must agree on it.
	selectable := c.selectableCount()
	if selectable < minShardWorkers {
		return experiments.Result{}, false
	}
	reqID := trace.IDFrom(ctx)
	roots, err := pt.carve(sh)
	if err != nil || len(roots) == 0 {
		c.logReq(reqID, "shard: %s: partition failed (%v); fetching whole", id, err)
		return experiments.Result{}, false
	}
	ranges := pt.split(roots, 2*selectable)
	c.journal.Add(reqID, trace.Event{Kind: trace.KindCarve,
		Detail: strconv.Itoa(len(roots)) + " roots into " + strconv.Itoa(len(ranges)) +
			" ranges across " + strconv.Itoa(selectable) + " selectable workers"})
	// Counted at the carve, not at success: the range counters below
	// move for this experiment either way, and the stats must agree
	// that its space was split even if the whole path serves it.
	c.prefixSharded.Add(1)
	from := make([]*answer, len(ranges))
	// own is the first range's fresh decode, the fold's receiver: Merge
	// mutates it, so no record holds it (fetchSlice).
	var own experiments.Aggregate
	var wg sync.WaitGroup
	for i := range ranges {
		var recv *experiments.Aggregate
		if i == 0 {
			recv = &own
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			from[i] = c.runRange(ctx, pt, sh, ranges[i], recv)
		}(i)
	}
	wg.Wait()
	for _, ans := range from {
		if ans == nil {
			c.logReq(reqID, "shard: %s: a range exhausted the fleet; fetching whole", id)
			return experiments.Result{}, false
		}
	}
	if res, ok := pt.mergedFrom(from); ok {
		res.Duration = c.now().Sub(start)
		return res, true
	}
	failed := func(err error) (experiments.Result, bool) {
		return experiments.Result{ID: id, Err: err, Duration: c.now().Sub(start)}, true
	}
	// A first range whose answer was reused brings only the recorded
	// bytes; their decode is the receiver.
	merged := own
	if merged == nil {
		if merged, err = sh.Decode(from[0].env.Aggregate); err != nil {
			return failed(err)
		}
	}
	for _, ans := range from[1:] {
		if err := merged.Merge(ans.agg); err != nil {
			return failed(err)
		}
	}
	tab, err := sh.Finish(merged)
	if err != nil {
		return failed(err)
	}
	res := experiments.WithBodies(experiments.Result{ID: id, Table: tab, Duration: c.now().Sub(start)})
	pt.recordMerged(from, res)
	return res, true
}

// point is one served point's record: its worker URIs, its space
// version, its carve split into rendered ranges, and the answers the
// fleet gave for it. The URIs are rendered once: the whole fetch's
// when the record is made, each range's when its split count is first
// seen, so no request renders, escapes or parses a URI. A worker's
// answer is a pure function of the point and its space version, so
// the record keeps, per worker path (the whole point's or one prefix
// range's), the last body the coordinator accepted and what it decoded
// to, and for a carved point the last merged Result and the answers it
// was merged from. Records are replaced, never added to, per path, and
// only schema-validated points reach here, so they stay bounded by the
// served space: one per point and fetched path, whose ranges are split
// from at most as many selectable-worker counts as the fleet has
// workers. Everything a record holds is shared across requests and
// read-only.
type point struct {
	// id and params name the point (params is its canonical rendering,
	// "" at the default point); space is experiments.SpaceVersion of
	// id: the generation header every answer for the point must carry.
	id, params, space string
	// path is the point's worker URI path and rawPath its escaped
	// form, each appended to the worker's own (url.URL's Path and
	// RawPath); query is the start of every fetch's query: every
	// parameter spelled out ("i0=0&i1=1&k=3&"), so any worker resolves
	// the same canonical point, and nothing at the default point, whose
	// URIs are the plain id's. whole is the whole fetch's query.
	path, rawPath, query, whole string

	mu      sync.Mutex
	roots   func() ([][]int, error)
	splits  map[int][]span // the carve's ranges, per range count
	answers map[string]*answer
	merged  []*answer // the answers res was merged from
	res     experiments.Result
}

// span is one range of a point's carve, rendered: its canonical
// ?prefixes= value and the query a fetch of it sends, which also names
// its answer in the point's record.
type span struct {
	prefixes, query string
}

// pointKey names one point record: an experiment id and a canonical
// point.
type pointKey struct {
	id, params string
}

// answer is one accepted worker body and what it decoded to.
type answer struct {
	body []byte
	// res is a whole fetch's result, carrying stored response bodies.
	res experiments.Result
	// env is a prefix range's validated envelope, agg its decoded
	// aggregate — nil for the first range of a carve, which is a
	// merge's receiver and so never recorded.
	env experiments.ShardEnvelope
	agg experiments.Aggregate
}

// point returns the record of one point, keyed by id and canonical
// point, so every spelling of a point shares it.
func (c *Coordinator) point(id string, ps experiments.ParamSet) *point {
	key := pointKey{id, ps.Canonical()}
	c.pointsMu.Lock()
	defer c.pointsMu.Unlock()
	pt, ok := c.points[key]
	if !ok {
		pt = newPoint(id, ps)
		c.points[key] = pt
	}
	return pt
}

// newPoint makes the record of one point, rendering its whole fetch's
// URI.
func newPoint(id string, ps experiments.ParamSet) *point {
	pt := &point{
		id:      id,
		params:  ps.Canonical(),
		space:   experiments.SpaceVersion(id),
		path:    "/experiments/" + id,
		rawPath: "/experiments/" + url.PathEscape(id),
		splits:  make(map[int][]span),
		answers: make(map[string]*answer),
	}
	if pt.params != "" {
		pt.query = ps.Query() + "&"
	}
	pt.whole = pt.query + "format=json"
	return pt
}

// carve returns the partition of the point's exploration space,
// computing it on the point's first request: every later request,
// concurrent ones included, gets the same roots. Shardable.Roots is
// deterministic and does no I/O, so its result (and its error) is a
// constant of the point. The roots are shared and read-only:
// splitRanges only sub-slices them, and FormatPrefixes only reads
// them.
func (pt *point) carve(sh experiments.Shardable) ([][]int, error) {
	pt.mu.Lock()
	if pt.roots == nil {
		pt.roots = sync.OnceValues(sh.Roots)
	}
	roots := pt.roots
	pt.mu.Unlock()
	return roots()
}

// split returns roots, the point's carve, split into at most n
// contiguous ranges (splitRanges) with each range's prefixes and
// worker query rendered on the first request for n: every later one
// sends the same strings.
func (pt *point) split(roots [][]int, n int) []span {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if spans, ok := pt.splits[n]; ok {
		return spans
	}
	ranges := splitRanges(roots, n)
	spans := make([]span, len(ranges))
	for i, rng := range ranges {
		prefixes := experiments.FormatPrefixes(rng)
		spans[i] = span{prefixes: prefixes, query: pt.query + "prefixes=" + url.QueryEscape(prefixes)}
	}
	pt.splits[n] = spans
	return spans
}

// answer returns the recorded answer of one worker path, or nil.
func (pt *point) answer(path string) *answer {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	return pt.answers[path]
}

// record makes ans the path's recorded answer.
func (pt *point) record(path string, ans *answer) {
	pt.mu.Lock()
	pt.answers[path] = ans
	pt.mu.Unlock()
}

// mergedFrom returns the recorded merged Result when it was merged
// from exactly the answers in from, range by range.
func (pt *point) mergedFrom(from []*answer) (experiments.Result, bool) {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if len(pt.merged) != len(from) {
		return experiments.Result{}, false
	}
	for i, ans := range from {
		if ans != pt.merged[i] {
			return experiments.Result{}, false
		}
	}
	return pt.res, true
}

// recordMerged records res as merged from the answers in from.
func (pt *point) recordMerged(from []*answer, res experiments.Result) {
	pt.mu.Lock()
	pt.merged, pt.res = from, res
	pt.mu.Unlock()
}

// selectableCount reports how many workers may currently receive a
// request (healthy, or due a revival probe).
func (c *Coordinator) selectableCount() int {
	now := c.now()
	n := 0
	for _, w := range c.workers {
		if w.selectable(now) {
			n++
		}
	}
	return n
}

// splitRanges carves roots into at most n contiguous, near-even,
// non-empty ranges, preserving order so every coordinator carves the
// same partition into the same ranges.
func splitRanges(roots [][]int, n int) [][][]int {
	if n > len(roots) {
		n = len(roots)
	}
	if n < 1 {
		n = 1
	}
	out := make([][][]int, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := i*len(roots)/n, (i+1)*len(roots)/n
		out = append(out, roots[lo:hi])
	}
	return out
}

// runRange fetches one prefix range from the fleet: each worker at
// most once, least-loaded first, with the whole-experiment failover
// rules (a transport error evicts, an HTTP error only fails the
// attempt, and either reassigns the range to the next worker). It
// returns the accepted worker answer, or nil once every worker failed
// the range or the context is done; the caller then serves the point
// whole. recv is non-nil for the carve's first range, whose aggregate
// the merge folds into (fetchSlice).
func (c *Coordinator) runRange(ctx context.Context, pt *point, sh experiments.Shardable, rng span, recv *experiments.Aggregate) *answer {
	reqID := trace.IDFrom(ctx)
	tried := make(map[*worker]bool)
	for {
		w := c.pick(tried)
		if w == nil {
			return nil // fleet exhausted for this range
		}
		tried[w] = true
		c.journal.Add(reqID, trace.Event{Kind: trace.KindWorkerSelected, Worker: w.base, Range: rng.prefixes,
			Detail: inFlightDetail(w)})
		fetchStart := time.Now()
		ans, err := c.fetchSlice(ctx, w, pt, sh, rng, recv)
		w.inflight.Add(-1)
		if err == nil {
			c.prefixRemote.Add(1)
			c.journal.Add(reqID, trace.Event{Kind: trace.KindFetch, Worker: w.base, Range: rng.prefixes,
				Detail: "fetched slice in " + sinceDetail(fetchStart)})
			return ans
		}
		if ctx.Err() != nil {
			return nil
		}
		c.failovers.Add(1)
		c.rangesReassigned.Add(1)
		c.journal.Add(reqID, trace.Event{Kind: trace.KindRetry, Worker: w.base, Range: rng.prefixes,
			Detail: err.Error()})
		c.logReq(reqID, "shard: %s range %s on %s failed (%v); reassigning", pt.id, rng.prefixes, w.base, err)
	}
}

// inFlightDetail is a worker_selected event's detail: the worker's
// in-flight count, this pick's slot included.
func inFlightDetail(w *worker) string {
	return "in-flight " + strconv.FormatInt(w.inflight.Load(), 10)
}

// sinceDetail renders the time since start, to the microsecond, for a
// journal event's detail.
func sinceDetail(start time.Time) string {
	return time.Since(start).Round(time.Microsecond).String()
}

// fetchSlice retrieves one prefix range's answer from one worker,
// under the same in-flight cap, timeout, generation header, eviction,
// and revival rules as a whole-experiment fetch. The envelope's own
// space version is checked too, the body-level guard behind the
// header: a range from another generation of this experiment's space
// describes a different space. When recv is non-nil (the first range,
// see runRange) a fresh decode goes to *recv alone, and a reused
// answer brings none; no other range's path can name the first range,
// so every other recorded answer carries its decode.
func (c *Coordinator) fetchSlice(ctx context.Context, w *worker, pt *point, sh experiments.Shardable, rng span, recv *experiments.Aggregate) (*answer, error) {
	return c.fetchWorker(ctx, w, pt, rng.query, func(body []byte) (*answer, error) {
		env, err := experiments.DecodeShard(bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		if env.ID != pt.id || env.Prefixes != rng.prefixes || env.Params != pt.params {
			return nil, fmt.Errorf("shard envelope for %s %s params %q, want %s %s params %q",
				env.ID, env.Prefixes, env.Params, pt.id, rng.prefixes, pt.params)
		}
		if env.SpaceVersion != pt.space {
			return nil, fmt.Errorf("worker space %s, want %s", env.SpaceVersion, pt.space)
		}
		agg, err := sh.Decode(env.Aggregate)
		if err != nil {
			return nil, err
		}
		if recv != nil {
			*recv = agg
			return &answer{env: env}, nil
		}
		return &answer{env: env, agg: agg}, nil
	})
}

// pick returns the selectable, untried worker with the fewest of this
// coordinator's in-flight requests, charging it one in-flight slot (the
// caller releases it), or nil when no worker qualifies.
func (c *Coordinator) pick(tried map[*worker]bool) *worker {
	c.pickMu.Lock()
	defer c.pickMu.Unlock()
	now := c.now()
	var best *worker
	for _, w := range c.workers {
		if tried[w] || !w.selectable(now) {
			continue
		}
		if best == nil || w.inflight.Load() < best.inflight.Load() {
			best = w
		}
	}
	if best != nil {
		best.inflight.Add(1)
	}
	return best
}

// fetchWorker performs one GET against a worker, holding a slot of
// the worker's in-flight cap for the duration (body read included)
// under the per-request timeout, and applies the shared failure
// policy: a transport failure evicts the worker — unless this
// request's own context has ended (its deadline, or the caller's
// cancellation), because a slow experiment or an abandoned request is
// not a dead worker — a non-200 drains a bounded body prefix and fails
// the attempt, so does an answer without pt's space version in its
// generation header, and an accepted body restores an evicted worker
// to rotation. Both the whole-experiment and the prefix-slice paths go
// through here so the failover policy cannot diverge between them.
//
// The request is GET of pt's path with query, one of the URIs pt
// rendered, and the body is read whole and returned as pt's answer for
// query. A body byte-identical to the recorded answer's is that
// answer: every check decode makes is a function of the body and the
// URI, so none is run again. Any other body goes through decode, and
// the answer decode builds from it replaces the record; a body decode
// rejects never enters it.
func (c *Coordinator) fetchWorker(ctx context.Context, w *worker, pt *point, query string, decode func(body []byte) (*answer, error)) (*answer, error) {
	select {
	case w.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-w.sem }()
	// The latency record spans request start to body decoded — queue
	// time on the worker's semaphore excluded, because that measures
	// this coordinator's cap, not the worker. Failures are recorded
	// too: a worker failing fast must not look fast and healthy.
	start := time.Now()
	w.fetches.Add(1)
	ans, err := c.fetchWorkerLocked(ctx, w, pt, query, decode)
	w.lat.Record(time.Since(start))
	if err != nil {
		w.errors.Add(1)
	}
	return ans, err
}

// bodyBufs recycles the buffers worker bodies are read into: a body
// that matches its record is compared and dropped, so it allocates
// nothing of its own.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// traceHeaderKey is trace.Header in the canonical form http.Header
// keys take, so a fetch sets it without canonicalizing it again.
var traceHeaderKey = http.CanonicalHeaderKey(trace.Header)

// fetchWorkerLocked is fetchWorker's body, split out so the latency
// and error accounting wraps every return path exactly once.
//
// The request goes straight to the client's transport: the coordinator
// follows no redirect and keeps no cookie, so http.Client.Do's layer
// would only copy the request's headers. A transport error is wrapped
// as Do wraps it, so log lines and journal events name the URL.
func (c *Coordinator) fetchWorkerLocked(ctx context.Context, w *worker, pt *point, query string, decode func(body []byte) (*answer, error)) (*answer, error) {
	if w.url == nil {
		return nil, fmt.Errorf("bad worker address %q", w.base)
	}
	ctx, cancel := context.WithTimeout(ctx, c.reqTimeout)
	defer cancel()
	u := *w.url
	u.Path, u.RawPath, u.RawQuery = w.url.Path+pt.path, w.url.EscapedPath()+pt.rawPath, query
	header := make(http.Header, 1)
	// The trace ID crosses the process boundary here: the worker
	// journals its slice-cache and exploration decisions under the same
	// ID the coordinator journals selection under.
	reqID := trace.IDFrom(ctx)
	if reqID != "" {
		header[traceHeaderKey] = []string{reqID}
	}
	req := (&http.Request{Method: http.MethodGet, URL: &u, Header: header}).WithContext(ctx)
	resp, err := c.client.Transport.RoundTrip(req)
	if err != nil {
		err = &url.Error{Op: "Get", URL: u.String(), Err: err}
		if ctx.Err() == nil {
			c.evict(w)
			c.journal.Add(reqID, trace.Event{Kind: trace.KindEvict, Worker: w.base, Detail: err.Error()})
		}
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	// A worker on another generation of this experiment's code answers
	// 200 with perfectly decodable bytes that code computed; merging or
	// storing them would break byte-identity silently, so an answer
	// that does not name this generation fails the attempt.
	if v := resp.Header.Get(server.RegistryVersionHeader); v != pt.space {
		err := fmt.Errorf("worker space %q, want %q", v, pt.space)
		c.journal.Add(reqID, trace.Event{Kind: trace.KindRegistryReject, Worker: w.base, Detail: err.Error()})
		return nil, err
	}
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer func() {
		buf.Reset()
		bodyBufs.Put(buf)
	}()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	ans := pt.answer(query)
	if ans == nil || !bytes.Equal(ans.body, buf.Bytes()) {
		body := bytes.Clone(buf.Bytes())
		if ans, err = decode(body); err != nil {
			return nil, err
		}
		ans.body = body
		pt.record(query, ans)
	}
	// A success returns w to full rotation; only a real revival, not
	// every success, is logged and journaled.
	if !w.healthy.Swap(true) {
		c.logReq(reqID, "shard: worker %s revived", w.base)
		c.journal.Add(reqID, trace.Event{Kind: trace.KindRevive, Worker: w.base})
	}
	return ans, nil
}

// fetch retrieves one point of an experiment whole from one worker.
// The Result is the point's recorded answer: its Table is shared and
// read-only, and it carries stored response bodies, so a front door
// encodes each format once per accepted body.
func (c *Coordinator) fetch(ctx context.Context, w *worker, id string, ps experiments.ParamSet) (experiments.Result, error) {
	pt := c.point(id, ps)
	ans, err := c.fetchWorker(ctx, w, pt, pt.whole, func(body []byte) (*answer, error) {
		results, err := experiments.DecodeJSON(bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		if len(results) != 1 || results[0].ID != id || results[0].Err != nil || results[0].Table == nil {
			return nil, fmt.Errorf("unusable result payload")
		}
		return &answer{res: experiments.WithBodies(results[0])}, nil
	})
	if err != nil {
		return experiments.Result{}, err
	}
	return ans.res, nil
}

// Stats returns a snapshot of the coordinator's counters.
func (c *Coordinator) Stats() Stats {
	st := Stats{
		WorkersTotal:       len(c.workers),
		Remote:             c.remote.Load(),
		Local:              c.localRuns.Load(),
		Failovers:          c.failovers.Load(),
		PrefixSharded:      c.prefixSharded.Load(),
		PrefixRangesRemote: c.prefixRemote.Load(),
		RangesReassigned:   c.rangesReassigned.Load(),
	}
	for _, w := range c.workers {
		if w.healthy.Load() {
			st.WorkersHealthy++
		}
		st.Workers = append(st.Workers, WorkerStats{
			Addr:    w.base,
			Healthy: w.healthy.Load(),
			Fetches: w.fetches.Load(),
			Errors:  w.errors.Load(),
			Latency: w.lat.Snapshot(),
		})
	}
	return st
}
