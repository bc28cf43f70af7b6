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
//     selected. Its /stats in-flight count (server.StatsResponse)
//     seeds the load accounting, so a worker that is already busy
//     serving other clients starts deprioritized.
//   - selection: least-loaded — the healthy untried worker with the
//     fewest in-flight requests (scraped baseline + the coordinator's
//     own accounting) wins. A bounded per-worker in-flight cap
//     (DefaultMaxInFlight) keeps one slow worker from serializing the
//     batch: once a worker is saturated, work flows to its peers.
//   - failure: every request carries its own timeout. A transport
//     error (connection refused, reset, EOF — a killed worker) evicts
//     the worker; an HTTP-level failure (non-200, undecodable body,
//     mismatched id) only fails the attempt. Either way the
//     experiment fails over to the next worker, trying each worker at
//     most once. Eviction is not forever: a coordinator can outlive a
//     worker restart (cmd/figuresd -peers runs one for the daemon's
//     whole life), so after DefaultReviveAfter a live request is
//     allowed to re-try an evicted worker, and one success restores it
//     to full rotation.
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
// Ranges inherit the failover rules above; a range whose attempts
// exhaust the fleet is explored locally, reassigned but never dropped.
//
// With a store (experiments.Cache) as Options.Local.Cache, the
// coordinator is the top of a read-through cache hierarchy: the whole
// result is consulted before carving, every range is consulted before
// dispatch and stored back after it is fetched or explored, and the
// merged whole is stored last — so a repeated sharded run of the same
// space executes zero explorations fleet-wide, and a partially warm
// store re-explores only the ranges it is missing.
package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
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
	// DefaultRequestTimeout bounds one remote experiment fetch —
	// generous because a cold exhaustive exploration legitimately
	// takes up to the worker's own execution timeout (2m default).
	DefaultRequestTimeout = 3 * time.Minute
	// DefaultProbeTimeout bounds the startup /healthz and /stats
	// probes; a worker that cannot answer a liveness check in this
	// window is not worth routing experiments to.
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
	// baselineTTL bounds how long the /stats in-flight count scraped
	// at probe time keeps inflating a worker's load: the snapshot
	// describes startup, not steady state, so it expires rather than
	// skewing selection forever.
	baselineTTL = 30 * time.Second
)

// Options configures New. Workers is the only required field.
type Options struct {
	// Workers lists the fleet as host:port addresses (a scheme-full
	// URL is accepted too). Order is irrelevant: selection is by
	// load, not position.
	Workers []string
	// RequestTimeout bounds each remote experiment fetch; <= 0 means
	// DefaultRequestTimeout.
	RequestTimeout time.Duration
	// Local configures the in-process fallback engine and the
	// coordinator's view of the experiments: Registry (nil means
	// experiments.Registry()) resolves every id, its entries' Shardable
	// seams decide which spaces are carved into prefix ranges; Cache is
	// the front cache and per-range store; Timeout bounds a fallback
	// run; Jobs bounds how many fallback experiments run concurrently.
	// IDs is ignored — the coordinator fills it per experiment.
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
	// Now injects the coordinator's clock (eviction revival, baseline
	// expiry); nil means time.Now. Tests use it to advance time
	// without sleeping.
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
	// that fell back whole to the in-process engine. Prefix-sharded
	// experiments are counted by PrefixSharded instead.
	Remote, Local int64
	// Failovers counts failed attempts — whole experiments or prefix
	// ranges — that moved work to another worker (or, when none
	// remained, to the local fallback).
	Failovers int64
	// PrefixSharded counts experiments whose exploration space was
	// split across the fleet as prefix ranges.
	PrefixSharded int64
	// PrefixRangesRemote and PrefixRangesLocal count the ranges of
	// prefix-sharded experiments served by workers and explored
	// locally (fleet exhausted for that range).
	PrefixRangesRemote, PrefixRangesLocal int64
	// PrefixRangesCached counts the ranges served straight from the
	// coordinator's own artifact store without touching the fleet —
	// the read-through half of the cache hierarchy.
	PrefixRangesCached int64
	// RangesReassigned counts prefix-range attempts that failed on one
	// worker and were reassigned — the "never dropped" half of the
	// failover contract.
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
	sem      chan struct{} // bounds in-flight requests to this worker
	inflight atomic.Int64  // the coordinator's own in-flight count
	healthy  atomic.Bool
	retryAt  atomic.Int64 // unix nanos after which eviction may be re-tried
	lat      hist.Histogram
	fetches  atomic.Int64
	errors   atomic.Int64

	// baseline is the worker's /stats in-flight count at probe time
	// (load from clients this coordinator cannot see), counted toward
	// selection until baselineUntil. Written only during New's probe,
	// before any pick can run.
	baseline      int64
	baselineUntil time.Time
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

// load is the selection key: the coordinator's own in-flight count
// plus the scraped startup baseline while it is still fresh.
func (w *worker) load(now time.Time) int64 {
	l := w.inflight.Load()
	if now.Before(w.baselineUntil) {
		l += w.baseline
	}
	return l
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
	exploreSem chan struct{}
	journal    *trace.Journal
	now        func() time.Time
	logf       func(format string, args ...any)

	// carves holds one memoized Shardable.Roots per point (see carve).
	carveMu sync.Mutex
	carves  map[string]func() ([][]int, error)

	pickMu           sync.Mutex
	remote           atomic.Int64
	localRuns        atomic.Int64
	failovers        atomic.Int64
	prefixSharded    atomic.Int64
	prefixRemote     atomic.Int64
	prefixLocal      atomic.Int64
	prefixCached     atomic.Int64
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
		exploreSem: make(chan struct{}, 1),
		journal:    opts.Journal,
		now:        now,
		logf:       logf,
		carves:     make(map[string]func() ([][]int, error)),
	}
	for _, addr := range opts.Workers {
		c.workers = append(c.workers, &worker{
			base: baseURL(addr),
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
// DefaultProbeTimeout, then seeds the load accounting from its /stats
// in-flight count (best-effort: a worker without /stats just starts at
// zero). A failed probe schedules revival like any other eviction, so
// a worker that was merely slow to boot rejoins a long-lived
// coordinator.
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
	if st, err := c.scrapeStats(ctx, w); err == nil {
		// A worker serving a different experiment generation would
		// answer every fetch with bytes from the wrong registry;
		// start it evicted (the per-response header check guards the
		// revival path).
		if st.RegistryVersion != "" && st.RegistryVersion != experiments.RegistryVersion {
			c.logf("shard: worker %s serves registry %s, want %s", w.base, st.RegistryVersion, experiments.RegistryVersion)
			c.evict(w)
			return
		}
		w.baseline = st.InFlight
		w.baselineUntil = c.now().Add(baselineTTL)
	}
}

// evict takes w out of rotation and schedules the moment a live
// request may try it again.
func (c *Coordinator) evict(w *worker) {
	w.healthy.Store(false)
	w.retryAt.Store(c.now().Add(DefaultReviveAfter).UnixNano())
}

// revive returns w to full rotation after a successful request,
// reporting whether w was actually evicted (so callers journal real
// revivals, not every success).
func (c *Coordinator) revive(w *worker) bool {
	if !w.healthy.Swap(true) {
		c.logf("shard: worker %s revived", w.base)
		return true
	}
	return false
}

// scrapeStats fetches one worker's /stats snapshot.
func (c *Coordinator) scrapeStats(ctx context.Context, w *worker) (server.StatsResponse, error) {
	var st server.StatsResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("shard: worker %s /stats: status %d", w.base, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("shard: worker %s /stats: %w", w.base, err)
	}
	return st, nil
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
// and enough workers can take a range (runRange does the same
// read-through per range, so a cold whole result over warm slices
// still executes nothing), fetched whole with per-worker failover
// otherwise, and finally evaluated locally. It is the execution
// backend cmd/figuresd -peers plugs into internal/server.
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
	if sh, ok := exp.ShardableAt(ps); ok {
		if res, done := c.runPrefixSharded(ctx, id, ps, sh); done {
			if cache != nil && res.Err == nil {
				cache.PutParam(id, params, res) // best-effort, like the engine
			}
			return res, nil
		}
	}
	return c.runWhole(ctx, exp, ps, name)
}

// runWhole fetches one point whole from the workers, least-loaded
// first and each at most once, then falls back to local evaluation
// through experiments.RunParam (which owns the point's cache
// read-through), bounded by the local-fallback concurrency
// (Options.Local.Jobs).
func (c *Coordinator) runWhole(ctx context.Context, exp experiments.Experiment, ps experiments.ParamSet, name string) (experiments.Result, error) {
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
			Detail: fmt.Sprintf("in-flight %d", w.inflight.Load())})
		fetchStart := time.Now()
		res, err := c.fetch(ctx, w, id, ps)
		w.inflight.Add(-1)
		if err == nil {
			c.remote.Add(1)
			c.journal.Add(reqID, trace.Event{Kind: trace.KindFetch, Worker: w.base,
				Detail: fmt.Sprintf("fetched whole in %v", time.Since(fetchStart).Round(time.Microsecond))})
			if c.local.Cache != nil {
				c.local.Cache.PutParam(id, ps.Canonical(), res) // best-effort, like the engine
			}
			return res, nil
		}
		if ctx.Err() != nil {
			return experiments.Result{ID: id, Err: ctx.Err()}, nil
		}
		c.failovers.Add(1)
		c.journal.Add(reqID, trace.Event{Kind: trace.KindRetry, Worker: w.base, Detail: err.Error()})
		c.logf("shard: %s on %s failed (%v); failing over", name, w.base, err)
	}
	c.journal.Add(reqID, trace.Event{Kind: trace.KindLocalFallback})
	select {
	case c.localSem <- struct{}{}:
	case <-ctx.Done():
		return experiments.Result{ID: id, Err: ctx.Err()}, nil
	}
	defer func() { <-c.localSem }()
	res := experiments.RunParam(ctx, exp, ps, experiments.Options{
		Timeout: c.local.Timeout,
		Cache:   c.local.Cache,
	})
	c.localRuns.Add(1)
	c.logf("shard: %s ran locally", name)
	return res, nil
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
// in range order, and render the table. A range whose attempts
// exhaust the fleet is explored locally — reassigned, never dropped —
// so the merged table is byte-identical to a local run no matter
// which workers died along the way. ps is the parameter point the
// space is carved at — the zero ParamSet at the default point. done
// reports whether the experiment was handled here; carving problems
// (partition failure, too few workers) fall back to the
// whole-experiment path.
func (c *Coordinator) runPrefixSharded(ctx context.Context, id string, ps experiments.ParamSet, sh experiments.Shardable) (experiments.Result, bool) {
	start := c.now()
	if c.selectableCount() < minShardWorkers {
		return experiments.Result{}, false
	}
	roots, err := c.carve(id, ps, sh)
	if err != nil || len(roots) == 0 {
		c.logf("shard: %s: partition failed (%v); fetching whole", id, err)
		return experiments.Result{}, false
	}
	ranges := splitRanges(roots, 2*c.selectableCount())
	c.journal.Add(trace.IDFrom(ctx), trace.Event{Kind: trace.KindCarve,
		Detail: fmt.Sprintf("%d roots into %d ranges across %d selectable workers",
			len(roots), len(ranges), c.selectableCount())})
	// Counted at the carve, not at success: the range counters below
	// move for this experiment either way, and the stats must agree
	// that its space was split even if a range later fails.
	c.prefixSharded.Add(1)
	aggs := make([]experiments.Aggregate, len(ranges))
	errs := make([]error, len(ranges))
	var wg sync.WaitGroup
	for i := range ranges {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			aggs[i], errs[i] = c.runRange(ctx, id, ps, sh, ranges[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			// A range that cannot be computed anywhere (local explore
			// failed, or the run was cancelled) fails the experiment:
			// merging a partial space would silently corrupt the
			// theorem-level counts the table reports.
			return experiments.Result{ID: id, Err: err, Duration: c.now().Sub(start)}, true
		}
	}
	merged := aggs[0]
	for _, agg := range aggs[1:] {
		if err := merged.Merge(agg); err != nil {
			return experiments.Result{ID: id, Err: err, Duration: c.now().Sub(start)}, true
		}
	}
	tab, err := sh.Finish(merged)
	if err != nil {
		return experiments.Result{ID: id, Err: err, Duration: c.now().Sub(start)}, true
	}
	return experiments.Result{ID: id, Table: tab, Duration: c.now().Sub(start)}, true
}

// carve returns the partition of one point's exploration space,
// computing it on the point's first request: every later request,
// concurrent ones included, gets the same roots. Shardable.Roots is
// deterministic and does no I/O, so its result (and its error) is a
// constant of the point; only schema-validated points reach here, so
// the memo stays as small as the registry's parameter spaces. The
// roots are shared and read-only: splitRanges only sub-slices them,
// and FormatPrefixes, NewShardEnvelope and the local Explore only
// read them.
func (c *Coordinator) carve(id string, ps experiments.ParamSet, sh experiments.Shardable) ([][]int, error) {
	key := id + "\x00" + ps.Canonical()
	c.carveMu.Lock()
	roots, ok := c.carves[key]
	if !ok {
		roots = sync.OnceValues(sh.Roots)
		c.carves[key] = roots
	}
	c.carveMu.Unlock()
	return roots()
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

// runRange computes one prefix range's aggregate. The coordinator's
// own artifact store is consulted first (read-through: a range served
// from disk never touches the fleet), then each worker at most once
// with the whole-experiment failover rules (a transport error
// evicts, an HTTP error only fails the attempt), then the local
// explorer. Every failed attempt reassigns the range — it is never
// dropped — and every computed aggregate, remote or local, is stored
// back so the next run of this space starts warm.
func (c *Coordinator) runRange(ctx context.Context, id string, ps experiments.ParamSet, sh experiments.Shardable, roots [][]int) (experiments.Aggregate, error) {
	reqID := trace.IDFrom(ctx)
	prefixes := experiments.FormatPrefixes(roots)
	params := ps.Canonical()
	if c.local.Cache != nil {
		if env, ok := c.local.Cache.GetSlice(id, params, prefixes); ok {
			// The store vouches for the bytes (checksum, key match);
			// Decode vouches for the semantics. A rejected aggregate
			// falls through to a fetch, whose success overwrites it.
			if agg, err := sh.Decode(env.Aggregate); err == nil {
				c.prefixCached.Add(1)
				c.journal.Add(reqID, trace.Event{Kind: trace.KindSliceHit, Range: prefixes,
					Detail: "coordinator artifact store"})
				return agg, nil
			}
		}
		c.journal.Add(reqID, trace.Event{Kind: trace.KindSliceMiss, Range: prefixes,
			Detail: "coordinator artifact store"})
	}
	tried := make(map[*worker]bool)
	for {
		w := c.pick(tried)
		if w == nil {
			break // fleet exhausted for this range
		}
		tried[w] = true
		c.journal.Add(reqID, trace.Event{Kind: trace.KindWorkerSelected, Worker: w.base, Range: prefixes,
			Detail: fmt.Sprintf("in-flight %d", w.inflight.Load())})
		fetchStart := time.Now()
		agg, env, err := c.fetchSlice(ctx, w, id, ps, sh, prefixes)
		w.inflight.Add(-1)
		if err == nil {
			c.prefixRemote.Add(1)
			c.journal.Add(reqID, trace.Event{Kind: trace.KindFetch, Worker: w.base, Range: prefixes,
				Detail: fmt.Sprintf("fetched slice in %v", time.Since(fetchStart).Round(time.Microsecond))})
			c.storeSlice(reqID, env)
			return agg, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		c.failovers.Add(1)
		c.rangesReassigned.Add(1)
		c.journal.Add(reqID, trace.Event{Kind: trace.KindRetry, Worker: w.base, Range: prefixes,
			Detail: err.Error()})
		c.logf("shard: %s range %s on %s failed (%v); reassigning", id, prefixes, w.base, err)
	}
	// Ranges falling back concurrently are serialized on a one-slot
	// semaphore: each local Explore is a serial memoized exploration,
	// so a fleet that cannot serve costs this process one core rather
	// than one per range.
	c.journal.Add(reqID, trace.Event{Kind: trace.KindLocalFallback, Range: prefixes})
	select {
	case c.exploreSem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-c.exploreSem }()
	exploreStart := time.Now()
	agg, err := sh.Explore(roots)
	if err != nil {
		return nil, err
	}
	c.prefixLocal.Add(1)
	c.journal.Add(reqID, trace.Event{Kind: trace.KindExplore, Range: prefixes,
		Detail: fmt.Sprintf("explored locally in %v", time.Since(exploreStart).Round(time.Microsecond))})
	c.logf("shard: %s range %s explored locally", id, prefixes)
	if env, err := experiments.NewShardEnvelope(id, params, roots, agg); err == nil {
		c.storeSlice(reqID, env)
	}
	return agg, nil
}

// storeSlice writes one computed range back to the artifact store,
// best-effort: caching is an optimisation, never a reason to fail a
// range that was just computed successfully.
func (c *Coordinator) storeSlice(reqID string, env experiments.ShardEnvelope) {
	if c.local.Cache == nil {
		return
	}
	if err := c.local.Cache.PutSlice(env); err != nil {
		c.logf("shard: storing slice %s %s: %v", env.ID, env.Prefixes, err)
		return
	}
	c.journal.Add(reqID, trace.Event{Kind: trace.KindSliceStore, Range: env.Prefixes,
		Detail: "coordinator artifact store"})
}

// fetchSlice retrieves one prefix range's aggregate from one worker,
// under the same in-flight cap, timeout, eviction, and revival rules
// as a whole-experiment fetch, returning the decoded aggregate and
// the validated wire envelope (the form the artifact store keeps). A
// worker serving a different generation of this experiment's space
// (per-family SpaceVersion) fails the attempt: its numbers describe a
// different space — and because the check is per space, a fleet
// mid-rollout of one family's code keeps serving every other family.
func (c *Coordinator) fetchSlice(ctx context.Context, w *worker, id string, ps experiments.ParamSet, sh experiments.Shardable, prefixes string) (experiments.Aggregate, experiments.ShardEnvelope, error) {
	var agg experiments.Aggregate
	var env experiments.ShardEnvelope
	params := ps.Canonical()
	err := c.fetchWorker(ctx, w, pointPath(id, ps)+"prefixes="+url.QueryEscape(prefixes), func(body io.Reader) error {
		var err error
		env, err = experiments.DecodeShard(body)
		if err != nil {
			return err
		}
		if env.ID != id || env.Prefixes != prefixes || env.Params != params {
			return fmt.Errorf("shard envelope for %s %s params %q, want %s %s params %q",
				env.ID, env.Prefixes, env.Params, id, prefixes, params)
		}
		if want := experiments.SpaceVersion(id); env.SpaceVersion != want {
			return fmt.Errorf("worker space %s, want %s", env.SpaceVersion, want)
		}
		agg, err = sh.Decode(env.Aggregate)
		return err
	})
	return agg, env, err
}

// pick returns the selectable, untried worker with the lowest load,
// charging it one in-flight slot (the caller releases it), or nil
// when no worker qualifies.
func (c *Coordinator) pick(tried map[*worker]bool) *worker {
	c.pickMu.Lock()
	defer c.pickMu.Unlock()
	now := c.now()
	var best *worker
	for _, w := range c.workers {
		if tried[w] || !w.selectable(now) {
			continue
		}
		if best == nil || w.load(now) < best.load(now) {
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
// policy: a transport failure evicts the worker — unless it is this
// request's own deadline, because a slow experiment is not a dead
// worker — a non-200 drains a bounded body prefix and fails the
// attempt, and a fully decoded success (decode returned nil) restores
// an evicted worker to rotation. Both the whole-experiment and the
// prefix-slice paths go through here so the failover policy cannot
// diverge between them.
func (c *Coordinator) fetchWorker(ctx context.Context, w *worker, pathAndQuery string, decode func(io.Reader) error) error {
	select {
	case w.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-w.sem }()
	// The latency record spans request start to body decoded — queue
	// time on the worker's semaphore excluded, because that measures
	// this coordinator's cap, not the worker. Failures are recorded
	// too: a worker failing fast must not look fast and healthy.
	start := time.Now()
	w.fetches.Add(1)
	err := c.fetchWorkerLocked(ctx, w, pathAndQuery, decode)
	w.lat.Record(time.Since(start))
	if err != nil {
		w.errors.Add(1)
	}
	return err
}

// fetchWorkerLocked is fetchWorker's body, split out so the latency
// and error accounting wraps every return path exactly once.
func (c *Coordinator) fetchWorkerLocked(ctx context.Context, w *worker, pathAndQuery string, decode func(io.Reader) error) error {
	ctx, cancel := context.WithTimeout(ctx, c.reqTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+pathAndQuery, nil)
	if err != nil {
		return err
	}
	// The trace ID crosses the process boundary here: the worker
	// journals its slice-cache and exploration decisions under the same
	// ID the coordinator journals selection under.
	reqID := trace.IDFrom(ctx)
	if reqID != "" {
		req.Header.Set(trace.Header, reqID)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		if !errors.Is(err, context.DeadlineExceeded) {
			c.evict(w)
			c.journal.Add(reqID, trace.Event{Kind: trace.KindEvict, Worker: w.base, Detail: err.Error()})
		}
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	// A worker on a different experiment generation answers 200 with
	// perfectly decodable bytes from the wrong registry; merging them
	// would break byte-identity silently, so the attempt fails
	// instead. Workers too old to send the header are caught by the
	// probe's /stats version check.
	if v := resp.Header.Get(server.RegistryVersionHeader); v != "" && v != experiments.RegistryVersion {
		c.journal.Add(reqID, trace.Event{Kind: trace.KindRegistryReject, Worker: w.base,
			Detail: fmt.Sprintf("worker registry %s, want %s", v, experiments.RegistryVersion)})
		return fmt.Errorf("worker registry %s, want %s", v, experiments.RegistryVersion)
	}
	if err := decode(resp.Body); err != nil {
		return err
	}
	if c.revive(w) {
		c.journal.Add(reqID, trace.Event{Kind: trace.KindRevive, Worker: w.base})
	}
	return nil
}

// pointPath is the worker URI of one point of an experiment, up to
// and including the "?" its caller's own query key follows: every
// parameter spelled out, so any worker resolves the same canonical
// point — and none at the default point, whose URIs are the plain
// id's.
func pointPath(id string, ps experiments.ParamSet) string {
	path := "/experiments/" + url.PathEscape(id) + "?"
	if ps.Canonical() != "" {
		path += ps.Query() + "&"
	}
	return path
}

// fetch retrieves one point of an experiment whole from one worker.
func (c *Coordinator) fetch(ctx context.Context, w *worker, id string, ps experiments.ParamSet) (experiments.Result, error) {
	var res experiments.Result
	err := c.fetchWorker(ctx, w, pointPath(id, ps)+"format=json", func(body io.Reader) error {
		results, err := experiments.DecodeJSON(body)
		if err != nil {
			return err
		}
		if len(results) != 1 || results[0].ID != id || results[0].Err != nil || results[0].Table == nil {
			return fmt.Errorf("unusable result payload")
		}
		res = results[0]
		return nil
	})
	return res, err
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
		PrefixRangesLocal:  c.prefixLocal.Load(),
		PrefixRangesCached: c.prefixCached.Load(),
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
