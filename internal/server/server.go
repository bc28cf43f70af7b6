// Package server is the HTTP serving layer over the experiment engine:
// cmd/figuresd mounts it as a daemon. It serves the experiment index,
// individual experiment tables in every encoder format, a health
// probe, and an operational /stats snapshot (cache hit/miss/eviction
// counters, per-experiment latency with full log-bucket histograms,
// per-endpoint p50/p95/p99, and the in-flight count internal/shard
// ranks workers by), with three protections a CLI run does not need:
//
//   - singleflight deduplication: N concurrent requests for a cold
//     experiment trigger exactly one execution, and all N responses
//     are rendered from the one result;
//   - a per-execution timeout detached from the request context, so a
//     client disconnect cannot poison the result other waiters share;
//   - optional cache backing (internal/cache): warm experiments are
//     served from disk without executing anything.
//
// Every request is (id, parameter point, prefixes) resolved through one
// experiment registry: a whole request at any point (the zero ParamSet
// is the default point, the plain id) takes the one execute path, and a
// ?prefixes= request the slice path. Execution is pluggable through
// Options.Backend, one function of (id, point): cmd/figuresd -peers
// installs shard.Coordinator.RunParam there, turning one daemon into
// the front door of a fleet while keeping every serving-layer
// guarantee.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/hist"
	"repro/internal/sched"
	"repro/internal/trace"
)

// DefaultTimeout bounds one experiment execution when Options.Timeout
// is zero — generous because the exhaustive explorations are the slow
// tail, and a timeout that fires mid-exploration wastes the work.
const DefaultTimeout = 2 * time.Minute

// RegistryVersionHeader carries experiments.RegistryVersion on every
// experiment and slice response, so a shard coordinator can refuse to
// merge bytes from a worker serving a different experiment generation
// (the /stats and /experiments bodies expose it too, but the header
// travels with the very response being merged).
const RegistryVersionHeader = "Repro-Registry-Version"

// Options configures New. The zero value serves the real registry
// with no cache and DefaultTimeout.
type Options struct {
	// Registry overrides the experiment registry; nil means
	// experiments.Registry(). An override's entries declare their own
	// parameter schemas and shardable seams.
	Registry map[string]experiments.Experiment
	// Cache, when non-nil, backs every in-process execution (see
	// experiments.Options.Cache), and prefix-slice requests are served
	// from and stored into it too.
	Cache experiments.Cache
	// Timeout bounds each experiment execution; 0 means
	// DefaultTimeout, negative means no limit.
	Timeout time.Duration
	// Backend, when non-nil, replaces the in-process engine for whole
	// requests, at any parameter point (the zero ParamSet is the
	// default point): the singleflight, detached timeout (via the
	// context's deadline), and cooldown still apply, but the result
	// comes from the backend — cmd/figuresd -peers wires
	// shard.Coordinator.RunParam in here so one daemon fronts a fleet.
	// A backend owns its own caching; Options.Cache is not consulted
	// around it. Prefix-slice requests (?prefixes=) never go through
	// the backend: a slice is this worker's own share of a space
	// someone upstream already carved, so re-delegating it would
	// bounce work around the fleet instead of doing it.
	Backend func(ctx context.Context, id string, ps experiments.ParamSet) (experiments.Result, error)
	// Journal receives one span per request (keyed by the
	// Repro-Request-ID header, minted here when absent) and backs
	// GET /trace/{id}; nil means a private journal with the default
	// bounds. cmd/figuresd shares one journal between this server and
	// its -peers coordinator so a front-door trace shows both layers.
	Journal *trace.Journal
	// Logf receives one line per request; nil means silent.
	Logf func(format string, args ...any)
}

// Server handles the figuresd HTTP API:
//
//	GET /experiments                         the experiment index (JSON)
//	GET /experiments/{id}?format=text|json|csv   one experiment's table
//	GET /experiments/{id}?k=...              one parameter point's table
//	GET /experiments/{id}?prefixes=...       one slice of a shardable
//	                                         experiment's space (JSON
//	                                         shard envelope)
//	GET /healthz                             liveness probe
//	GET /stats                               operational counters (JSON)
type Server struct {
	reg        map[string]experiments.Experiment
	ids        []string
	cache      experiments.Cache
	timeout    time.Duration
	backend    func(ctx context.Context, id string, ps experiments.ParamSet) (experiments.Result, error)
	exploreSem chan struct{}
	journal    *trace.Journal
	logf       func(format string, args ...any)
	flights    flightGroup
	mux        *http.ServeMux

	mu        sync.Mutex
	cooldowns map[string]cooldownEntry

	inFlight atomic.Int64
	requests atomic.Int64
	statsMu  sync.Mutex
	perExp   map[string]*expStat
	// memoMu guards the accumulated exploration counters (memoRuns
	// plus the summed MemoStats) behind /stats.
	memoMu     sync.Mutex
	memoRuns   int64
	memoTotals sched.MemoStats
	// endpointLat holds the per-endpoint latency histograms (fixed
	// key set, built at New): recording is lock-free on the request
	// path, /stats snapshots them.
	endpointLat map[string]*hist.Histogram
}

// New builds a server over the given registry and cache.
func New(opts Options) *Server {
	reg := opts.Registry
	if reg == nil {
		reg = experiments.Registry()
	}
	timeout := opts.Timeout
	if timeout == 0 {
		timeout = DefaultTimeout
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	journal := opts.Journal
	if journal == nil {
		journal = trace.NewJournal(0, 0)
	}
	s := &Server{
		reg:        reg,
		ids:        experiments.IDsOf(reg),
		cache:      opts.Cache,
		timeout:    timeout,
		backend:    opts.Backend,
		exploreSem: make(chan struct{}, sliceExploreSlots),
		journal:    journal,
		logf:       logf,
		mux:        http.NewServeMux(),
		cooldowns:  make(map[string]cooldownEntry),
		perExp:     make(map[string]*expStat),
		endpointLat: map[string]*hist.Histogram{
			EndpointExperiment: hist.New(),
			EndpointParam:      hist.New(),
			EndpointSlice:      hist.New(),
		},
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /experiments", s.handleIndex)
	s.mux.HandleFunc("GET /experiments/{id}", s.handleExperiment)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /trace/{id}", s.handleTrace)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// indexResponse is the /experiments body, ids in index order ("E2"
// before "E10"). Families describes the parameterized spaces this
// process serves — the discoverable schema behind
// GET /experiments/{family}?param=...; experiments without a family
// entry take no parameters.
type indexResponse struct {
	RegistryVersion string                 `json:"registry_version"`
	Experiments     []string               `json:"experiments"`
	Families        map[string]indexFamily `json:"families,omitempty"`
}

// indexFamily is one family's index entry: its doc line, space version
// (the per-family cache-identity generation), and parameter schema.
type indexFamily struct {
	Doc          string       `json:"doc,omitempty"`
	SpaceVersion string       `json:"space_version"`
	Params       []indexParam `json:"params"`
}

// indexParam is one parameter's published schema.
type indexParam struct {
	Name    string  `json:"name"`
	Kind    string  `json:"kind"`
	Default string  `json:"default"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Doc     string  `json:"doc,omitempty"`
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	var families map[string]indexFamily
	for id, fam := range s.reg {
		if len(fam.Params) == 0 {
			continue
		}
		entry := indexFamily{
			Doc:          fam.Doc,
			SpaceVersion: experiments.SpaceVersion(id),
			Params:       make([]indexParam, 0, len(fam.Params)),
		}
		for _, spec := range fam.Params {
			entry.Params = append(entry.Params, indexParam{
				Name:    spec.Name,
				Kind:    spec.Kind.String(),
				Default: spec.Default,
				Min:     spec.Min,
				Max:     spec.Max,
				Doc:     spec.Doc,
			})
		}
		sort.Slice(entry.Params, func(a, b int) bool { return entry.Params[a].Name < entry.Params[b].Name })
		if families == nil {
			families = make(map[string]indexFamily)
		}
		families[id] = entry
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(indexResponse{
		RegistryVersion: experiments.RegistryVersion,
		Experiments:     s.ids,
		Families:        families,
	})
}

// contentTypes maps encoder formats to their media type.
var contentTypes = map[string]string{
	"text": "text/plain; charset=utf-8",
	"json": "application/json",
	"csv":  "text/csv",
}

// requestID extracts the request's trace ID from the Repro-Request-ID
// header, minting one when the server is the edge, and echoes it on
// the response so the client can fetch /trace/{id} afterwards even
// when it did not mint.
func (s *Server) requestID(w http.ResponseWriter, r *http.Request) string {
	reqID := r.Header.Get(trace.Header)
	if reqID == "" {
		reqID = trace.NewID()
	}
	w.Header().Set(trace.Header, reqID)
	s.journal.Start(reqID, "GET "+r.URL.RequestURI())
	s.journal.Add(reqID, trace.Event{Kind: trace.KindRequest, Detail: "GET " + r.URL.RequestURI()})
	return reqID
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	id := r.PathValue("id")
	exp, ok := s.reg[id]
	if !ok {
		http.Error(w, fmt.Sprintf("unknown experiment %q", id), http.StatusNotFound)
		return
	}
	q := r.URL.Query()
	// Every query key that is not serving machinery (format, prefixes)
	// is a parameter of the experiment. Parsing validates and
	// canonicalizes the point; a spelled-out default point comes back
	// with Canonical "" and shares the plain id's path — one cache
	// entry, one singleflight — no matter how it was spelled. A request
	// naming no parameters keeps the zero ParamSet, the default point.
	paramQuery := url.Values{}
	for name, vals := range q {
		if name == "format" || name == "prefixes" {
			continue
		}
		paramQuery[name] = vals
	}
	var ps experiments.ParamSet
	if len(paramQuery) > 0 {
		var err error
		if ps, err = experiments.ParseParams(exp, paramQuery); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	// Presence, not value, selects the slice path, so an empty
	// ?prefixes= is a 400 like any malformed slice (the whole space is
	// "-"), never the whole table.
	if q.Has("prefixes") {
		s.handlePrefixes(w, r, exp, ps, q.Get("prefixes"), start)
		return
	}
	format := q.Get("format")
	if format == "" {
		format = "text"
	}
	encode, err := experiments.LookupEncoder(format)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	reqID := s.requestID(w, r)

	s.requests.Add(1)
	s.inFlight.Add(1)
	res, shared, err := s.execute(reqID, id, ps)
	s.inFlight.Add(-1)
	endpoint := EndpointExperiment
	if ps.Canonical() != "" {
		endpoint = EndpointParam
	}
	s.record(endpoint, id, time.Since(start), err != nil || res.Err != nil)
	switch {
	case shared:
		s.journal.Add(reqID, trace.Event{Kind: trace.KindCoalesce,
			Detail: "joined an in-flight execution or cooldown window"})
	case err == nil && res.Cached:
		s.journal.Add(reqID, trace.Event{Kind: trace.KindCacheHit})
	case err == nil:
		s.journal.Add(reqID, trace.Event{Kind: trace.KindCacheMiss})
	}
	if err != nil {
		// Backend errors only (the in-process engine reports failures
		// in res.Err): a fleet or configuration fault, not a client
		// mistake.
		s.traceDone(reqID, http.StatusInternalServerError, start)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}

	// Encode before writing headers so an encoder error cannot corrupt
	// a 200 response, and a failed experiment can carry a 500 status
	// around its encoded error form.
	var body bytes.Buffer
	if err := encode(&body, []experiments.Result{res}); err != nil {
		s.traceDone(reqID, http.StatusInternalServerError, start)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	status := http.StatusOK
	if res.Err != nil {
		status = http.StatusInternalServerError
	}
	s.traceDone(reqID, status, start)
	w.Header().Set("Content-Type", contentTypes[format])
	w.Header().Set(RegistryVersionHeader, experiments.RegistryVersion)
	w.WriteHeader(status)
	w.Write(body.Bytes())
	s.logf("figuresd: GET %s format=%s status=%d cached=%v shared=%v trace=%s in %v",
		r.URL.Path, format, status, res.Cached, shared, reqID, time.Since(start).Round(time.Millisecond))
}

// traceDone closes a request's span with its status and duration.
func (s *Server) traceDone(reqID string, status int, start time.Time) {
	s.journal.Add(reqID, trace.Event{Kind: trace.KindDone,
		Detail: fmt.Sprintf("status %d in %v", status, time.Since(start).Round(time.Microsecond))})
}

// sliceOutcome is the singleflight value of one slice request: the
// wire envelope, and whether it came from the artifact store.
type sliceOutcome struct {
	env    experiments.ShardEnvelope
	cached bool
}

// handlePrefixes serves one slice of a shardable experiment's
// exploration space: GET /experiments/{id}?prefixes=... parses the
// forced-prefix ranges, explores exactly those subtrees, and responds
// with the JSON shard envelope (experiments.EncodeShard). With a
// cache, the store is consulted first and populated after — repeated sharded runs of the
// same space hit disk instead of re-exploring, the worker-level half
// of the fleet's read-through cache hierarchy. Identical slice
// requests share one execution through the singleflight group (keyed
// by the canonical prefix rendering, so equivalent spellings share
// too), and a timed-out slice starts the same cooldown as a timed-out
// experiment: a coordinator retry (and any future run of the same
// experiment) re-sends the byte-identical prefixes string, and
// without the cooldown each retry would stack another abandoned
// exploration on the worker.
func (s *Server) handlePrefixes(w http.ResponseWriter, r *http.Request, exp experiments.Experiment, ps experiments.ParamSet, prefixes string, start time.Time) {
	if format := r.URL.Query().Get("format"); format != "" && format != "json" {
		http.Error(w, fmt.Sprintf("prefix slices are JSON only, not %q", format), http.StatusBadRequest)
		return
	}
	// The space is carved at the requested point; at the default point
	// (however spelled) that is the plain id's space — identical bytes,
	// shared cache entries.
	id, params := exp.ID, ps.Canonical()
	sh, ok := exp.ShardableAt(ps)
	if !ok {
		http.Error(w, fmt.Sprintf("experiment %q is not prefix-shardable", id), http.StatusBadRequest)
		return
	}
	roots, err := experiments.ParsePrefixes(prefixes)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	canonical := experiments.FormatPrefixes(roots)
	reqID := s.requestID(w, r)

	s.requests.Add(1)
	s.inFlight.Add(1)
	key := id + "\x00" + params + "\x00" + canonical
	var val any
	var shared bool
	if res, cooling := s.coolingDown(key); cooling {
		err, shared = res.Err, true
	} else {
		val, err, shared = s.flights.Do(key, func() (any, error) {
			return s.sliceEnvelope(reqID, sh, id, params, canonical, roots)
		})
		if err != nil && !shared && errors.Is(err, context.DeadlineExceeded) {
			s.startCooldown(key, experiments.Result{Err: err})
		}
	}
	s.inFlight.Add(-1)
	s.record(EndpointSlice, id, time.Since(start), err != nil)
	if shared {
		s.journal.Add(reqID, trace.Event{Kind: trace.KindCoalesce, Range: canonical,
			Detail: "joined an in-flight execution or cooldown window"})
	}
	if err != nil {
		// A prefix the scheduler cannot follow is the client's
		// mistake, not the server's: ParsePrefixes can only check
		// syntax and overlap, liveness is known after the replay.
		status := http.StatusInternalServerError
		if errors.Is(err, sched.ErrPrefixNotLive) {
			status = http.StatusBadRequest
		}
		s.traceDone(reqID, status, start)
		http.Error(w, err.Error(), status)
		return
	}
	out := val.(sliceOutcome)

	var body bytes.Buffer
	if err := experiments.EncodeShardEnvelope(&body, out.env); err != nil {
		s.traceDone(reqID, http.StatusInternalServerError, start)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.traceDone(reqID, http.StatusOK, start)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(RegistryVersionHeader, experiments.RegistryVersion)
	w.Write(body.Bytes())
	s.logf("figuresd: GET %s prefixes=%s roots=%d cached=%v shared=%v trace=%s in %v",
		r.URL.Path, canonical, len(roots), out.cached, shared, reqID, time.Since(start).Round(time.Millisecond))
}

// sliceEnvelope produces one slice's wire envelope: from the artifact
// store when a trustworthy entry exists, by exploring otherwise (and
// storing the fresh envelope back, best-effort). A stored envelope
// whose aggregate the experiment's own Decode rejects is treated as a
// miss and overwritten by the recomputation — the payload checksum
// guards the bytes, Decode guards the semantics. Each decision lands
// in the journal under reqID — the leader request's ID, since the
// singleflight runs this once per flight.
func (s *Server) sliceEnvelope(reqID string, sh experiments.Shardable, id, params, canonical string, roots [][]int) (sliceOutcome, error) {
	if s.cache != nil {
		if env, ok := s.cache.GetSlice(id, params, canonical); ok {
			if _, err := sh.Decode(env.Aggregate); err == nil {
				s.journal.Add(reqID, trace.Event{Kind: trace.KindSliceHit, Range: canonical})
				return sliceOutcome{env: env, cached: true}, nil
			}
		}
		s.journal.Add(reqID, trace.Event{Kind: trace.KindSliceMiss, Range: canonical})
	}
	exploreStart := time.Now()
	agg, err := s.exploreSlice(sh, roots)
	if err != nil {
		return sliceOutcome{}, err
	}
	s.journal.Add(reqID, trace.Event{Kind: trace.KindExplore, Range: canonical,
		Detail: fmt.Sprintf("explored in %v", time.Since(exploreStart).Round(time.Microsecond))})
	env, err := experiments.NewShardEnvelope(id, params, roots, agg)
	if err != nil {
		return sliceOutcome{}, err
	}
	if s.cache != nil {
		if err := s.cache.PutSlice(env); err == nil { // best-effort, like the engine's Put
			s.journal.Add(reqID, trace.Event{Kind: trace.KindSliceStore, Range: canonical})
		}
	}
	return sliceOutcome{env: env}, nil
}

// sliceExploreSlots bounds concurrent slice explorations per server.
// Each Explore is one serial memoized exploration, so the slots are
// the server's exploration cores; two match the coordinator's
// ~two-ranges-per-worker carve (its normal load runs uncontended), and
// anything beyond queues into the timeout window — backpressure the
// coordinator answers by failing over to a less-loaded worker.
const sliceExploreSlots = 2

// exploreSlice runs one Shardable.Explore under the per-execution
// timeout, holding one of the server's exploration slots (queue time
// counts toward the timeout). Like the engine's runners, an
// exploration takes no context: on timeout its goroutine is abandoned
// until it returns.
func (s *Server) exploreSlice(sh experiments.Shardable, roots [][]int) (experiments.Aggregate, error) {
	type outcome struct {
		agg experiments.Aggregate
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if rec := recover(); rec != nil {
				ch <- outcome{err: fmt.Errorf("slice exploration panicked: %v", rec)}
			}
		}()
		s.exploreSem <- struct{}{}
		defer func() { <-s.exploreSem }()
		agg, err := sh.Explore(roots)
		if err == nil && agg == nil {
			err = fmt.Errorf("slice exploration returned no aggregate")
		}
		ch <- outcome{agg: agg, err: err}
	}()
	var timer <-chan time.Time
	if s.timeout > 0 {
		t := time.NewTimer(s.timeout)
		defer t.Stop()
		timer = t.C
	}
	select {
	case o := <-ch:
		return o.agg, o.err
	case <-timer:
		return nil, fmt.Errorf("slice timed out after %v: %w", s.timeout, context.DeadlineExceeded)
	}
}

// execute runs one experiment at one parameter point (the zero
// ParamSet is the default point) through the singleflight group, in
// process or through the Backend. The flight and cooldown key is the
// id at the default point and the id plus the point's canonical
// rendering otherwise, so every spelling of a point shares one
// execution — and never collides with another point's key or a slice's
// (the literal "params" segment cannot appear in either). The
// execution uses a context detached from any request so that the
// result every waiter shares cannot be cancelled by whichever client
// happened to arrive first; the per-execution timeout bounds it
// instead.
//
// A timed-out execution abandons its runner goroutine (the engine's
// documented behavior for runners, which take no context), so an
// immediate retry would stack a second copy of the same computation
// on top of the first. The cooldown guards against that: after a
// timeout, requests for the same point are served the recorded
// timeout failure — without executing — until one timeout period has
// passed, bounding the abandoned work to at most one runner per point
// per period no matter how aggressively clients retry.
//
// reqID is the calling request's trace ID; the detached execution
// context carries it (and nothing else from the request), so a
// backend coordinator's decisions land in the leader's span while a
// client disconnect still cannot cancel the shared execution.
func (s *Server) execute(reqID, id string, ps experiments.ParamSet) (experiments.Result, bool, error) {
	key := id
	if params := ps.Canonical(); params != "" {
		key = id + "\x00params\x00" + params
	}
	if res, ok := s.coolingDown(key); ok {
		return res, true, nil
	}
	val, err, shared := s.flights.Do(key, func() (any, error) {
		timeout := max(s.timeout, 0)
		if s.backend == nil {
			res := experiments.RunParam(context.Background(), s.reg[id], ps, experiments.Options{
				Timeout: timeout,
				Cache:   s.cache,
			})
			// Inside the flight: counted once per execution, not once
			// per waiter sharing it.
			s.recordExploration(res.Memo)
			return res, nil
		}
		ctx := trace.WithID(context.Background(), reqID)
		if timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}
		return s.backend(ctx, id, ps)
	})
	if err != nil {
		return experiments.Result{}, shared, err
	}
	res := val.(experiments.Result)
	if !shared && res.Err != nil && errors.Is(res.Err, context.DeadlineExceeded) {
		s.startCooldown(key, res)
	}
	return res, shared, nil
}

// cooldownEntry records a timed-out execution to serve in place of
// re-execution until the deadline passes.
type cooldownEntry struct {
	until time.Time
	res   experiments.Result
}

// coolingDown reports whether key — a point's or a slice's flight
// key — recently timed out, returning the recorded
// failure to serve instead of executing again.
func (s *Server) coolingDown(id string) (experiments.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.cooldowns[id]
	if !ok {
		return experiments.Result{}, false
	}
	if time.Now().After(e.until) {
		delete(s.cooldowns, id)
		return experiments.Result{}, false
	}
	return e.res, true
}

// startCooldown opens a one-timeout-long window during which id's
// recorded timeout failure is served without executing. The window
// matches the execution timeout: by then the abandoned runner has
// either finished (freeing its core) or proven the experiment needs a
// bigger -timeout, and one more probe per window is an acceptable
// cost either way.
func (s *Server) startCooldown(id string, res experiments.Result) {
	window := s.timeout
	if window <= 0 {
		return // no timeout configured, so nothing can have timed out
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cooldowns[id] = cooldownEntry{until: time.Now().Add(window), res: res}
}
