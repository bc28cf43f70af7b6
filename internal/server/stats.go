package server

import (
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/hist"
	"repro/internal/sched"
)

// Endpoint labels for the per-endpoint latency histograms, one per
// request class. The same labels key StatsResponse.Endpoints and the
// endpoint label of /metrics' repro_request_duration_seconds.
const (
	// EndpointExperiment is a whole-experiment fetch:
	// GET /experiments/{id}[?format=...].
	EndpointExperiment = "experiment"
	// EndpointParam is a non-default parameterized fetch:
	// GET /experiments/{family}?k=... (a default point, however
	// spelled, counts under EndpointExperiment — it is the fixed
	// experiment).
	EndpointParam = "param"
	// EndpointSlice is a prefix-slice fetch:
	// GET /experiments/{id}?prefixes=...
	EndpointSlice = "slice"
)

// StatsResponse is one process's operational counters since startup,
// for operators watching a figuresd instance: the GET /stats body, and
// the one snapshot GET /metrics renders, so both expose the same
// series. Counters only ever grow (except InFlight and Trace.Requests,
// which track the instant); the response is a snapshot, not an atomic
// cut across fields.
type StatsResponse struct {
	// RegistryVersion identifies the experiment generation this
	// process serves (cache keys depend on it).
	RegistryVersion string `json:"registry_version"`
	// InFlight is the number of whole, parameter-point and slice
	// requests currently between arrival and response — including time
	// spent waiting on another request's singleflight execution.
	InFlight int64 `json:"in_flight"`
	// Requests counts whole, parameter-point and slice requests
	// accepted (valid id, point, format and prefixes) since startup,
	// whatever their outcome.
	Requests int64 `json:"requests"`
	// Cache carries the result store's counters; absent when the
	// process runs cacheless or the store does not report stats.
	Cache *StatsCache `json:"cache,omitempty"`
	// Experiments holds per-experiment latency counters, keyed by id;
	// an experiment never requested has no entry.
	Experiments map[string]StatsExperiment `json:"experiments"`
	// Endpoints holds per-endpoint latency histograms
	// (EndpointExperiment, EndpointParam, EndpointSlice), keyed by
	// endpoint label; an endpoint never hit has no entry. Quantiles
	// follow internal/hist's contract: bucket upper bounds, overshooting
	// the true value by at most hist.Growth (≈18.9%).
	Endpoints map[string]hist.Snapshot `json:"endpoints"`
	// Exploration accumulates the memoized explorer's counters over
	// every whole or parameter-point run this process explored; absent
	// until the first.
	Exploration *StatsExploration `json:"exploration,omitempty"`
	// Trace reports the request-trace journal behind GET /trace/{id}.
	Trace StatsTrace `json:"trace"`
}

// StatsExploration sums the memoized exploration counters
// (sched.MemoStats) across the runs this process explored: executions
// accounted, replays actually performed, and the visited/pruned state
// totals. Cache hits and slice requests add nothing.
type StatsExploration struct {
	Runs          int64 `json:"runs"`
	Executions    int64 `json:"executions"`
	Replays       int64 `json:"replays"`
	StatesVisited int64 `json:"states_visited"`
	StatesPruned  int64 `json:"states_pruned"`
}

// StatsCache mirrors cache.Stats on the wire. The slice_* counters
// track the artifact store's prefix-slice traffic (the worker-level
// half of the fleet cache hierarchy); they stay zero on stores that
// only ever see whole results.
type StatsCache struct {
	Hits        int64   `json:"hits"`
	Misses      int64   `json:"misses"`
	SliceHits   int64   `json:"slice_hits"`
	SliceMisses int64   `json:"slice_misses"`
	SliceStores int64   `json:"slice_stores"`
	Corrupt     int64   `json:"corrupt"`
	Evicted     int64   `json:"evicted"`
	HitRate     float64 `json:"hit_rate"`
}

// StatsExperiment is one experiment's request record, every endpoint
// class (whole, parameter point, slice) counted under the id. Times
// are wall-clock as observed by the serving path, so a request that
// joined an in-flight execution or hit the cache reports its (short)
// wait, not the runner's cost.
type StatsExperiment struct {
	// Count is the number of requests served, Histogram.Count.
	Count  int64 `json:"count"`
	Errors int64 `json:"errors"`
	// Histogram is the full latency distribution (count, sum_ms,
	// max_ms, quantiles).
	Histogram *hist.Snapshot `json:"histogram,omitempty"`
}

// StatsTrace is the journal's two gauges: the request traces it
// retains now, and those evicted at its ring cap since startup.
type StatsTrace struct {
	Requests int64 `json:"requests"`
	Evicted  int64 `json:"evicted"`
}

// accumulators holds every counter behind StatsResponse. New builds
// it once, with a record per registry id and per endpoint label, so
// recording a request takes no lock and inserts into no map; snapshot
// is the one place that reads it.
type accumulators struct {
	inFlight, requests atomic.Int64
	endpoints          map[string]*hist.Histogram
	experiments        map[string]*expStat
	// runs counts the runs that explored; the rest sum their
	// sched.MemoStats.
	runs, executions, replays, visited, pruned atomic.Int64
}

// expStat is one experiment's record behind StatsExperiment.
type expStat struct {
	errors atomic.Int64
	lat    hist.Histogram
}

func newAccumulators(ids []string) *accumulators {
	a := &accumulators{endpoints: make(map[string]*hist.Histogram), experiments: make(map[string]*expStat)}
	for _, name := range []string{EndpointExperiment, EndpointParam, EndpointSlice} {
		a.endpoints[name] = hist.New()
	}
	for _, id := range ids {
		a.experiments[id] = &expStat{}
	}
	return a
}

// begin counts one accepted request and puts it in flight; record
// takes it out again.
func (s *Server) begin() {
	s.acc.requests.Add(1)
	s.acc.inFlight.Add(1)
}

// record folds one served request of registry id into its
// experiment's record and its endpoint's histogram, and takes it out
// of flight.
func (s *Server) record(endpoint, id string, d time.Duration, failed bool) {
	s.acc.inFlight.Add(-1)
	s.acc.endpoints[endpoint].Record(d)
	e := s.acc.experiments[id]
	if failed {
		e.errors.Add(1)
	}
	e.lat.Record(d)
}

// recordExploration folds one run's explorer counters into the
// exploration totals; a run that explored nothing (a cache hit, an
// experiment outside the memo) is not counted.
func (s *Server) recordExploration(m sched.MemoStats) {
	if m.Executions == 0 {
		return
	}
	a := s.acc
	a.executions.Add(int64(m.Executions))
	a.replays.Add(int64(m.Replays))
	a.visited.Add(int64(m.StatesVisited))
	a.pruned.Add(int64(m.StatesPruned))
	a.runs.Add(1)
}

// snapshot reads every counter once into the value /stats encodes and
// /metrics renders. Experiments and endpoints never requested are left
// out, and so is the exploration section before the first exploring
// run.
func (s *Server) snapshot() StatsResponse {
	a := s.acc
	st := StatsResponse{
		RegistryVersion: experiments.RegistryVersion,
		InFlight:        a.inFlight.Load(),
		Requests:        a.requests.Load(),
		Experiments:     make(map[string]StatsExperiment),
		Endpoints:       make(map[string]hist.Snapshot),
		Trace:           StatsTrace{Requests: int64(s.journal.Len()), Evicted: s.journal.Evicted()},
	}
	// The engine-facing cache interface has no counters; only stores
	// that report them (internal/cache.Store) appear in the response.
	if cs, ok := s.cache.(interface{ Stats() cache.Stats }); ok {
		c := cs.Stats()
		st.Cache = &StatsCache{Hits: c.Hits, Misses: c.Misses, SliceHits: c.SliceHits,
			SliceMisses: c.SliceMisses, SliceStores: c.SliceStores, Corrupt: c.Corrupt,
			Evicted: c.Evicted, HitRate: c.HitRate()}
	}
	for id, e := range a.experiments {
		if e.lat.Count() != 0 {
			snap := e.lat.Snapshot()
			st.Experiments[id] = StatsExperiment{Count: snap.Count, Errors: e.errors.Load(), Histogram: &snap}
		}
	}
	for name, h := range a.endpoints {
		if h.Count() != 0 {
			st.Endpoints[name] = h.Snapshot()
		}
	}
	// runs is added last and read first: a run counted here has its
	// counts in the totals below.
	if runs := a.runs.Load(); runs != 0 {
		st.Exploration = &StatsExploration{Runs: runs, Executions: a.executions.Load(),
			Replays: a.replays.Load(), StatesVisited: a.visited.Load(), StatesPruned: a.pruned.Load()}
	}
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.snapshot())
}
