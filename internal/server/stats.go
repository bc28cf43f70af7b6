package server

import (
	"encoding/json"
	"net/http"
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

// StatsResponse is the GET /stats body: one process's operational
// counters since startup. It exists so operators can watch a figuresd
// instance and so a shard coordinator can rank workers — InFlight is
// the load signal least-loaded selection seeds from. Counters only
// ever grow (except InFlight, which tracks the instant); the response
// is a snapshot, not an atomic cut across fields.
type StatsResponse struct {
	// RegistryVersion identifies the experiment generation this
	// process serves (cache keys depend on it).
	RegistryVersion string `json:"registry_version"`
	// InFlight is the number of experiment requests currently between
	// arrival and response — including time spent waiting on another
	// request's singleflight execution.
	InFlight int64 `json:"in_flight"`
	// Requests counts experiment requests accepted (valid id and
	// format) since startup, whatever their outcome.
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

// expStat is the internal accumulator behind StatsExperiment.
type expStat struct {
	errors int64
	lat    hist.Histogram
}

// record folds one served experiment request into the counters: the
// per-experiment accumulator and the per-endpoint histogram.
func (s *Server) record(endpoint, id string, d time.Duration, failed bool) {
	if h := s.endpointLat[endpoint]; h != nil {
		h.Record(d)
	}
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	st := s.perExp[id]
	if st == nil {
		st = &expStat{}
		s.perExp[id] = st
	}
	if failed {
		st.errors++
	}
	st.lat.Record(d)
}

// recordExploration folds one run's explorer counters into the /stats
// exploration totals; a run that explored nothing (a cache hit, an
// experiment outside the memo) is not counted.
func (s *Server) recordExploration(m sched.MemoStats) {
	if m.Executions == 0 {
		return
	}
	s.memoMu.Lock()
	defer s.memoMu.Unlock()
	s.memoRuns++
	s.memoTotals.Executions += m.Executions
	s.memoTotals.Replays += m.Replays
	s.memoTotals.StatesVisited += m.StatesVisited
	s.memoTotals.StatesPruned += m.StatesPruned
}

// explorationStats snapshots the exploration totals, nil before the
// first exploring run so the section stays absent until then.
func (s *Server) explorationStats() *StatsExploration {
	s.memoMu.Lock()
	defer s.memoMu.Unlock()
	if s.memoRuns == 0 {
		return nil
	}
	return &StatsExploration{
		Runs:          s.memoRuns,
		Executions:    int64(s.memoTotals.Executions),
		Replays:       int64(s.memoTotals.Replays),
		StatesVisited: int64(s.memoTotals.StatesVisited),
		StatesPruned:  int64(s.memoTotals.StatesPruned),
	}
}

func (s *Server) experimentStats() map[string]StatsExperiment {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	out := make(map[string]StatsExperiment, len(s.perExp))
	for id, st := range s.perExp {
		snap := st.lat.Snapshot()
		out[id] = StatsExperiment{Count: snap.Count, Errors: st.errors, Histogram: &snap}
	}
	return out
}

// endpointStats snapshots the per-endpoint histograms, dropping
// endpoints that never saw a request.
func (s *Server) endpointStats() map[string]hist.Snapshot {
	out := make(map[string]hist.Snapshot, len(s.endpointLat))
	for name, h := range s.endpointLat {
		if h.Count() == 0 {
			continue
		}
		out[name] = h.Snapshot()
	}
	return out
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{
		RegistryVersion: experiments.RegistryVersion,
		InFlight:        s.inFlight.Load(),
		Requests:        s.requests.Load(),
		Experiments:     s.experimentStats(),
		Endpoints:       s.endpointStats(),
		Exploration:     s.explorationStats(),
	}
	// The engine-facing cache interface has no counters; only stores
	// that report them (internal/cache.Store) appear in the response.
	if cs, ok := s.cache.(interface{ Stats() cache.Stats }); ok {
		st := cs.Stats()
		resp.Cache = &StatsCache{
			Hits:        st.Hits,
			Misses:      st.Misses,
			SliceHits:   st.SliceHits,
			SliceMisses: st.SliceMisses,
			SliceStores: st.SliceStores,
			Corrupt:     st.Corrupt,
			Evicted:     st.Evicted,
			HitRate:     st.HitRate(),
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}
