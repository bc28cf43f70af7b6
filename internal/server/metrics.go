package server

import (
	"fmt"
	"net/http"
	"sort"
	"strings"

	"repro/internal/hist"
)

// handleTrace serves one request's recorded span from this process's
// journal: GET /trace/{id} → the trace.Trace wire form, 404 when the
// journal no longer (or never) held the ID. The journal is a bounded
// ring, so a 404 on a once-valid ID means the trace aged out — the
// client-facing contract is "recent requests", not "all requests".
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr, ok := s.journal.Get(id)
	if !ok {
		http.Error(w, fmt.Sprintf("no trace for request %q (it may have aged out of the journal)", id),
			http.StatusNotFound)
		return
	}
	writeJSON(w, tr)
}

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format (version 0.0.4). It renders the one snapshot /stats encodes
// and reads no counter of its own, so every numeric /stats field is a
// series here and the other way round; only the derived hit_rate,
// max_ms and quantiles stay on /stats alone. Histograms map exactly:
// each non-empty hist bucket becomes a cumulative
// `_bucket{le="<seconds>"}` line, `+Inf` is the total count, and
// `_sum`/`_count` come from the same snapshot, which is what lets a
// Prometheus quantile over these series agree with /stats' own
// quantiles to within hist.Growth.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.snapshot()
	var b strings.Builder

	writeMetric(&b, "repro_registry_info", "gauge",
		"Always 1; the registry_version label names the experiment generation served.",
		sample{labels: fmt.Sprintf("registry_version=%q", st.RegistryVersion), value: 1})
	writeCounters(&b, counter{"requests", "Whole, parameter-point and slice requests accepted since startup.", st.Requests})
	writeMetric(&b, "repro_in_flight", "gauge",
		"Requests currently between arrival and response.", sample{value: float64(st.InFlight)})

	if names := sortedKeys(st.Endpoints); len(names) > 0 {
		writeMetric(&b, "repro_request_duration_seconds", "histogram",
			"Request latency by endpoint (experiment = whole fetch, param = parameter point, slice = prefix slice).")
		for _, name := range names {
			writeHistogram(&b, "repro_request_duration_seconds", fmt.Sprintf("endpoint=%q", name), st.Endpoints[name])
		}
	}

	if ids := sortedKeys(st.Experiments); len(ids) > 0 {
		reqs := make([]sample, len(ids))
		errs := make([]sample, len(ids))
		for i, id := range ids {
			label := fmt.Sprintf("id=%q", id)
			reqs[i] = sample{labels: label, value: float64(st.Experiments[id].Count)}
			errs[i] = sample{labels: label, value: float64(st.Experiments[id].Errors)}
		}
		writeMetric(&b, "repro_experiment_requests_total", "counter", "Requests served per experiment.", reqs...)
		writeMetric(&b, "repro_experiment_errors_total", "counter", "Failed requests per experiment.", errs...)
		writeMetric(&b, "repro_experiment_duration_seconds", "histogram", "Request latency per experiment.")
		for i, id := range ids {
			writeHistogram(&b, "repro_experiment_duration_seconds", reqs[i].labels, *st.Experiments[id].Histogram)
		}
	}

	if c := st.Cache; c != nil {
		writeCounters(&b,
			counter{"cache_hits", "Whole-result cache hits.", c.Hits},
			counter{"cache_misses", "Whole-result cache misses.", c.Misses},
			counter{"cache_slice_hits", "Prefix-slice cache hits.", c.SliceHits},
			counter{"cache_slice_misses", "Prefix-slice cache misses.", c.SliceMisses},
			counter{"cache_slice_stores", "Prefix-slice envelopes stored.", c.SliceStores},
			counter{"cache_corrupt", "Cache entries rejected as corrupt.", c.Corrupt},
			counter{"cache_evicted", "Cache entries evicted.", c.Evicted})
	}
	if e := st.Exploration; e != nil {
		writeCounters(&b,
			counter{"exploration_runs", "Whole or parameter-point runs that explored through the memo.", e.Runs},
			counter{"exploration_executions", "Executions those runs accounted.", e.Executions},
			counter{"exploration_replays", "Replays those runs performed.", e.Replays},
			counter{"exploration_states_visited", "Canonical states those runs visited.", e.StatesVisited},
			counter{"exploration_states_pruned", "Subtrees those runs reused from the memo.", e.StatesPruned})
	}

	writeMetric(&b, "repro_trace_requests", "gauge",
		"Request traces currently retained in the journal.", sample{value: float64(st.Trace.Requests)})
	writeCounters(&b, counter{"trace_evicted", "Request traces evicted at the journal's ring cap.", st.Trace.Evicted})

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, b.String())
}

// sortedKeys returns m's keys in order, for deterministic label order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// sample is one exposition line's labels and value. labels is the
// pre-rendered `name="value"` list without braces (empty for an
// unlabeled series); values render via %g, which matches the format's
// required float form.
type sample struct {
	labels string
	value  float64
}

// counter is one unlabeled counter family, repro_<name>_total.
type counter struct {
	name, help string
	value      int64
}

// writeCounters emits each counter as its own family.
func writeCounters(b *strings.Builder, cs ...counter) {
	for _, c := range cs {
		writeMetric(b, "repro_"+c.name+"_total", "counter", c.help, sample{value: float64(c.value)})
	}
}

// writeMetric emits one metric family: its # HELP / # TYPE preamble,
// once per name, then every sample. A histogram family passes none
// and writes each series with writeHistogram after it.
func writeMetric(b *strings.Builder, name, typ, help string, samples ...sample) {
	fmt.Fprintf(b, "# HELP %s %s\n", name, help)
	fmt.Fprintf(b, "# TYPE %s %s\n", name, typ)
	for _, s := range samples {
		if s.labels == "" {
			fmt.Fprintf(b, "%s %g\n", name, s.value)
		} else {
			fmt.Fprintf(b, "%s{%s} %g\n", name, s.labels, s.value)
		}
	}
}

// writeHistogram maps one hist.Snapshot to the Prometheus histogram
// convention: cumulative `_bucket` lines at each non-empty bucket's
// upper bound in seconds, the mandatory `+Inf` bucket carrying the
// total count, and `_sum`/`_count`. hist buckets are disjoint counts
// in ascending bound order, so a running sum is exactly the
// cumulative form Prometheus requires; seconds = UpperMillis / 1000.
func writeHistogram(b *strings.Builder, name, labels string, snap hist.Snapshot) {
	var cum int64
	for _, bucket := range snap.Buckets {
		cum += bucket.Count
		fmt.Fprintf(b, "%s_bucket{%s,le=\"%g\"} %d\n", name, labels, bucket.UpperMillis/1000, cum)
	}
	fmt.Fprintf(b, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, labels, snap.Count)
	fmt.Fprintf(b, "%s_sum{%s} %g\n", name, labels, snap.SumMillis/1000)
	fmt.Fprintf(b, "%s_count{%s} %d\n", name, labels, snap.Count)
}
