package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"

	"repro/internal/cache"
	"repro/internal/experiments"
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
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(tr)
}

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format (version 0.0.4). Every series is a re-rendering of counters
// the process already keeps — the /stats accumulators, the hist
// log-buckets, the cache store's counters, the journal's gauges — so
// scraping adds no new counting to any hot path. Histograms map
// exactly: each non-empty hist bucket becomes a cumulative
// `_bucket{le="<seconds>"}` line, `+Inf` is the total count, and
// `_sum`/`_count` come from the same snapshot, which is what lets a
// Prometheus quantile over these series agree with /stats' own
// quantiles to within hist.Growth.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder

	writeMetric(&b, "repro_registry_info", "gauge",
		"Always 1; the registry_version label names the experiment generation served.",
		sample{labels: fmt.Sprintf("registry_version=%q", experiments.RegistryVersion), value: 1})
	writeMetric(&b, "repro_requests_total", "counter",
		"Experiment and slice requests accepted since startup.",
		sample{value: float64(s.requests.Load())})
	writeMetric(&b, "repro_in_flight", "gauge",
		"Requests currently between arrival and response.",
		sample{value: float64(s.inFlight.Load())})

	s.writeEndpointHistograms(&b)
	s.writeExperimentMetrics(&b)

	if cs, ok := s.cache.(interface{ Stats() cache.Stats }); ok {
		st := cs.Stats()
		writeMetric(&b, "repro_cache_hits_total", "counter",
			"Whole-result cache hits.", sample{value: float64(st.Hits)})
		writeMetric(&b, "repro_cache_misses_total", "counter",
			"Whole-result cache misses.", sample{value: float64(st.Misses)})
		writeMetric(&b, "repro_cache_slice_hits_total", "counter",
			"Prefix-slice cache hits.", sample{value: float64(st.SliceHits)})
		writeMetric(&b, "repro_cache_slice_misses_total", "counter",
			"Prefix-slice cache misses.", sample{value: float64(st.SliceMisses)})
		writeMetric(&b, "repro_cache_slice_stores_total", "counter",
			"Prefix-slice envelopes stored.", sample{value: float64(st.SliceStores)})
		writeMetric(&b, "repro_cache_corrupt_total", "counter",
			"Cache entries rejected as corrupt.", sample{value: float64(st.Corrupt)})
		writeMetric(&b, "repro_cache_evicted_total", "counter",
			"Cache entries evicted.", sample{value: float64(st.Evicted)})
	}

	writeMetric(&b, "repro_trace_requests", "gauge",
		"Request traces currently retained in the journal.",
		sample{value: float64(s.journal.Len())})
	writeMetric(&b, "repro_trace_evicted_total", "counter",
		"Request traces evicted at the journal's ring cap.",
		sample{value: float64(s.journal.Evicted())})

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, b.String())
}

// writeEndpointHistograms renders the per-endpoint latency histograms
// as one Prometheus histogram family labeled by endpoint.
func (s *Server) writeEndpointHistograms(b *strings.Builder) {
	endpoints := make([]string, 0, len(s.endpointLat))
	for name, h := range s.endpointLat {
		if h.Count() != 0 {
			endpoints = append(endpoints, name)
		}
	}
	if len(endpoints) == 0 {
		return
	}
	sort.Strings(endpoints)
	writeHeader(b, "repro_request_duration_seconds", "histogram",
		"Request latency by endpoint (experiment = whole fetch, param = parameter point, slice = prefix slice).")
	for _, name := range endpoints {
		writeHistogram(b, "repro_request_duration_seconds",
			fmt.Sprintf("endpoint=%q", name), s.endpointLat[name].Snapshot())
	}
}

// writeExperimentMetrics renders the per-experiment accumulators:
// request/error counters and the full latency histogram, labeled by
// experiment id.
func (s *Server) writeExperimentMetrics(b *strings.Builder) {
	stats := s.experimentStats()
	if len(stats) == 0 {
		return
	}
	ids := make([]string, 0, len(stats))
	for id := range stats {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	reqs := make([]sample, 0, len(ids))
	errs := make([]sample, 0, len(ids))
	for _, id := range ids {
		st := stats[id]
		label := fmt.Sprintf("id=%q", id)
		reqs = append(reqs, sample{labels: label, value: float64(st.Count)})
		errs = append(errs, sample{labels: label, value: float64(st.Errors)})
	}
	writeMetric(b, "repro_experiment_requests_total", "counter",
		"Requests served per experiment.", reqs...)
	writeMetric(b, "repro_experiment_errors_total", "counter",
		"Failed requests per experiment.", errs...)

	writeHeader(b, "repro_experiment_duration_seconds", "histogram",
		"Request latency per experiment.")
	for _, id := range ids {
		if h := stats[id].Histogram; h != nil {
			writeHistogram(b, "repro_experiment_duration_seconds",
				fmt.Sprintf("id=%q", id), *h)
		}
	}
}

// sample is one exposition line's labels and value. labels is the
// pre-rendered `name="value"` list without braces (empty for an
// unlabeled series); values render via %g, which matches the format's
// required float form.
type sample struct {
	labels string
	value  float64
}

// writeHeader emits one metric family's # HELP / # TYPE preamble —
// once per name, which is why callers with multiple label sets emit
// the header themselves and then the samples.
func writeHeader(b *strings.Builder, name, typ, help string) {
	fmt.Fprintf(b, "# HELP %s %s\n", name, help)
	fmt.Fprintf(b, "# TYPE %s %s\n", name, typ)
}

// writeMetric emits a full single-family metric: header plus every
// sample.
func writeMetric(b *strings.Builder, name, typ, help string, samples ...sample) {
	writeHeader(b, name, typ, help)
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
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum int64
	for _, bucket := range snap.Buckets {
		cum += bucket.Count
		fmt.Fprintf(b, "%s_bucket{%s%sle=\"%g\"} %d\n",
			name, labels, sep, bucket.UpperMillis/1000, cum)
	}
	fmt.Fprintf(b, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, snap.Count)
	if labels == "" {
		fmt.Fprintf(b, "%s_sum %g\n", name, snap.SumMillis/1000)
		fmt.Fprintf(b, "%s_count %d\n", name, snap.Count)
	} else {
		fmt.Fprintf(b, "%s_sum{%s} %g\n", name, labels, snap.SumMillis/1000)
		fmt.Fprintf(b, "%s_count{%s} %d\n", name, labels, snap.Count)
	}
}
