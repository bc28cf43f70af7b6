// Package hist is a fixed log-bucket latency histogram: the
// observability primitive behind the /stats latency distributions
// (internal/server) and the shard coordinator's per-worker fetch
// timings (internal/shard). One scheme everywhere means worker-side and
// coordinator-side distributions are directly comparable and mergeable.
//
// The bucket layout is geometric: bucket i covers durations in
// (1µs·2^((i-1)/4), 1µs·2^(i/4)] — four buckets per octave, growth
// factor 2^(1/4) ≈ 1.189 — with bucket 0 absorbing everything at or
// under 1µs and the last bucket absorbing everything past ~18 minutes.
// A reported quantile is the upper bound of the bucket holding that
// rank (capped at the observed maximum), so for any value inside the
// geometric range the estimate overshoots the true quantile by at
// most the growth factor: relative error ≤ 2^(1/4) − 1 ≈ 18.9%,
// independent of the distribution's shape.
//
// Recording is lock-free — one atomic add into the bucket array plus
// count/sum/max maintenance — so it sits on request hot paths without
// serializing them. Histograms merge by bucketwise addition, which is
// exact (no resampling error): a fleet-wide distribution is the merge
// of the per-worker ones.
package hist

import (
	"math"
	"sync/atomic"
	"time"
)

const (
	// NumBuckets is the fixed bucket count; the scheme covers 1µs to
	// 1µs·2^(NumBuckets/4) ≈ 18 minutes before overflowing into the
	// last bucket — far past any per-request latency this repo serves.
	NumBuckets = 120
	// bucketsPerOctave sets the resolution: 4 buckets per doubling,
	// i.e. a growth factor of 2^(1/4) per bucket.
	bucketsPerOctave = 4
	// minUpperNanos is bucket 0's upper bound: 1µs. Anything faster is
	// noise at HTTP-request granularity.
	minUpperNanos = 1e3
)

// Growth is the per-bucket growth factor, 2^(1/4): the worst-case
// multiplicative overshoot of a reported quantile.
var Growth = math.Pow(2, 1.0/bucketsPerOctave)

// uppers[i] is bucket i's inclusive upper bound in nanoseconds.
var uppers [NumBuckets]float64

func init() {
	for i := range uppers {
		uppers[i] = minUpperNanos * math.Pow(2, float64(i)/bucketsPerOctave)
	}
}

// Histogram accumulates a latency distribution. The zero value is
// ready to use; all methods are safe for concurrent use. Reads taken
// while writers are active are snapshots in the loose sense — counts
// across fields may be skewed by in-flight records — which is the
// usual contract for operational counters.
type Histogram struct {
	counts [NumBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64 // nanoseconds
	max    atomic.Int64 // nanoseconds
}

// New returns an empty histogram.
func New() *Histogram { return &Histogram{} }

// bucketOf maps a duration to its bucket index.
func bucketOf(d time.Duration) int {
	ns := float64(d.Nanoseconds())
	if ns <= minUpperNanos {
		return 0
	}
	i := int(math.Ceil(bucketsPerOctave * math.Log2(ns/minUpperNanos)))
	if i >= NumBuckets {
		return NumBuckets - 1
	}
	return i
}

// Record folds one observation in. Negative durations (clock
// weirdness) clamp to zero rather than corrupting a bucket index.
func (h *Histogram) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	ns := d.Nanoseconds()
	h.counts[bucketOf(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		m := h.max.Load()
		if ns <= m || h.max.CompareAndSwap(m, ns) {
			return
		}
	}
}

// Count reports the number of recorded observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Max reports the largest recorded observation.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Merge folds other's observations into h, bucketwise — exact, no
// resampling. other may be recorded into concurrently; the merge then
// reflects some valid interleaving of its records.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	for i := range other.counts {
		if n := other.counts[i].Load(); n != 0 {
			h.counts[i].Add(n)
		}
	}
	h.count.Add(other.count.Load())
	h.sum.Add(other.sum.Load())
	for {
		m, om := h.max.Load(), other.max.Load()
		if om <= m || h.max.CompareAndSwap(m, om) {
			return
		}
	}
}

// Quantile reports the q-quantile as the upper bound of the bucket
// holding that rank, capped at the observed maximum — so the estimate
// never undershoots the true value and overshoots it by at most
// Growth. It is the arbitrary-q primitive behind every hard-coded
// percentile in a Snapshot, the /metrics bucket export, and the trace
// timeline renderer. q is validated to [0,1]: out-of-range values
// clamp, and NaN (which no comparison can place) reports zero rather
// than a bucket chosen by float accident. Zero observations report
// zero.
func (h *Histogram) Quantile(q float64) time.Duration {
	if math.IsNaN(q) {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	max := time.Duration(h.max.Load())
	var seen int64
	for i := 0; i < NumBuckets; i++ {
		seen += h.counts[i].Load()
		if seen >= rank {
			ub := time.Duration(uppers[i])
			if max < ub {
				return max
			}
			return ub
		}
	}
	// Concurrent records can leave count ahead of the bucket array for
	// an instant; the maximum is the honest answer for the tail.
	return max
}

// Bucket is one non-empty bucket of a Snapshot's wire form.
type Bucket struct {
	// UpperMillis is the bucket's inclusive upper bound in
	// milliseconds; the lower bound is the previous bucket's upper
	// bound (UpperMillis / Growth for interior buckets, 0 for the
	// first).
	UpperMillis float64 `json:"le_ms"`
	Count       int64   `json:"count"`
}

// Snapshot is a histogram's wire form: summary statistics, the
// standard quantiles, and the non-empty buckets (so two snapshots can
// be diffed or re-merged offline without shipping 120 mostly-zero
// counters). All times are milliseconds, matching the /stats schema.
type Snapshot struct {
	Count     int64   `json:"count"`
	SumMillis float64 `json:"sum_ms"`
	MaxMillis float64 `json:"max_ms"`
	P50Millis float64 `json:"p50_ms"`
	P95Millis float64 `json:"p95_ms"`
	P99Millis float64 `json:"p99_ms"`
	// P999Millis is the p99.9 — the deep tail a production fleet is
	// judged by; under a thousand samples its rank is the last one, so
	// it reads as the maximum, and it diverges exactly when there is
	// enough traffic for it to mean something.
	P999Millis float64  `json:"p999_ms"`
	Buckets    []Bucket `json:"buckets,omitempty"`
}

// millis converts nanoseconds to float milliseconds.
func millis(ns float64) float64 { return ns / 1e6 }

// Snapshot renders the histogram's current state.
func (h *Histogram) Snapshot() Snapshot {
	s := Snapshot{
		Count:      h.count.Load(),
		SumMillis:  millis(float64(h.sum.Load())),
		MaxMillis:  millis(float64(h.max.Load())),
		P50Millis:  millis(float64(h.Quantile(0.50).Nanoseconds())),
		P95Millis:  millis(float64(h.Quantile(0.95).Nanoseconds())),
		P99Millis:  millis(float64(h.Quantile(0.99).Nanoseconds())),
		P999Millis: millis(float64(h.Quantile(0.999).Nanoseconds())),
	}
	for i := range h.counts {
		if n := h.counts[i].Load(); n != 0 {
			s.Buckets = append(s.Buckets, Bucket{UpperMillis: millis(uppers[i]), Count: n})
		}
	}
	return s
}
