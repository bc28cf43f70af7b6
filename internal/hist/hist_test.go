package hist

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestBucketEdges: the degenerate inputs land where the scheme says
// they land — zero and negative in bucket 0, values past the
// geometric range in the last bucket, and exact bucket bounds in
// their own bucket (the bounds are inclusive).
func TestBucketEdges(t *testing.T) {
	if got := bucketOf(0); got != 0 {
		t.Errorf("bucketOf(0) = %d", got)
	}
	if got := bucketOf(time.Microsecond); got != 0 {
		t.Errorf("bucketOf(1µs) = %d, want 0", got)
	}
	if got := bucketOf(100 * time.Hour); got != NumBuckets-1 {
		t.Errorf("bucketOf(100h) = %d, want %d", got, NumBuckets-1)
	}
	// 2µs is exactly bucket bucketsPerOctave's upper bound (one
	// octave above 1µs).
	if got := bucketOf(2 * time.Microsecond); got != bucketsPerOctave {
		t.Errorf("bucketOf(2µs) = %d, want %d", got, bucketsPerOctave)
	}
	var h Histogram
	h.Record(-time.Second) // clamps, must not panic or skew max
	if h.Count() != 1 || h.Max() != 0 {
		t.Errorf("after negative record: count=%d max=%v", h.Count(), h.Max())
	}
}

// TestQuantileErrorBounds: for random inputs spanning five orders of
// magnitude, every reported quantile is ≥ the true order statistic
// and within the documented Growth factor of it — the scheme's error
// bound, checked empirically rather than trusted.
func TestQuantileErrorBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h Histogram
	values := make([]time.Duration, 5000)
	for i := range values {
		// log-uniform over [10µs, 1s): exercises ~17 octaves
		exp := 4 + 5*rng.Float64()
		values[i] = time.Duration(math.Pow(10, exp)) * time.Microsecond / 10
	}
	for _, v := range values {
		h.Record(v)
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
		rank := int(math.Ceil(q * float64(len(values))))
		if rank < 1 {
			rank = 1
		}
		truth := values[rank-1]
		got := h.Quantile(q)
		if got < truth {
			t.Errorf("q=%v: estimate %v undershoots true %v", q, got, truth)
		}
		if limit := time.Duration(float64(truth) * Growth * 1.0001); got > limit {
			t.Errorf("q=%v: estimate %v exceeds %v (true %v × growth)", q, got, limit, truth)
		}
	}
	if got, want := h.Quantile(1), values[len(values)-1]; got != want {
		t.Errorf("p100 = %v, want exact max %v", got, want)
	}
}

// TestQuantileEmpty: an empty histogram reports zero everywhere
// instead of inventing a latency.
func TestQuantileEmpty(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty p50 = %v", got)
	}
	s := h.Snapshot()
	if s.Count != 0 || s.P99Millis != 0 || len(s.Buckets) != 0 {
		t.Errorf("empty snapshot = %+v", s)
	}
}

// TestMerge: merging two histograms is exact — bucketwise equal to
// recording every value into one histogram, with count/sum/max and
// every quantile agreeing.
func TestMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var a, b, whole Histogram
	for i := 0; i < 2000; i++ {
		v := time.Duration(rng.Intn(50_000_000)) // up to 50ms
		whole.Record(v)
		if i%3 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
	}
	a.Merge(&b)
	if a.Count() != whole.Count() || a.sum.Load() != whole.sum.Load() || a.Max() != whole.Max() {
		t.Fatalf("merged count/sum/max = %d/%d/%v, want %d/%d/%v",
			a.Count(), a.sum.Load(), a.Max(), whole.Count(), whole.sum.Load(), whole.Max())
	}
	for i := range whole.counts {
		if got, want := a.counts[i].Load(), whole.counts[i].Load(); got != want {
			t.Fatalf("bucket %d: merged %d, want %d", i, got, want)
		}
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if got, want := a.Quantile(q), whole.Quantile(q); got != want {
			t.Errorf("q=%v: merged %v, want %v", q, got, want)
		}
	}
	a.Merge(nil) // must be a no-op, not a panic
	if a.Count() != whole.Count() {
		t.Errorf("Merge(nil) changed count")
	}
}

// TestConcurrentRecord: hammering one histogram from many goroutines
// (the /stats hot path under load) loses no observations; run under
// -race this also proves the recording path is data-race free.
func TestConcurrentRecord(t *testing.T) {
	const goroutines, per = 8, 2000
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(time.Duration(g*per+i) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	if got, want := h.Count(), int64(goroutines*per); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	var inBuckets int64
	for i := range h.counts {
		inBuckets += h.counts[i].Load()
	}
	if inBuckets != int64(goroutines*per) {
		t.Fatalf("bucket total = %d, want %d", inBuckets, goroutines*per)
	}
	if want := time.Duration(goroutines*per-1) * time.Microsecond; h.Max() != want {
		t.Errorf("max = %v, want %v", h.Max(), want)
	}
}

// TestSnapshotWireForm: the JSON form carries the documented keys —
// the schema /stats consumers rely on — and only non-empty buckets.
func TestSnapshotWireForm(t *testing.T) {
	var h Histogram
	h.Record(2 * time.Millisecond)
	h.Record(3 * time.Millisecond)
	data, err := json.Marshal(h.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"count", "sum_ms", "max_ms", "p50_ms", "p95_ms", "p99_ms", "buckets"} {
		if _, ok := m[key]; !ok {
			t.Errorf("snapshot JSON missing %q: %s", key, data)
		}
	}
	s := h.Snapshot()
	if len(s.Buckets) == 0 || len(s.Buckets) > 2 {
		t.Errorf("buckets = %+v, want 1–2 non-empty", s.Buckets)
	}
	var n int64
	for _, b := range s.Buckets {
		if b.Count == 0 {
			t.Errorf("empty bucket emitted: %+v", b)
		}
		n += b.Count
	}
	if n != 2 {
		t.Errorf("bucket counts sum to %d, want 2", n)
	}
	if s.MaxMillis != 3 || s.SumMillis != 5 {
		t.Errorf("max/sum = %v/%v, want 3/5", s.MaxMillis, s.SumMillis)
	}
}

// TestQuantileValidation: out-of-range q clamps to the endpoints and
// NaN — which no comparison can place — reports zero instead of a
// bucket chosen by float accident.
func TestQuantileValidation(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{time.Millisecond, 2 * time.Millisecond, time.Second} {
		h.Record(d)
	}
	if got, want := h.Quantile(-0.5), h.Quantile(0); got != want {
		t.Errorf("q=-0.5 = %v, want clamp to q=0 (%v)", got, want)
	}
	if got, want := h.Quantile(7), h.Quantile(1); got != want {
		t.Errorf("q=7 = %v, want clamp to q=1 (%v)", got, want)
	}
	if got := h.Quantile(math.NaN()); got != 0 {
		t.Errorf("q=NaN = %v, want 0", got)
	}
}

// TestSnapshotP999: the snapshot carries a p99.9 that obeys the same
// never-undershoot contract as the other quantiles and orders after
// p99; with one dominant tail value it reports exactly that maximum.
func TestSnapshotP999(t *testing.T) {
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Record(time.Millisecond)
	}
	// Five 1s observations out of 1005: a ~0.5% tail, deep enough
	// that the p99.9 rank lands inside it (and is capped at the max).
	for i := 0; i < 5; i++ {
		h.Record(time.Second)
	}
	s := h.Snapshot()
	if s.P999Millis < s.P99Millis {
		t.Errorf("p999 %v < p99 %v", s.P999Millis, s.P99Millis)
	}
	if s.P999Millis != s.MaxMillis {
		t.Errorf("p999 = %vms, want the tail max %vms", s.P999Millis, s.MaxMillis)
	}
	if got := millisToDuration(s.P999Millis); got != h.Quantile(0.999) {
		t.Errorf("snapshot p999 %v != Quantile(0.999) %v", got, h.Quantile(0.999))
	}
}

// millisToDuration converts the snapshot's float milliseconds back to
// a duration for comparison against Quantile.
func millisToDuration(ms float64) time.Duration {
	return time.Duration(ms * float64(time.Millisecond))
}
