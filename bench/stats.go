package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// percentile returns the exact q-quantile of xs by the nearest-rank
// rule: the smallest sample with at least q·n samples at or below it.
// It is always one of the samples, never an interpolation, so a
// latency percentile names a request that really took that long. xs
// need not be sorted; it is not modified. An empty xs gives 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median returns the middle of xs, averaging the two middle samples of
// an even count. An empty xs gives 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs the way
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method, which extrapolates beyond the samples when there
// are few), so a spread computed here matches the one an outside
// reader computes from the same run files. Fewer than two samples
// give the single sample (or 0) for both.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	ld := len(s)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// relSpread is the interquartile distance of xs as a share of its
// median: the run-to-run noise a bound has to clear.
func relSpread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// mean returns the average of xs, 0 for none.
func mean(xs []float64) float64 { return sum(xs) / float64(max(len(xs), 1)) }

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// interval is one closed time span, [start, end].
type interval struct{ start, end time.Time }

// unionLength returns the total time covered by at least one of the
// intervals — overlapping fetches of one request count once.
func unionLength(ivs []interval) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(a, b int) bool { return s[a].start.Before(s[b].start) })
	var total time.Duration
	cur := s[0]
	for _, iv := range s[1:] {
		if iv.start.After(cur.end) {
			total += cur.end.Sub(cur.start)
			cur = iv
			continue
		}
		if iv.end.After(cur.end) {
			cur.end = iv.end
		}
	}
	return total + cur.end.Sub(cur.start)
}

// selfTime is a request's own time: its duration minus the part of
// its interval that its child spans (the fetches it waited on) cover.
func selfTime(req interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start.Before(req.start) {
			c.start = req.start
		}
		if c.end.After(req.end) {
			c.end = req.end
		}
		if c.end.After(c.start) {
			clipped = append(clipped, c)
		}
	}
	return req.end.Sub(req.start) - unionLength(clipped)
}

// rotation is the order one client walks a workload's operations in:
// rotation after rotation, each a fresh seeded permutation of 0..n-1,
// so every operation is sent equally often. Clients draw different
// permutations because two clients walking the same order lock into
// step: once they ask for the same operation together, the server's
// singleflight answers both at once and they ask for the next one
// together again, for the rest of the run. A fresh permutation per
// rotation, not one kept for the whole run, keeps the seed from
// choosing how often the clients' requests meet: with one fixed pair of
// permutations per run, one seed read the fleet's highest throughput,
// 15 to 20% above the median, in each of three passes of ten seeds.
type rotation struct {
	rng   *rand.Rand
	order []int
	pos   int
}

// rotations returns each client's rotation. The seed changes only the
// orders.
func rotations(seed int64, clients, n int) []*rotation {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*rotation, clients)
	for c := range out {
		r := rand.New(rand.NewSource(rng.Int63()))
		out[c] = &rotation{rng: r, order: r.Perm(n)}
	}
	return out
}

// next returns the client's next operation.
func (r *rotation) next() int {
	if r.pos == len(r.order) {
		r.order, r.pos = r.rng.Perm(len(r.order)), 0
	}
	r.pos++
	return r.order[r.pos-1]
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
