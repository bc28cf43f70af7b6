package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// op is one request a workload sends: the path and query exactly as
// the wire spells it, the bytes a correct answer carries, and — for
// the fleet — how many worker fetches the coordinator makes for it.
type op struct {
	name    string
	path    string
	want    []byte
	fetches int
}

// sample is one completed request. id is the Repro-Request-ID the
// client sent (traced runs only).
type sample struct {
	op         int
	id         string
	start, end time.Time
}

func (s sample) dur() time.Duration { return s.end.Sub(s.start) }

// failures collects the first few failure descriptions and counts all.
type failures struct {
	mu     sync.Mutex
	n      int64
	errors []string
}

func (f *failures) add(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if len(f.errors) < 8 {
		f.errors = append(f.errors, fmt.Sprintf(format, args...))
	}
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 3 * time.Minute,
		Transport: &http.Transport{
			Proxy:               nil,
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// get fetches base+path and returns the body, failing on any status
// but 200.
func get(ctx context.Context, client *http.Client, base, path, reqID string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
	if err != nil {
		return nil, err
	}
	if reqID != "" {
		req.Header.Set("Repro-Request-ID", reqID)
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", resp.StatusCode, body)
	}
	return body, nil
}

// check fetches one op and compares its bytes with the reference.
func check(ctx context.Context, client *http.Client, base string, o op, reqID string) error {
	body, err := get(ctx, client, base, o.path, reqID)
	if err != nil {
		return fmt.Errorf("%s: %w", o.name, err)
	}
	if !bytes.Equal(body, o.want) {
		return fmt.Errorf("%s: %d bytes differ from the %d reference bytes", o.name, len(body), len(o.want))
	}
	return nil
}

// serveOnce sends every op once, in order, checking each answer.
func serveOnce(ctx context.Context, client *http.Client, base string, ops []op) error {
	for _, o := range ops {
		if err := check(ctx, client, base, o, ""); err != nil {
			return err
		}
	}
	return nil
}

// loop is a workload's closed-loop clients. Each client walks its own
// seeded rotations of the ops, sending its next request only once the
// previous answer has been read and checked, and keeps its place from
// one cycle to the next. Traced runs tag every request with a
// Repro-Request-ID.
type loop struct {
	base   string
	ops    []op
	rots   []*rotation
	sent   []int // requests each client has sent so far
	client *http.Client
	trace  bool
	fails  *failures
}

func (e *env) newLoop(base string, ops []op, clients int, fails *failures) *loop {
	return &loop{
		base:   base,
		ops:    ops,
		rots:   rotations(e.seed, clients, len(ops)),
		sent:   make([]int, clients),
		client: newHTTPClient(clients),
		trace:  e.trace,
		fails:  fails,
	}
}

// cycle runs every client until the deadline passes or, for a zero
// deadline, through exactly one rotation, and returns the requests
// they completed.
func (l *loop) cycle(ctx context.Context, until time.Time) []sample {
	perClient := make([][]sample, len(l.rots))
	var wg sync.WaitGroup
	for c := range l.rots {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; ctx.Err() == nil; k++ {
				done := k == len(l.ops)
				if !until.IsZero() {
					done = !time.Now().Before(until)
				}
				if done {
					return
				}
				n := l.sent[c]
				l.sent[c]++
				i := l.rots[c].next()
				var id string
				if l.trace {
					id = fmt.Sprintf("bench-%d-%d", c, n)
				}
				s := sample{op: i, id: id, start: time.Now()}
				err := check(ctx, l.client, l.base, l.ops[i], id)
				s.end = time.Now()
				if err != nil {
					if ctx.Err() != nil {
						return
					}
					l.fails.add("%v", err)
				}
				perClient[c] = append(perClient[c], s)
			}
		}(c)
	}
	wg.Wait()
	var out []sample
	for _, ss := range perClient {
		out = append(out, ss...)
	}
	return out
}

// cycleTime is how long a warm or fleet cycle sends requests between
// two probe slices. A cold cycle is one rotation of its eleven requests
// and a sweep cycle one figures run, both a few seconds.
const cycleTime = time.Second

// step runs one cycle of a workload and returns the requests it
// completed.
type step func(ctx context.Context) ([]sample, error)

// cpuReader returns the cumulative user+system CPU time of the
// system's processes.
type cpuReader func() (time.Duration, error)

// cycle is one stretch of a window between two probe slices.
type cycle struct {
	samples []sample
	dur     time.Duration // the cycle's wall time
	// cpu is the system's CPU time from the cycle's start to the end of
	// the probe slice after it.
	cpu time.Duration
	// speed is the host speed index around the cycle, from the mean rate
	// of the probe slices before and after it.
	speed float64
}

// window is one workload's measurement: a probe slice, then cycles of
// the workload each followed by a probe slice, until the run's seconds
// are spent.
type window struct {
	cycles    []cycle
	probes    []float64     // every probe slice's rate, in order
	driverCPU time.Duration // the driver's own CPU time in the cycles
}

// measure runs a window. The system's CPU time is read at the start of
// each cycle and again after the probe slice that follows it, and the
// difference is charged to the cycle. Work the system defers past a
// cycle's last answer, such as a garbage collection or an asynchronous
// write, thus counts against the cycle that caused it even when it runs
// during the probe.
func (e *env) measure(ctx context.Context, run step, sysCPU cpuReader) (*window, error) {
	p, err := e.probe(ctx)
	if err != nil {
		return nil, err
	}
	w := &window{probes: []float64{p}}
	cpu0, err := sysCPU()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for time.Since(start) < e.window {
		drv, t0 := selfCPU(), time.Now()
		samples, err := run(ctx)
		c := cycle{samples: samples, dur: time.Since(t0)}
		w.driverCPU += selfCPU() - drv
		if err != nil {
			return nil, err
		}
		if p, err = e.probe(ctx); err != nil {
			return nil, err
		}
		cpu1, err := sysCPU()
		if err != nil {
			return nil, err
		}
		c.cpu, cpu0 = cpu1-cpu0, cpu1
		c.speed = speedIndex((w.probes[len(w.probes)-1] + p) / 2)
		w.probes = append(w.probes, p)
		w.cycles = append(w.cycles, c)
	}
	return w, nil
}

// samples returns every request of the window, in cycle order.
func (w *window) samples() []sample {
	var out []sample
	for _, c := range w.cycles {
		out = append(out, c.samples...)
	}
	return out
}

// speed is the median host speed index over the window's cycles.
func (w *window) speed() float64 {
	s := make([]float64, len(w.cycles))
	for i, c := range w.cycles {
		s[i] = c.speed
	}
	return median(s)
}

// windowStats are the timing metrics of one window.
type windowStats struct {
	throughput, p50, tail, cpuPerOp float64
}

// stats computes them, host-normalised when norm is set: each cycle's
// times are multiplied by its speed index. Throughput is every request
// of the window over the cycles' summed time and CPU per op the
// cycles' summed CPU time over every request, so each cycle counts by
// its size; the latencies are percentiles over every request.
func (w *window) stats(tail float64, norm bool) windowStats {
	var lat []float64
	var secs, cpuMs float64
	for _, c := range w.cycles {
		s := 1.0
		if norm {
			s = c.speed
		}
		for _, smp := range c.samples {
			lat = append(lat, millis(smp.dur())*s)
		}
		secs += c.dur.Seconds() * s
		cpuMs += millis(c.cpu) * s
	}
	n := float64(max(len(lat), 1))
	return windowStats{
		throughput: float64(len(lat)) / secs,
		p50:        percentile(lat, 0.50),
		tail:       percentile(lat, tail),
		cpuPerOp:   cpuMs / n,
	}
}

// latencies returns the samples' durations in milliseconds.
func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = millis(s.dur())
	}
	return out
}
