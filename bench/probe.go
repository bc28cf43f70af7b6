package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"sync"
	"time"
)

// The host speed probe. This benchmark was sized on a shared virtual
// machine whose speed halves and recovers over tens of seconds as other
// tenants load the host, far beyond any regression worth catching: over
// the passes it was sized with, warm runs of one commit read 4,000 to
// 12,000 requests a second. A
// probe slice between every two cycles of a window measures how fast
// the host does a fixed mix of work right then: two closed-loop
// clients, each fetching a small body over loopback HTTP from a trivial
// Go server and then doing a fixed, allocation-heavy computation, over
// and over. The server is part of the benchmark, not of the system
// under test. Round trips stand for the serving workloads, the
// computation for the exploring ones: an HTTP-only probe tracked warm
// and fleet but over-corrected sweep and cold.
const (
	// probeNominal is the probe's rate, in loops a second, at which the
	// speed index is 1: about the median the 2-CPU machine the benchmark
	// was sized on reached.
	probeNominal = 6800.0
	// speedExponent is how strongly the workloads' speed follows the
	// probe's. Fitted cycle by cycle over ten runs of each workload on
	// that machine, their rates moved as the probe's to a power of 0.6
	// (cold) to 0.9 (warm), and 0.75 left every timing metric's spread
	// within a point or two of its best. With an exponent of 1, a host
	// twice as fast would read cold a third slower.
	speedExponent = 0.75
	probeSlice    = 250 * time.Millisecond
	// probeCmd is the argument that makes the benchmark binary serve
	// probe requests instead of running a benchmark:
	// `bench probe-server -addr HOST:PORT`.
	probeCmd = "probe-server"
)

// speedIndex turns a probe rate into the host speed index. Timing
// metrics are multiplied by it (rates divided), so they read as on a
// host running at the nominal speed.
func speedIndex(rate float64) float64 {
	return math.Pow(rate/probeNominal, speedExponent)
}

// probeBody is what the probe server answers: about the size of a
// table the warm workload serves.
var probeBody = bytes.Repeat([]byte("x"), 2048)

// probeMain serves probe requests, answering each with probeBody until
// the process is killed, when args are probeCmd -addr HOST:PORT. For any
// other args it returns at once.
func probeMain(args []string) {
	if len(args) == 3 && args[0] == probeCmd && args[1] == "-addr" {
		os.Exit(serveProbe(args[2]))
	}
}

func serveProbe(addr string) int {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "probe:", err)
		return 1
	}
	err = http.Serve(l, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(probeBody)
	}))
	fmt.Fprintln(os.Stderr, "probe:", err)
	return 1
}

// startProbe runs this executable as the probe server, started the way
// the system's processes are, and keeps a client for it.
func (e *env) startProbe(ctx context.Context) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	d, err := e.startProcess(ctx, self, e.logPath("probe"), probeCmd)
	if err != nil {
		return fmt.Errorf("probe server: %w", err)
	}
	e.probeBase = d.base
	e.probeClient = newHTTPClient(2)
	return nil
}

// probe measures the host's speed for one slice: the loops per second
// two closed-loop clients get through, each loop one round trip to the
// probe server and one probeWork.
func (e *env) probe(ctx context.Context) (float64, error) {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		n, units int
		firstErr error
	)
	start := time.Now()
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k, u := 0, 0
			var err error
			for ctx.Err() == nil && time.Since(start) < probeSlice {
				if err = e.probeOnce(ctx); err != nil {
					break
				}
				u += probeWork(uint64(k))
				k++
			}
			mu.Lock()
			defer mu.Unlock()
			n += k
			units += u
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}()
	}
	wg.Wait()
	if err := firstErr; err != nil {
		return 0, fmt.Errorf("probe: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if units < n {
		// Unreachable; the check keeps the computation's result in use.
		return 0, fmt.Errorf("probe: %d computations for %d loops", units, n)
	}
	return float64(n) / time.Since(start).Seconds(), nil
}

// probeWork is the probe's computation: map updates and small
// allocations from a xorshift stream, about as long as one round trip
// on the machine the benchmark was sized on. It returns a count at
// least 1.
func probeWork(seed uint64) int {
	m := make(map[uint64]int, 64)
	var bufs [][]byte
	x := seed | 1
	for i := 0; i < 768; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m[x%256]++
		if i%8 == 0 {
			bufs = append(bufs, make([]byte, 32+int(x%224)))
		}
	}
	return len(m) + len(bufs)
}

func (e *env) probeOnce(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.probeBase+"/", nil)
	if err != nil {
		return err
	}
	resp, err := e.probeClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err == nil && n != int64(len(probeBody)) {
		err = fmt.Errorf("%d bytes, want %d", n, len(probeBody))
	}
	return err
}
