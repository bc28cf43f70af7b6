package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/server"
	"repro/internal/trace"
)

func TestRunBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-nonsense"},
		{"-addr", "not a listen address"},
	} {
		if err := run(context.Background(), args, &bytes.Buffer{}); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestServeLifecycle boots the daemon's serve loop on an ephemeral
// port, exercises the API through real TCP, and checks that
// cancellation shuts it down cleanly within the grace window.
func TestServeLifecycle(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var executions atomic.Int64
	reg := map[string]experiments.Runner{
		"E1": func() (*experiments.Table, error) {
			executions.Add(1)
			return &experiments.Table{ID: "E1", Title: "synthetic",
				Headers: []string{"h"}, Rows: [][]string{{"v"}}}, nil
		},
	}
	handler := server.New(server.Options{Registry: reg})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx, l, handler, 2*time.Second) }()

	base := fmt.Sprintf("http://%s", l.Addr())
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if status, body := get("/healthz"); status != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", status, body)
	}
	if status, body := get("/experiments/E1"); status != http.StatusOK || !strings.Contains(body, "synthetic") {
		t.Fatalf("/experiments/E1 = %d %q", status, body)
	}
	if status, _ := get("/experiments"); status != http.StatusOK {
		t.Fatalf("/experiments = %d", status)
	}
	if n := executions.Load(); n != 1 {
		t.Fatalf("executions = %d", n)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v on graceful shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not shut down within the grace window")
	}
}

// syntheticRegistry builds a one-experiment registry with an
// execution counter.
func syntheticRegistry(id string, executions *atomic.Int64) map[string]experiments.Runner {
	return map[string]experiments.Runner{
		id: func() (*experiments.Table, error) {
			executions.Add(1)
			return &experiments.Table{ID: id, Title: "synthetic " + id,
				Headers: []string{"h"}, Rows: [][]string{{"v"}}}, nil
		},
	}
}

// TestPeersFrontsFleet is the figuresd -peers smoke path: a front
// daemon with peers delegates experiment execution to the fleet, its
// own registry never runs, and /stats answers on the front door.
func TestPeersFrontsFleet(t *testing.T) {
	var peerExecs, frontExecs atomic.Int64
	peer1 := httptest.NewServer(server.New(server.Options{Registry: syntheticRegistry("E1", &peerExecs)}))
	defer peer1.Close()
	peer2 := httptest.NewServer(server.New(server.Options{Registry: syntheticRegistry("E1", &peerExecs)}))
	defer peer2.Close()

	testRegistry = syntheticRegistry("E1", &frontExecs)
	defer func() { testRegistry = nil }()

	peers := strings.TrimPrefix(peer1.URL, "http://") + "," + strings.TrimPrefix(peer2.URL, "http://")
	handler, err := newHandler("", peers, 0, func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(handler)
	defer front.Close()

	resp, err := http.Get(front.URL + "/experiments/E1?format=json")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "synthetic E1") {
		t.Fatalf("front response = %d %q", resp.StatusCode, body)
	}
	if n := peerExecs.Load(); n != 1 {
		t.Errorf("fleet executed %d runners, want 1", n)
	}
	if n := frontExecs.Load(); n != 0 {
		t.Errorf("front executed %d runners locally, want 0 (peers own execution)", n)
	}

	stats, err := http.Get(front.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	statsBody, err := io.ReadAll(stats.Body)
	stats.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.StatusCode != http.StatusOK || !strings.Contains(string(statsBody), `"in_flight"`) {
		t.Fatalf("front /stats = %d %q", stats.StatusCode, statsBody)
	}
}

// TestPeersDeadFleetFallsBackLocal: a front daemon whose peers are
// all unreachable still serves — experiments run through its own
// engine.
func TestPeersDeadFleetFallsBackLocal(t *testing.T) {
	var frontExecs atomic.Int64
	testRegistry = syntheticRegistry("E1", &frontExecs)
	defer func() { testRegistry = nil }()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := l.Addr().String()
	l.Close()

	handler, err := newHandler("", dead, 0, func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(handler)
	defer front.Close()

	resp, err := http.Get(front.URL + "/experiments/E1")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "synthetic E1") {
		t.Fatalf("fallback response = %d %q", resp.StatusCode, body)
	}
	if n := frontExecs.Load(); n != 1 {
		t.Errorf("front executed %d runners, want 1 (local fallback)", n)
	}
}

// TestFrontDoorTraceSpansBothLayers: one front-door request leaves a
// single span holding the serving layer's request/done events and the
// shard coordinator's fleet decisions, retrievable via /trace/{id} on
// the front door — the shared-journal wiring of newHandler.
func TestFrontDoorTraceSpansBothLayers(t *testing.T) {
	var peerExecs, frontExecs atomic.Int64
	peer := httptest.NewServer(server.New(server.Options{Registry: syntheticRegistry("E1", &peerExecs)}))
	defer peer.Close()

	testRegistry = syntheticRegistry("E1", &frontExecs)
	defer func() { testRegistry = nil }()

	handler, err := newHandler("", strings.TrimPrefix(peer.URL, "http://"), 0, func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(handler)
	defer front.Close()

	resp, err := http.Get(front.URL + "/experiments/E1?format=json")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	reqID := resp.Header.Get(trace.Header)
	if reqID == "" {
		t.Fatal("front door echoed no request ID")
	}

	tr, err := http.Get(front.URL + "/trace/" + reqID)
	if err != nil {
		t.Fatal(err)
	}
	span, err := io.ReadAll(tr.Body)
	tr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("/trace/%s = %d %q", reqID, tr.StatusCode, span)
	}
	for _, kind := range []string{trace.KindRequest, trace.KindWorkerSelected, trace.KindFetch, trace.KindDone} {
		if !strings.Contains(string(span), `"`+kind+`"`) {
			t.Errorf("span missing %s event:\n%s", kind, span)
		}
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing the
// daemon's log output while the test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestDebugAddrServesPprof boots the daemon with -debug-addr on an
// ephemeral port, reads the bound addresses from the log, and checks
// that the profiling index answers there — and only there, not on the
// API listener.
func TestDebugAddrServesPprof(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var logs syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0", "-grace", "2s"}, &logs)
	}()

	extract := func(marker string) string {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			for _, line := range strings.Split(logs.String(), "\n") {
				if i := strings.Index(line, marker); i >= 0 {
					rest := line[i+len(marker):]
					return strings.TrimSuffix(strings.Fields(rest)[0], "/debug/pprof/")
				}
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("no %q line in logs:\n%s", marker, logs.String())
		return ""
	}
	debugURL := extract("pprof on ")
	apiURL := extract("serving on ")

	resp, err := http.Get(debugURL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "profile") {
		t.Fatalf("pprof index = %d %q", resp.StatusCode, body)
	}
	if resp, err := http.Get(apiURL + "/debug/pprof/"); err == nil {
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Error("API listener serves /debug/pprof/ — profiling leaked onto the experiment port")
		}
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v on shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}
