package shard

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"sync/atomic"
	"testing"

	"repro/internal/experiments"
	"repro/internal/server"
)

// TestDefaultClientReusesConnections pins the tuned default transport:
// sequential requests against one host must ride the same kept-alive
// connection, observed through httptrace — the stock &http.Client{}
// behaviour this replaced would also reuse, but with an idle pool of 2
// per host, below the in-flight cap a coordinator pushes.
func TestDefaultClientReusesConnections(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer ts.Close()

	client := defaultClient()
	if tr, ok := client.Transport.(*http.Transport); !ok {
		t.Fatalf("default client transport is %T, want *http.Transport", client.Transport)
	} else {
		if tr.MaxIdleConnsPerHost < DefaultMaxInFlight {
			t.Fatalf("MaxIdleConnsPerHost = %d, below the in-flight cap %d", tr.MaxIdleConnsPerHost, DefaultMaxInFlight)
		}
		if tr.DisableKeepAlives {
			t.Fatal("keep-alives disabled on the tuned transport")
		}
	}

	var reused atomic.Int64
	do := func() {
		trace := &httptrace.ClientTrace{
			GotConn: func(info httptrace.GotConnInfo) {
				if info.Reused {
					reused.Add(1)
				}
			},
		}
		req, err := http.NewRequestWithContext(httptrace.WithClientTrace(context.Background(), trace), "GET", ts.URL, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	const requests = 5
	for i := 0; i < requests; i++ {
		do()
	}
	// The first request dials; every subsequent one must reuse.
	if got := reused.Load(); got != requests-1 {
		t.Errorf("%d of %d follow-up requests reused a connection, want all %d", got, requests-1, requests-1)
	}
}

// TestCoordinatorReusesConnections is the integration half: a
// coordinator built without an explicit Client, running two batches
// against one worker, must open far fewer TCP connections than it
// sends requests — the second batch rides the first batch's idle
// pool instead of re-dialing.
func TestCoordinatorReusesConnections(t *testing.T) {
	ids := []string{"E1", "E2", "E3", "E4", "E5", "E6"}
	reg, _ := syntheticRegistry(ids...)

	var conns, requests atomic.Int64
	workerHandler := server.New(server.Options{Registry: reg})
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		workerHandler.ServeHTTP(w, r)
	}))
	ts.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)

	localReg, _ := syntheticRegistry(ids...)
	coord, err := New(Options{
		Workers: []string{ts.URL},
		Local:   experiments.Options{Registry: localReg, Jobs: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for batch := 0; batch < 2; batch++ {
		if _, err := coord.Run(context.Background(), ids); err != nil {
			t.Fatal(err)
		}
	}

	gotConns, gotReqs := conns.Load(), requests.Load()
	if gotReqs < int64(2*len(ids)) {
		t.Fatalf("worker saw %d requests, want at least %d", gotReqs, 2*len(ids))
	}
	// At most one connection per in-flight slot (plus the startup
	// probe, which shares the pool): a client that re-dialed per
	// request would open one per request instead.
	if limit := int64(DefaultMaxInFlight + 1); gotConns > limit {
		t.Errorf("worker saw %d new connections over %d requests, want at most %d", gotConns, gotReqs, limit)
	}
}
