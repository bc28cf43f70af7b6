package shard

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/server"
)

// BenchmarkFetchMerge prices the coordinator's fetch and merge over
// warm workers, the path a storeless figuresd -peers front door takes
// on every request: two in-process workers (server.New behind
// httptest) share one warm artifact store, and a coordinator without
// a store of its own asks for
//
//   - E1: one whole fetch of a 4.8 KB JSON body;
//   - E2: its default point carved into 4 ranges, each fetched and
//     merged;
//   - E2?k=3: a non-default point carved the same way, whose every
//     range URI spells the point out, so the workers parse it on every
//     range;
//   - changing: E1 from a worker whose table differs from the one
//     before it on every request, so every answer is decoded afresh:
//     the price of an answer that changed.
//
// A figure covers the whole round trip, the workers' share included,
// since they run in the same process.
func BenchmarkFetchMerge(b *testing.B) {
	store, err := cache.Open(b.TempDir(), cache.Options{})
	if err != nil {
		b.Fatal(err)
	}
	reg := experiments.Registry()
	k3, err := experiments.ParseParamList(reg["E2"], "k=3")
	if err != nil {
		b.Fatal(err)
	}
	points := []struct {
		name string
		id   string
		ps   experiments.ParamSet
	}{{"E1", "E1", experiments.ParamSet{}}, {"E2", "E2", experiments.ParamSet{}}, {"E2?k=3", "E2", k3}}
	var workers []string
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(server.New(server.Options{Registry: reg, Cache: store}))
		defer ts.Close()
		workers = append(workers, ts.URL)
	}
	coord, err := New(Options{Workers: workers, Local: experiments.Options{Registry: reg, Jobs: 1}})
	if err != nil {
		b.Fatal(err)
	}
	// The first requests explore and fill the store; the later ones
	// warm each worker's memory tier.
	for i := 0; i < 3; i++ {
		for _, pt := range points {
			runPoint(b, coord, pt.id, pt.ps)
		}
	}

	// Two bodies of E1 that differ in the title, served in turn.
	resp, err := http.Get(workers[0] + "/experiments/E1?format=json")
	if err != nil {
		b.Fatal(err)
	}
	bodyA, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		b.Fatal(err)
	}
	results, err := experiments.DecodeJSON(bytes.NewReader(bodyA))
	if err != nil {
		b.Fatal(err)
	}
	results[0].Table.Title += " (changed)"
	var bodyB bytes.Buffer
	if err := experiments.EncodeJSON(&bodyB, results); err != nil {
		b.Fatal(err)
	}
	var served atomic.Int64
	changing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/healthz":
			io.WriteString(w, "ok\n")
		case served.Add(1)%2 == 0:
			w.Header().Set(server.RegistryVersionHeader, experiments.SpaceVersion("E1"))
			w.Write(bodyA)
		default:
			w.Header().Set(server.RegistryVersionHeader, experiments.SpaceVersion("E1"))
			w.Write(bodyB.Bytes())
		}
	}))
	defer changing.Close()
	changingCoord, err := New(Options{Workers: []string{changing.URL}, Local: experiments.Options{Registry: reg, Jobs: 1}})
	if err != nil {
		b.Fatal(err)
	}

	for _, pt := range points {
		b.Run(pt.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runPoint(b, coord, pt.id, pt.ps)
			}
		})
	}
	b.Run("changing", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runPoint(b, changingCoord, "E1", experiments.ParamSet{})
		}
	})
	if st := coord.Stats(); st.Local != 0 || st.Failovers != 0 {
		b.Fatalf("stats = %+v, want every request served by the fleet", st)
	}
}

// runPoint asks coord for one point of id and fails b on an error.
func runPoint(b *testing.B, coord *Coordinator, id string, ps experiments.ParamSet) {
	b.Helper()
	res, err := coord.RunParam(context.Background(), id, ps)
	if err == nil {
		err = res.Err
	}
	if err != nil {
		b.Fatal(err)
	}
}
