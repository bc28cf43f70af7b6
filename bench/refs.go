package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// wholeReq is one whole-table or parameter-point request and the
// `figures` invocation that computes its reference bytes. param uses
// the figures -param spelling ("k=3", "k=4,i0=0,i1=1").
type wholeReq struct{ id, param, format string }

// path is the request as a client spells it on the wire.
func (w wholeReq) path() string {
	q := ""
	if w.param != "" {
		q = strings.ReplaceAll(w.param, ",", "&") + "&"
	}
	return "/experiments/" + w.id + "?" + q + "format=" + w.format
}

func (w wholeReq) name() string {
	if w.param == "" {
		return w.id + " " + w.format
	}
	return w.id + "?" + w.param + " " + w.format
}

// space names the exploration space a request carves: the experiment
// id, plus the parameter point for a non-default point.
func (w wholeReq) space() string {
	if w.param == "" {
		return w.id
	}
	return w.id + "?" + strings.ReplaceAll(w.param, ",", "&")
}

// carved lists the spaces whose prefix-range carve the benchmark
// learns from a live fleet: their slices are warm and cold ops, and
// their range counts are the fleet's expected fetches.
var carved = []wholeReq{{"E2", "", "json"}, {"E15", "", "json"}, {"E2", "k=3", "json"}}

// refs are the bytes a correct system answers with, and the carve its
// coordinator makes. They depend only on the binaries, so they are
// computed once per build and kept in .bench_build.
type refs struct {
	// Whole maps a request path to its reference bytes.
	Whole map[string][]byte `json:"whole"`
	// Sweep is `figures -jobs 1 -format json`: the default registry,
	// serial and cacheless.
	Sweep []byte `json:"sweep"`
	// Slices maps a space to its prefix-range requests, as the fleet's
	// coordinator spelled them, with the bytes a cacheless worker
	// answered.
	Slices map[string][]slice `json:"slices"`
}

type slice struct {
	Path string `json:"path"`
	Body []byte `json:"body"`
}

// loadRefs returns the references for the binaries just built,
// computing and saving them when this build has none yet.
func (e *env) loadRefs(ctx context.Context) (*refs, error) {
	sum := sha256.New()
	for _, bin := range []string{e.figures, e.figuresd} {
		f, err := os.Open(bin)
		if err != nil {
			return nil, err
		}
		_, err = io.Copy(sum, f)
		f.Close()
		if err != nil {
			return nil, err
		}
	}
	path := filepath.Join(e.build, "refs-"+hex.EncodeToString(sum.Sum(nil))[:16]+".json")
	if raw, err := os.ReadFile(path); err == nil {
		var r refs
		if json.Unmarshal(raw, &r) == nil && len(r.Whole) == len(warmWhole) && len(r.Slices) == len(carved) {
			return &r, nil
		}
	}
	fmt.Fprintln(e.log, "bench: computing reference bytes and the fleet carve for this build")
	r := &refs{Whole: map[string][]byte{}, Slices: map[string][]slice{}}
	if err := e.computeWhole(ctx, r); err != nil {
		return nil, err
	}
	if err := e.discoverCarve(ctx, r); err != nil {
		return nil, err
	}
	tmp := path + ".tmp"
	if err := writeJSON(tmp, r); err != nil {
		return nil, err
	}
	return r, os.Rename(tmp, path)
}

// runFigures runs one cacheless `figures` invocation and returns what
// it wrote to -o.
func (e *env) runFigures(ctx context.Context, args ...string) ([]byte, error) {
	out, err := os.CreateTemp(e.work, "ref-")
	if err != nil {
		return nil, err
	}
	out.Close()
	defer os.Remove(out.Name())
	var stderr bytes.Buffer
	cmd := systemCmd(ctx, e.figures, append(args, "-o", out.Name())...)
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("figures %s: %w: %s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return os.ReadFile(out.Name())
}

// computeWhole fills the whole-request and sweep references, two
// `figures` processes at a time.
func (e *env) computeWhole(ctx context.Context, r *refs) error {
	type job struct {
		key  string
		args []string
	}
	jobs := []job{{key: "", args: []string{"-jobs", "1", "-format", "json"}}}
	// Warm sends every whole and point request any workload sends.
	for _, w := range warmWhole {
		args := []string{"-run", w.id, "-format", w.format}
		if w.param != "" {
			args = append(args, "-param", w.param)
		}
		jobs = append(jobs, job{key: w.path(), args: args})
	}
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	sem := make(chan struct{}, 2)
	for _, j := range jobs {
		wg.Add(1)
		sem <- struct{}{}
		go func(j job) {
			defer wg.Done()
			defer func() { <-sem }()
			body, err := e.runFigures(ctx, j.args...)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err != nil:
				if firstErr == nil {
					firstErr = err
				}
			case j.key == "":
				r.Sweep = body
			default:
				r.Whole[j.key] = body
			}
		}(j)
	}
	wg.Wait()
	return firstErr
}

// discoverCarve stands up a cacheless two-worker fleet behind
// recording proxies, asks its front door for every carved space, and
// keeps the prefix-range requests the coordinator sent with the bytes
// the workers answered. The merged answers must equal the
// single-process references.
func (e *env) discoverCarve(ctx context.Context, r *refs) error {
	w1, err := e.startDaemon(ctx, e.logPath("carve-worker1"))
	if err != nil {
		return err
	}
	w2, err := e.startDaemon(ctx, e.logPath("carve-worker2"))
	if err != nil {
		return err
	}
	p1, err := startProxy(w1.base, true)
	if err != nil {
		return err
	}
	defer p1.close()
	p2, err := startProxy(w2.base, true)
	if err != nil {
		return err
	}
	defer p2.close()
	front, err := e.startDaemon(ctx, e.logPath("carve-front"), "-peers", p1.addr+","+p2.addr)
	if err != nil {
		return err
	}
	client := newHTTPClient(1)
	defer client.CloseIdleConnections()
	// Each space is asked for under its own request ID, which the
	// coordinator propagates on every fetch it makes for it.
	space := map[string]string{}
	for i, w := range carved {
		id := fmt.Sprintf("carve-%d", i)
		space[id] = w.space()
		o := op{name: "fleet " + w.name(), path: w.path(), want: r.Whole[w.path()]}
		if err := check(ctx, client, front.base, o, id); err != nil {
			return fmt.Errorf("fleet-merged answer differs from single-process figures: %w", err)
		}
	}
	for _, d := range []*daemon{front, w1, w2} {
		e.procs.stop(d)
	}
	seen := map[string]bool{}
	for _, rec := range append(p1.records(), p2.records()...) {
		sp, ok := space[rec.id]
		if !ok || !isSlice(rec.path) || seen[rec.path] || rec.status != 200 {
			continue
		}
		seen[rec.path] = true
		r.Slices[sp] = append(r.Slices[sp], slice{Path: rec.path, Body: rec.body})
	}
	for _, w := range carved {
		ss := r.Slices[w.space()]
		if len(ss) < 2 {
			return fmt.Errorf("the fleet carved %s into %d ranges; want at least 2", w.space(), len(ss))
		}
		sort.Slice(ss, func(a, b int) bool { return ss[a].Path < ss[b].Path })
	}
	return nil
}

// isSlice reports whether a request path asks for a prefix range.
func isSlice(path string) bool {
	u, err := url.Parse(path)
	return err == nil && u.Query().Get("prefixes") != ""
}

// wholeOps turns requests into ops checked against their references.
func (e *env) wholeOps(reqs ...wholeReq) []op {
	ops := make([]op, len(reqs))
	for i, w := range reqs {
		ops[i] = op{name: w.name(), path: w.path(), want: e.refs.Whole[w.path()]}
		if ss, ok := e.refs.Slices[w.space()]; ok {
			ops[i].fetches = len(ss)
		} else {
			ops[i].fetches = 1
		}
	}
	return ops
}

// sliceOps returns every prefix-range request of the named spaces.
func (e *env) sliceOps(spaces ...string) []op {
	var ops []op
	for _, sp := range spaces {
		for i, s := range e.refs.Slices[sp] {
			ops = append(ops, op{name: fmt.Sprintf("%s slice %d/%d", sp, i+1, len(e.refs.Slices[sp])), path: s.Path, want: s.Body})
		}
	}
	return ops
}
