package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	"repro/internal/shard"
	"repro/internal/trace"
)

// sourcedTrace is one journal's view of a request, tagged with the
// process it was fetched from ("" for the local coordinator journal).
// A sharded request leaves one span in the coordinator's journal and
// one in each worker that served a piece of it; the renderer merges
// them into a single timeline keyed by the shared request ID.
type sourcedTrace struct {
	source string
	tr     trace.Trace
}

// runTrace is the `figures trace` subcommand: fetch one request's
// span from every listed process's /trace/{id} endpoint and render
// the merged timeline — the after-the-fact explanation of where a
// sharded request's time went and which decisions shaped it.
func runTrace(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("figures trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr    = fs.String("addr", "", "comma-separated figuresd targets (host:port) to fetch the trace from")
		timeout = fs.Duration("timeout", 10*time.Second, "per-target fetch limit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *addr == "" {
		return fmt.Errorf("trace: -addr is required")
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("trace: exactly one request id expected, got %d args", fs.NArg())
	}
	id := fs.Arg(0)
	client := &http.Client{Timeout: *timeout}
	var traces []sourcedTrace
	for _, target := range shard.SplitList(*addr) {
		base := traceBaseURL(target)
		tr, err := fetchTrace(client, base, id)
		if err != nil {
			// A journal that aged the ID out (or a dead worker) thins
			// the timeline; it does not invalidate the other journals.
			fmt.Fprintf(stderr, "figures: trace: %s: %v\n", base, err)
			continue
		}
		traces = append(traces, sourcedTrace{source: base, tr: tr})
	}
	if len(traces) == 0 {
		return fmt.Errorf("trace %s not found on any target", id)
	}
	renderTimeline(stdout, traces)
	return nil
}

// traceBaseURL normalizes a target address to a scheme-full base URL
// (the same form the shard coordinator uses).
func traceBaseURL(addr string) string {
	addr = strings.TrimRight(addr, "/")
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return addr
}

// fetchTrace retrieves one process's span for id.
func fetchTrace(client *http.Client, base, id string) (trace.Trace, error) {
	var tr trace.Trace
	resp, err := client.Get(base + "/trace/" + url.PathEscape(id))
	if err != nil {
		return tr, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		return tr, fmt.Errorf("status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		return tr, err
	}
	return tr, nil
}

// sourcedEvent is one event of the merged timeline.
type sourcedEvent struct {
	trace.Event
	source string
}

// rangeSummary accumulates one prefix range's line of the per-range
// report: when it started and finished, who served it, its cache
// outcome, and how many times it was reassigned.
type rangeSummary struct {
	name        string
	first, last time.Time
	worker      string
	hit, miss   bool
	retries     int
}

// renderTimeline prints one request's merged span: the header, every
// event in timestamp order with its offset from the first, and — when
// any event names a prefix range — a per-range block with duration
// bars and worker/cache/retry annotations. Events from different
// journals are on different process clocks; on the single-host fleets
// this repo drives, the skew is far below the durations being read.
func renderTimeline(w io.Writer, traces []sourcedTrace) {
	var evs []sourcedEvent
	id, what := traces[0].tr.ID, ""
	dropped := 0
	for _, st := range traces {
		if what == "" {
			what = st.tr.What
		}
		dropped += st.tr.Dropped
		for _, ev := range st.tr.Events {
			evs = append(evs, sourcedEvent{Event: ev, source: st.source})
		}
	}
	if len(evs) == 0 {
		fmt.Fprintf(w, "trace %s — %s: no events recorded\n", id, what)
		return
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At.Before(evs[j].At) })
	base, end := evs[0].At, evs[0].At
	for _, ev := range evs {
		if ev.At.After(end) {
			end = ev.At
		}
	}
	total := end.Sub(base)
	fmt.Fprintf(w, "trace %s — %s (%d events from %d journals, %v)\n",
		id, what, len(evs), len(traces), total.Round(time.Microsecond))
	if dropped > 0 {
		fmt.Fprintf(w, "  (%d events dropped at the per-request cap)\n", dropped)
	}

	ranges := make(map[string]*rangeSummary)
	var order []string
	for _, ev := range evs {
		worker := ev.Worker
		if worker == "" {
			worker = ev.source
		}
		fmt.Fprintf(w, "  +%9.3fms  %-16s %-14s %-24s %s\n",
			float64(ev.At.Sub(base))/float64(time.Millisecond), ev.Kind, ev.Range, worker, ev.Detail)
		if ev.Range == "" {
			continue
		}
		r := ranges[ev.Range]
		if r == nil {
			r = &rangeSummary{name: ev.Range, first: ev.At, last: ev.At}
			ranges[ev.Range] = r
			order = append(order, ev.Range)
		}
		if ev.At.Before(r.first) {
			r.first = ev.At
		}
		if ev.At.After(r.last) {
			r.last = ev.At
		}
		switch ev.Kind {
		case trace.KindSliceHit:
			r.hit = true
		case trace.KindSliceMiss:
			r.miss = true
		case trace.KindRetry:
			r.retries++
		}
		if worker != "" && (ev.Kind == trace.KindWorkerSelected || ev.Kind == trace.KindFetch ||
			ev.Kind == trace.KindExplore || r.worker == "") {
			r.worker = worker
		}
	}
	if len(order) == 0 {
		return
	}
	fmt.Fprintf(w, "ranges:\n")
	for _, name := range order {
		r := ranges[name]
		cache := "uncached"
		switch {
		case r.hit:
			cache = "hit"
		case r.miss:
			cache = "miss"
		}
		fmt.Fprintf(w, "  %-14s %s %9.3fms  worker=%s cache=%s retries=%d\n",
			r.name, durationBar(r.first.Sub(base), r.last.Sub(r.first), total),
			float64(r.last.Sub(r.first))/float64(time.Millisecond), r.worker, cache, r.retries)
	}
}

// barWidth is the duration bar's fixed character budget; every range
// line scales into it so bars align and overlap is visible at a
// glance.
const barWidth = 24

// durationBar renders one range's share of the request's wall clock:
// leading dots up to its start offset, a solid bar for its duration,
// trailing dots to the request's end.
func durationBar(offset, dur, total time.Duration) string {
	if total <= 0 {
		return "[" + strings.Repeat("#", barWidth) + "]"
	}
	start := int(float64(offset) / float64(total) * barWidth)
	n := int(float64(dur) / float64(total) * barWidth)
	if n < 1 {
		n = 1
	}
	if start > barWidth-1 {
		start = barWidth - 1
	}
	if start+n > barWidth {
		n = barWidth - start
	}
	return "[" + strings.Repeat(".", start) + strings.Repeat("#", n) +
		strings.Repeat(".", barWidth-start-n) + "]"
}
