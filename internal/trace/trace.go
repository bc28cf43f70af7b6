// Package trace is the fleet's request-tracing plane: a bounded
// in-memory journal of per-request span events, the request-ID scheme
// that ties one request's events together across processes, and the
// context/header plumbing that carries the ID from the edge that
// minted it (cmd/figures or internal/server) through the shard
// coordinator to every worker that served a piece of it.
//
// The latency histograms (internal/hist) say how slow a request was;
// the journal says why: every load-bearing decision on the serving
// path — worker chosen and at what in-flight count, cache and
// slice-cache outcome, retry, transport eviction, revival,
// space-version rejection, local fallback, singleflight coalesce — is
// one timestamped Event tagged with the prefix range it concerns.
// GET /trace/{id} (internal/server) exposes a process's journal;
// `figures trace` fetches the same ID from several processes and
// merges the events into one timeline, so a slow sharded request is
// explainable after the fact without reproducing it.
//
// The journal is an observability buffer, not a durable log: it holds
// the most recent maxRequests requests (oldest-request-out at the
// ring cap) with at most maxEvents events each (later events are
// counted as dropped, never reallocated), so a load test cannot grow
// it without bound and recording stays O(1) per event. Recording is
// mutex-serialized per journal — decision events are orders of
// magnitude rarer than the lock-free histogram samples, so a mutex is
// cheap where it matters and keeps eviction trivially correct.
package trace

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Header is the HTTP header that carries a request ID
// coordinator→worker (and back on every traced response), so one ID
// names the same request in every process's journal.
const Header = "Repro-Request-ID"

// Default journal bounds: enough to look up a request's span soon
// after it finished without letting a long-lived daemon accumulate
// traces forever.
const (
	// DefaultMaxRequests is the journal's ring cap: the number of
	// distinct request IDs retained before the oldest is evicted.
	DefaultMaxRequests = 256
	// DefaultMaxEvents caps events retained per request; a request
	// that records more keeps its first DefaultMaxEvents events and
	// counts the rest as dropped.
	DefaultMaxEvents = 512
)

// Event kinds: the load-bearing decisions of the serving path. The
// strings are the wire form (/trace/{id}) and the vocabulary the
// timeline renderer annotates with, so they change as deliberately as
// any other schema.
const (
	// KindRequest marks a request's arrival at a process.
	KindRequest = "request"
	// KindCarve records a shardable experiment's space being split
	// into prefix ranges by the coordinator.
	KindCarve = "carve"
	// KindWorkerSelected records least-loaded selection: a worker
	// chosen for a whole fetch or one range, with its in-flight count.
	KindWorkerSelected = "worker_selected"
	// KindFetch records one remote fetch's outcome (success only;
	// failures are KindRetry), with its duration.
	KindFetch = "fetch"
	// KindCacheHit / KindCacheMiss are whole-result cache outcomes.
	KindCacheHit  = "cache_hit"
	KindCacheMiss = "cache_miss"
	// KindSliceHit / KindSliceMiss / KindSliceStore are artifact-store
	// outcomes for one prefix range.
	KindSliceHit   = "slice_cache_hit"
	KindSliceMiss  = "slice_cache_miss"
	KindSliceStore = "slice_cache_store"
	// KindExplore records a slice exploration actually executing on a
	// worker.
	KindExplore = "explore"
	// KindRetry records a failed attempt moving work to another
	// worker — a whole-fetch failover or a range reassignment.
	KindRetry = "retry"
	// KindEvict records a transport failure taking a worker out of
	// rotation; KindRevive records a success restoring one.
	KindEvict  = "evict"
	KindRevive = "revive"
	// KindRegistryReject records a worker's answer being refused for
	// naming another generation of the experiment's code (a
	// Repro-Registry-Version header missing or other than the
	// experiment's space version).
	KindRegistryReject = "registry_reject"
	// KindLocalFallback records a point that exhausted the fleet running
	// whole on the local engine instead.
	KindLocalFallback = "local_fallback"
	// KindCoalesce records a request joining another request's
	// in-flight singleflight execution instead of starting its own.
	KindCoalesce = "coalesce"
	// KindDone marks a request completing, with status and duration.
	KindDone = "done"
)

// Event is one timestamped decision on a request's path. Range names
// the prefix range the event concerns (canonical
// experiments.FormatPrefixes rendering; empty for whole-request
// events), Worker the fleet member involved (empty when none).
type Event struct {
	At     time.Time `json:"at"`
	Kind   string    `json:"kind"`
	Range  string    `json:"range,omitempty"`
	Worker string    `json:"worker,omitempty"`
	Detail string    `json:"detail,omitempty"`
}

// Trace is one request's recorded span: the wire form GET /trace/{id}
// serves. Events are in recording order — which is chronological per
// process, the only clock a single journal has.
type Trace struct {
	ID     string    `json:"id"`
	What   string    `json:"what,omitempty"`
	Start  time.Time `json:"start"`
	Events []Event   `json:"events"`
	// Dropped counts events past the per-request cap that were
	// discarded rather than retained.
	Dropped int `json:"dropped,omitempty"`
}

// record is the journal's mutable per-request state.
type record struct {
	what    string
	start   time.Time
	events  []Event
	dropped int
}

// Journal is a bounded in-memory span journal. All methods are safe
// for concurrent use and nil-safe: a nil *Journal records nothing, so
// call sites need no tracing-enabled checks.
type Journal struct {
	mu          sync.Mutex
	maxRequests int
	maxEvents   int
	reqs        map[string]*record
	order       []string // insertion order; order[0] is evicted first
	evicted     atomic.Int64
}

// NewJournal builds a journal retaining at most maxRequests requests
// of at most maxEvents events each; values <= 0 take the defaults.
func NewJournal(maxRequests, maxEvents int) *Journal {
	if maxRequests <= 0 {
		maxRequests = DefaultMaxRequests
	}
	if maxEvents <= 0 {
		maxEvents = DefaultMaxEvents
	}
	return &Journal{
		maxRequests: maxRequests,
		maxEvents:   maxEvents,
		reqs:        make(map[string]*record),
	}
}

// Start opens (or annotates) the trace for id: a no-op on a nil
// journal or empty id, idempotent on an already-started trace except
// that an empty What is filled in — so a worker that Starts on the
// header-carried ID and a recording that auto-created the trace agree.
func (j *Journal) Start(id, what string) {
	if j == nil || id == "" {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	r := j.ensure(id)
	if r.what == "" {
		r.what = what
	}
}

// Add appends one event to id's trace, stamping At with the current
// time when the event carries none. Unknown ids auto-start (a
// recording site never needs to know whether the edge Started first);
// events past the per-request cap are counted as dropped.
func (j *Journal) Add(id string, ev Event) {
	if j == nil || id == "" {
		return
	}
	if ev.At.IsZero() {
		ev.At = time.Now()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	r := j.ensure(id)
	if len(r.events) >= j.maxEvents {
		r.dropped++
		return
	}
	r.events = append(r.events, ev)
}

// ensure returns id's record, creating it (and evicting the oldest
// request past the ring cap) if absent. Callers hold j.mu.
func (j *Journal) ensure(id string) *record {
	if r, ok := j.reqs[id]; ok {
		return r
	}
	if len(j.order) >= j.maxRequests {
		oldest := j.order[0]
		j.order = j.order[1:]
		delete(j.reqs, oldest)
		j.evicted.Add(1)
	}
	r := &record{start: time.Now()}
	j.reqs[id] = r
	j.order = append(j.order, id)
	return r
}

// Get returns a snapshot of id's trace. The snapshot's event slice is
// a copy: the caller can render it while recording continues.
func (j *Journal) Get(id string) (Trace, bool) {
	if j == nil {
		return Trace{}, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	r, ok := j.reqs[id]
	if !ok {
		return Trace{}, false
	}
	return j.snapshot(id, r), true
}

// Traces returns a snapshot of every retained trace in insertion
// order — the order requests arrived, oldest first.
func (j *Journal) Traces() []Trace {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Trace, 0, len(j.order))
	for _, id := range j.order {
		out = append(out, j.snapshot(id, j.reqs[id]))
	}
	return out
}

// Len reports how many requests the journal currently retains.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.order)
}

// Evicted reports how many requests have been evicted at the ring cap
// since the journal was built.
func (j *Journal) Evicted() int64 {
	if j == nil {
		return 0
	}
	return j.evicted.Load()
}

// snapshot copies one record into its wire form. Callers hold j.mu.
func (j *Journal) snapshot(id string, r *record) Trace {
	events := make([]Event, len(r.events))
	copy(events, r.events)
	return Trace{
		ID:      id,
		What:    r.what,
		Start:   r.start,
		Events:  events,
		Dropped: r.dropped,
	}
}

// NewID mints a request ID: 16 hex characters of crypto/rand — long
// enough that IDs never collide within a journal's retention window,
// short enough to read off a log line. The rare entropy failure falls
// back to a timestamp rather than failing the request being traced.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("t%015x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// ctxKey keys the request ID in a context.
type ctxKey struct{}

// WithID returns ctx carrying the request ID, the form every
// recording site reads it back with IDFrom. An empty id returns ctx
// unchanged.
func WithID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, id)
}

// IDFrom extracts the request ID from ctx; empty when none was
// attached (recording then no-ops — untraced paths stay untraced).
func IDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ctxKey{}).(string)
	return id
}
