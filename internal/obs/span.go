package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Spans extend trace IDs into per-leg timing: one login decomposes into an
// sshd-conversation span with PAM-module and RADIUS-RTT children, plus an
// otpd-check span on the far side of the UDP hop (parentless there, joined
// to the rest of the tree by the shared trace ID). Finished spans land in a
// bounded in-memory SpanStore, queryable per trace ID, so operators can ask
// "where did this login spend its time?" without external tooling.
//
// Like the rest of the package everything is nil-safe: a nil *SpanStore
// hands out nil *Spans, and every *Span method no-ops on nil, so
// instrumented paths cost a pointer test when tracing is disabled. Span
// clocks are wall time (not the injected sim clock) on purpose: a span
// measures real compute and real network time, which is exactly what a
// frozen simulation clock cannot see.

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanData is the recorded form of a span.
type SpanData struct {
	Trace  string    `json:"trace"`
	ID     uint64    `json:"id"`
	Parent uint64    `json:"parent,omitempty"` // 0 = root (no parent in this process)
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Attrs  []Attr    `json:"attrs,omitempty"`
}

// Duration is the span's elapsed wall time.
func (d SpanData) Duration() time.Duration { return d.End.Sub(d.Start) }

// Span is one in-flight timing leg. Start spans via SpanStore.Start or
// Span.StartChild; call End exactly once to record the leg (later Ends
// are no-ops).
type Span struct {
	store *SpanStore

	mu   sync.Mutex
	data SpanData
	done bool
}

// SpanStore records finished spans in a bounded ring; when the ring is
// full the oldest span is evicted (counted, never blocking the auth path).
//
// Eviction is visible at query time: the store remembers, for every trace
// that still has at least one span in the ring, whether any of its spans
// have already been evicted, and Lookup reports that as a truncation flag
// so consumers (the flight recorder, /debug/flightrec) never mistake a
// partial tree for a complete one. The bookkeeping is self-bounding: a
// trace whose last span leaves the ring is forgotten entirely (an empty
// result cannot masquerade as a complete tree), so both maps hold at most
// as many entries as the ring holds distinct traces.
type SpanStore struct {
	seq     atomic.Uint64
	evicted atomic.Uint64
	now     func() time.Time // test hook; nil = time.Now

	mu        sync.Mutex
	ring      []SpanData
	head      int
	size      int
	live      map[string]int      // trace -> spans currently in the ring
	truncated map[string]struct{} // traces with >=1 live span and >=1 evicted span
}

// DefaultSpanCapacity bounds the store when NewSpanStore is given a
// non-positive capacity: enough for a few hundred logins' worth of legs.
const DefaultSpanCapacity = 4096

// NewSpanStore creates a store keeping the most recent capacity spans
// (DefaultSpanCapacity if capacity <= 0).
func NewSpanStore(capacity int) *SpanStore {
	if capacity <= 0 {
		capacity = DefaultSpanCapacity
	}
	return &SpanStore{
		ring:      make([]SpanData, capacity),
		live:      make(map[string]int),
		truncated: make(map[string]struct{}),
	}
}

func (s *SpanStore) clock() time.Time {
	if s.now != nil {
		return s.now()
	}
	return time.Now()
}

// Start begins a root span under the given trace ID. Nil-safe: a nil store
// returns a nil (no-op) span.
func (s *SpanStore) Start(trace, name string) *Span {
	if s == nil {
		return nil
	}
	sp := &Span{store: s}
	sp.data = SpanData{
		Trace: trace,
		ID:    s.seq.Add(1),
		Name:  name,
		Start: s.clock(),
	}
	return sp
}

// StartChild begins a child span under sp, inheriting its trace. Nil-safe.
func (sp *Span) StartChild(name string) *Span {
	if sp == nil || sp.store == nil {
		return nil
	}
	sp.mu.Lock()
	trace, parent := sp.data.Trace, sp.data.ID
	sp.mu.Unlock()
	child := sp.store.Start(trace, name)
	child.mu.Lock()
	child.data.Parent = parent
	child.mu.Unlock()
	return child
}

// SetAttr annotates the span. Nil-safe; no-op after End.
func (sp *Span) SetAttr(key, value string) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.done {
		return
	}
	for i := range sp.data.Attrs {
		if sp.data.Attrs[i].Key == key {
			sp.data.Attrs[i].Value = value
			return
		}
	}
	sp.data.Attrs = append(sp.data.Attrs, Attr{Key: key, Value: value})
}

// TraceID returns the span's trace ID ("" for a nil span).
func (sp *Span) TraceID() string {
	if sp == nil {
		return ""
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.data.Trace
}

// End finishes the span and records it in the store. Only the first End
// records; later calls are no-ops. Nil-safe.
func (sp *Span) End() {
	if sp == nil || sp.store == nil {
		return
	}
	sp.mu.Lock()
	if sp.done {
		sp.mu.Unlock()
		return
	}
	sp.done = true
	sp.data.End = sp.store.clock()
	data := sp.data
	sp.mu.Unlock()
	sp.store.record(data)
}

func (s *SpanStore) record(d SpanData) {
	s.mu.Lock()
	if s.live == nil { // stores built by struct literal in tests
		s.live = make(map[string]int)
		s.truncated = make(map[string]struct{})
	}
	if s.size == len(s.ring) {
		s.evicted.Add(1)
		old := s.ring[s.head].Trace
		if n := s.live[old] - 1; n > 0 {
			s.live[old] = n
			s.truncated[old] = struct{}{}
		} else {
			delete(s.live, old)
			delete(s.truncated, old)
		}
	} else {
		s.size++
	}
	s.live[d.Trace]++
	s.ring[s.head] = d
	s.head = (s.head + 1) % len(s.ring)
	s.mu.Unlock()
}

// Trace returns the recorded spans for a trace ID, oldest first. Nil-safe.
func (s *SpanStore) Trace(trace string) []SpanData {
	spans, _ := s.Lookup(trace)
	return spans
}

// Lookup returns the recorded spans for a trace ID, oldest first, plus a
// truncation flag: true means at least one span of this trace has already
// been evicted from the ring, so the returned tree is incomplete. Nil-safe.
func (s *SpanStore) Lookup(trace string) (spans []SpanData, truncated bool) {
	if s == nil || trace == "" {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < s.size; i++ {
		d := &s.ring[(s.head-s.size+i+2*len(s.ring))%len(s.ring)]
		if d.Trace == trace {
			spans = append(spans, *d)
		}
	}
	_, truncated = s.truncated[trace]
	return spans, truncated
}

// Len is the number of recorded spans currently held. Nil-safe.
func (s *SpanStore) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// Evicted is the number of spans dropped to ring bounding. Nil-safe.
func (s *SpanStore) Evicted() uint64 {
	if s == nil {
		return 0
	}
	return s.evicted.Load()
}
