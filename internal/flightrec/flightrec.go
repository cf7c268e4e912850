// Package flightrec is a tail-sampled flight recorder for the auth path:
// every completed login (or RADIUS/lockout decision, for the standalone
// daemons) produces a trace bundle — the trace's span tree out of
// obs.SpanStore, the eventstream events that carried its trace ID, and
// the log lines a LogTee indexed for it — and a tail-sampling policy
// decides, at completion time when the outcome is known, whether the
// bundle is kept:
//
//   - failed logins are always kept
//   - slow logins (duration >= Policy.SlowThreshold) are always kept
//   - traces that saw a lockout event are always kept
//   - traces completing while an alert is active (Policy.AlertActive)
//     are always kept
//   - a deterministic fraction of successes (Policy.SampleRate) is kept,
//     hashed from the user and event timestamp so two identically seeded
//     simulation runs keep the same traces
//
// Kept bundles are persisted as CRC-framed JSON records in size-capped,
// rotated flightrec-NNNNNN.seg files (internal/seglog, the crash-safe layer
// shared with the incident profiler); a torn tail from a crash never
// yields a half-bundle. Query by trace ID, result class, or minimum
// duration via Get/List, the /debug/flightrec handler, or
// `loganalyze -format flightrec` offline.
package flightrec

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"openmfa/internal/eventstream"
	"openmfa/internal/obs"
	"openmfa/internal/seglog"
)

// Bundle is one recorded trace: the completion event's identity fields,
// the keep reason, and the full span/event/log context.
type Bundle struct {
	Trace    string        `json:"trace"`
	Time     time.Time     `json:"time"`
	User     string        `json:"user,omitempty"`
	Addr     string        `json:"addr,omitempty"`
	Result   string        `json:"result,omitempty"`
	Reason   string        `json:"reason"` // failed | slow | lockout | alert | sampled
	Duration time.Duration `json:"duration,omitempty"`
	// Truncated reports that the span store had already evicted part of
	// this trace's tree; the bundle's Spans are a suffix, not the whole
	// conversation.
	Truncated   bool                `json:"truncated,omitempty"`
	Spans       []obs.SpanData      `json:"spans,omitempty"`
	Events      []eventstream.Event `json:"events,omitempty"`
	Logs        []string            `json:"logs,omitempty"`
	LogsDropped int                 `json:"logs_dropped,omitempty"`
}

// segPrefix names the recorder's segment files.
const segPrefix = "flightrec-"

// Keep reasons, in check order. The first matching reason labels the
// bundle and the flightrec_bundles_kept_total counter.
const (
	ReasonFailed  = "failed"
	ReasonSlow    = "slow"
	ReasonLockout = "lockout"
	ReasonAlert   = "alert"
	ReasonSampled = "sampled"
)

// Policy is the tail-sampling decision.
type Policy struct {
	// SampleRate is the fraction of successful, fast, unremarkable
	// traces to keep, in [0,1]. The decision hashes the user and event
	// timestamp (not the crypto-random trace ID), so identically seeded
	// simulated runs keep identical traces.
	SampleRate float64
	// SlowThreshold marks a trace slow when its duration reaches it;
	// zero disables the slow class.
	SlowThreshold time.Duration
	// AlertActive, when set, is consulted at completion time; traces
	// finishing during an active alert are kept. Wire it to
	// authwatch.Watcher.Health or the SLO engine.
	AlertActive func() bool
	// SuccessResult is the completion Result string that counts as
	// success (default "accept"); anything else is the failed class.
	SuccessResult string
}

// Config parameterises a Recorder.
type Config struct {
	// Dir holds the segment files (required; created if missing).
	Dir string
	// Bus is the event source (required).
	Bus *eventstream.Bus
	// Spans supplies trace span trees (optional).
	Spans *obs.SpanStore
	// Logs supplies per-trace log lines (optional).
	Logs *LogTee
	// Policy is the tail-sampling policy.
	Policy Policy
	// CompleteOn lists the event types that complete a trace (default
	// TypeLogin; standalone radiusd/otpd pass TypeRadius/TypeLockout).
	CompleteOn []eventstream.Type
	// MaxSegmentSize rotates the active segment once it reaches this
	// many bytes (default 4 MiB).
	MaxSegmentSize int64
	// MaxSegments bounds the retained segment count (default 8); the
	// oldest segment is deleted, with its bundles, on rotation past it.
	MaxSegments int
	// Buffer is the bus subscription depth (default 1024).
	Buffer int
	// Obs receives flightrec_* counters (optional).
	Obs *obs.Registry
}

// Defaults.
const (
	DefaultMaxSegmentSize = 4 << 20
	DefaultMaxSegments    = 8
	DefaultBuffer         = 1024

	maxPendingEvents = 64   // events buffered per in-flight trace
	maxPendingTraces = 4096 // in-flight traces (FIFO evicted)
)

// summary is the in-memory index entry for one persisted bundle.
type summary struct {
	Trace    string        `json:"trace"`
	Time     time.Time     `json:"time"`
	User     string        `json:"user,omitempty"`
	Result   string        `json:"result,omitempty"`
	Reason   string        `json:"reason"`
	Duration time.Duration `json:"duration,omitempty"`
	ref      seglog.Ref
}

// Summary is one persisted bundle's index entry, as reported by List.
type Summary struct {
	Trace    string        `json:"trace"`
	Time     time.Time     `json:"time"`
	User     string        `json:"user,omitempty"`
	Result   string        `json:"result,omitempty"`
	Reason   string        `json:"reason"`
	Duration time.Duration `json:"duration,omitempty"`
}

// Query filters List.
type Query struct {
	// Class matches a bundle's Result or keep Reason ("reject",
	// "failed", "slow", ...). Empty matches everything.
	Class string
	// MinDuration drops bundles faster than this.
	MinDuration time.Duration
	// Limit bounds the result count (0 = no bound); the newest bundles
	// win.
	Limit int
}

// Recorder subscribes to the bus, assembles bundles, and persists the
// kept ones. Create with New, then Stop to shut down; Get and List keep
// working after Stop (they read from disk).
type Recorder struct {
	cfg        cfgResolved
	sub        *eventstream.Subscription
	done       chan struct{}
	stopOnce   sync.Once
	sampleKeep uint64 // hash threshold: keep when hash < sampleKeep

	mu      sync.Mutex
	pending map[string][]eventstream.Event
	order   []string // pending FIFO
	index   map[string]*summary
	bySeq   []*summary // insertion (= persistence) order
	log     *seglog.Log

	kept      map[string]*obs.Counter
	dropped   *obs.Counter
	rotations *obs.Counter
	recovered *obs.Counter
	torn      *obs.Counter
}

type cfgResolved struct {
	Config
	completeOn map[eventstream.Type]bool
}

// New opens (or recovers) the segment directory, replays every committed
// frame to rebuild the index, truncates torn tails, and starts draining
// the bus.
func New(cfg Config) (*Recorder, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("flightrec: Config.Dir required")
	}
	if cfg.MaxSegmentSize <= 0 {
		cfg.MaxSegmentSize = DefaultMaxSegmentSize
	}
	if cfg.MaxSegments <= 0 {
		cfg.MaxSegments = DefaultMaxSegments
	}
	if cfg.Buffer <= 0 {
		cfg.Buffer = DefaultBuffer
	}
	if cfg.Policy.SuccessResult == "" {
		cfg.Policy.SuccessResult = "accept"
	}
	completeOn := map[eventstream.Type]bool{}
	if len(cfg.CompleteOn) == 0 {
		completeOn[eventstream.TypeLogin] = true
	}
	for _, t := range cfg.CompleteOn {
		completeOn[t] = true
	}

	r := &Recorder{
		cfg:     cfgResolved{Config: cfg, completeOn: completeOn},
		pending: make(map[string][]eventstream.Event),
		index:   make(map[string]*summary),
		done:    make(chan struct{}),
		kept:    make(map[string]*obs.Counter),
	}
	rate := cfg.Policy.SampleRate
	switch {
	case rate >= 1:
		r.sampleKeep = math.MaxUint64
	case rate > 0:
		// Scale into uint64 range without risking a float64 conversion
		// at exactly 2^64 (undefined); halving first keeps it in range.
		r.sampleKeep = uint64(rate*float64(1<<63)) * 2
	}
	for _, reason := range []string{ReasonFailed, ReasonSlow, ReasonLockout, ReasonAlert, ReasonSampled} {
		r.kept[reason] = cfg.Obs.Counter("flightrec_bundles_kept_total", "reason", reason)
	}
	r.dropped = cfg.Obs.Counter("flightrec_bundles_dropped_total")
	r.rotations = cfg.Obs.Counter("flightrec_segment_rotations_total")
	r.recovered = cfg.Obs.Counter("flightrec_recovered_bundles_total")
	r.torn = cfg.Obs.Counter("flightrec_torn_tails_total")

	// Recovery and rotation live in the shared seglog layer: replay every
	// committed frame into the index and truncate torn tails. Any segment,
	// not just the last, can have a torn tail if a crash raced rotation.
	log, torn, err := seglog.Open(seglog.Options{
		Dir:            cfg.Dir,
		Prefix:         segPrefix,
		MaxSegmentSize: cfg.MaxSegmentSize,
		MaxSegments:    cfg.MaxSegments,
	}, func(payload []byte, ref seglog.Ref) error {
		var b Bundle
		if err := json.Unmarshal(payload, &b); err != nil {
			// A committed frame that is not a bundle is foreign; skip it
			// rather than fail recovery.
			return nil
		}
		r.indexBundle(&b, ref)
		r.recovered.Inc()
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("flightrec: %w", err)
	}
	r.log = log
	r.torn.Add(int64(torn))

	if cfg.Bus != nil {
		r.sub = cfg.Bus.Subscribe(cfg.Buffer)
		go r.drain()
	} else {
		close(r.done)
	}
	return r, nil
}

func (r *Recorder) indexBundle(b *Bundle, ref seglog.Ref) {
	s := &summary{
		Trace: b.Trace, Time: b.Time, User: b.User,
		Result: b.Result, Reason: b.Reason, Duration: b.Duration,
		ref: ref,
	}
	if _, dup := r.index[b.Trace]; dup {
		return // first completion wins
	}
	r.index[b.Trace] = s
	r.bySeq = append(r.bySeq, s)
}

// drain consumes the subscription until it closes. Close drains buffered
// events before the channel closes, so Stop never loses a completed
// login that was already on the bus.
func (r *Recorder) drain() {
	defer close(r.done)
	for ev := range r.sub.Events() {
		r.handle(ev)
	}
}

// handle buffers one event and, on a completion type, runs the keep
// decision.
func (r *Recorder) handle(ev eventstream.Event) {
	if ev.Trace == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	evs, known := r.pending[ev.Trace]
	if !known {
		if len(r.order) >= maxPendingTraces {
			old := r.order[0]
			r.order = r.order[1:]
			delete(r.pending, old)
		}
		r.order = append(r.order, ev.Trace)
	}
	if len(evs) < maxPendingEvents {
		r.pending[ev.Trace] = append(evs, ev)
	}
	if !r.cfg.completeOn[ev.Type] {
		return
	}
	if _, done := r.index[ev.Trace]; done {
		return // first completion wins
	}
	r.completeLocked(ev)
}

// completeLocked assembles the bundle for ev's trace, applies the policy,
// and persists or drops it. Caller holds r.mu.
func (r *Recorder) completeLocked(ev eventstream.Event) {
	events := r.pending[ev.Trace]
	delete(r.pending, ev.Trace)
	for i, tr := range r.order {
		if tr == ev.Trace {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}

	spans, truncated := r.cfg.Spans.Lookup(ev.Trace)
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	dur := ev.Duration
	if dur <= 0 && len(spans) > 0 {
		// Span tree extent: first start to last end.
		end := spans[0].End
		for _, sp := range spans {
			if sp.End.After(end) {
				end = sp.End
			}
		}
		dur = end.Sub(spans[0].Start)
	}

	reason, keep := r.decide(ev, events, dur)
	if !keep {
		r.dropped.Inc()
		r.cfg.Logs.Take(ev.Trace)
		return
	}
	logs, logsDropped := r.cfg.Logs.Take(ev.Trace)
	b := &Bundle{
		Trace: ev.Trace, Time: ev.Time, User: ev.User, Addr: ev.Addr,
		Result: ev.Result, Reason: reason, Duration: dur,
		Truncated: truncated, Spans: spans, Events: events,
		Logs: logs, LogsDropped: logsDropped,
	}
	if err := r.persistLocked(b); err == nil {
		r.kept[reason].Inc()
	}
}

// decide returns the keep reason, checking the always-keep classes in
// order before the deterministic success sample.
func (r *Recorder) decide(ev eventstream.Event, events []eventstream.Event, dur time.Duration) (string, bool) {
	p := r.cfg.Policy
	if ev.Result != p.SuccessResult {
		return ReasonFailed, true
	}
	if p.SlowThreshold > 0 && dur >= p.SlowThreshold {
		return ReasonSlow, true
	}
	for _, e := range events {
		if e.Type == eventstream.TypeLockout {
			return ReasonLockout, true
		}
	}
	if p.AlertActive != nil && p.AlertActive() {
		return ReasonAlert, true
	}
	if r.sampleKeep > 0 && sampleHash(ev.User, ev.Time) < r.sampleKeep {
		return ReasonSampled, true
	}
	return "", false
}

// sampleHash is the deterministic sampling key: FNV-1a over the user and
// the event timestamp. Trace IDs are crypto-random, so hashing them would
// never reproduce across runs; under a simulated clock the user+time pair
// is identical between identically seeded runs.
func sampleHash(user string, t time.Time) uint64 {
	h := fnv.New64a()
	h.Write([]byte(user))
	h.Write([]byte{0})
	h.Write([]byte(strconv.FormatInt(t.UnixNano(), 10)))
	return h.Sum64()
}

// persistLocked frames and appends the bundle through the segment log
// (which rotates and evicts as needed), then indexes it. Caller holds
// r.mu.
func (r *Recorder) persistLocked(b *Bundle) error {
	payload, err := json.Marshal(b)
	if err != nil {
		return err
	}
	res, err := r.log.Append(payload)
	if err != nil {
		if errors.Is(err, seglog.ErrClosed) {
			return fmt.Errorf("flightrec: recorder closed")
		}
		return err
	}
	if res.Rotated {
		r.rotations.Inc()
	}
	// Evicted segments take their bundles' index entries with them.
	for _, old := range res.Evicted {
		kept := r.bySeq[:0]
		for _, s := range r.bySeq {
			if s.ref.Seg == old {
				delete(r.index, s.Trace)
				continue
			}
			kept = append(kept, s)
		}
		r.bySeq = kept
	}
	r.indexBundle(b, res.Ref)
	return nil
}

// Stop closes the subscription, drains what was already buffered, and
// closes the active segment. Get and List continue to serve from disk.
// Idempotent and nil-safe.
func (r *Recorder) Stop() {
	if r == nil {
		return
	}
	r.stopOnce.Do(func() {
		if r.sub != nil {
			r.sub.Close()
		}
		<-r.done
		r.log.Close()
	})
}

// Get fetches one persisted bundle by trace ID, reading and re-verifying
// its frame from disk. Nil-safe.
func (r *Recorder) Get(trace string) (*Bundle, error) {
	if r == nil {
		return nil, fmt.Errorf("flightrec: no recorder")
	}
	r.mu.Lock()
	s, ok := r.index[trace]
	r.mu.Unlock()
	if !ok {
		return nil, nil
	}
	payload, err := r.log.Read(s.ref)
	if err != nil {
		return nil, err
	}
	var b Bundle
	if err := json.Unmarshal(payload, &b); err != nil {
		return nil, fmt.Errorf("flightrec: decode bundle: %w", err)
	}
	return &b, nil
}

// List reports persisted bundle summaries matching q, newest first.
// Nil-safe.
func (r *Recorder) List(q Query) []Summary {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Summary
	for i := len(r.bySeq) - 1; i >= 0; i-- {
		s := r.bySeq[i]
		if q.Class != "" && q.Class != s.Result && q.Class != s.Reason {
			continue
		}
		if s.Duration < q.MinDuration {
			continue
		}
		out = append(out, Summary{
			Trace: s.Trace, Time: s.Time, User: s.User,
			Result: s.Result, Reason: s.Reason, Duration: s.Duration,
		})
		if q.Limit > 0 && len(out) >= q.Limit {
			break
		}
	}
	return out
}

// Len reports how many bundles are indexed.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.index)
}
