package prof

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"sort"
	"time"

	"openmfa/internal/seglog"
)

// Incident is one diagnostic bundle: the frozen profile ring (with a
// fresh capture appended, so every bundle ends in a CPU delta profile
// taken at fire time), a goroutine dump, a metrics snapshot, runtime
// stats, and recent flight-recorder trace IDs.
type Incident struct {
	ID      string    `json:"id"`
	Time    time.Time `json:"time"`
	Trigger string    `json:"trigger"`
	Detail  string    `json:"detail,omitempty"`
	// TraceIDs are recent flight-recorder traces from the burn window.
	TraceIDs []string `json:"trace_ids,omitempty"`
	// Captures is the frozen ring, oldest first; the last entry was
	// taken when the trigger fired.
	Captures []*Capture `json:"captures"`
	// Goroutines is a debug=2 text dump, possibly truncated.
	Goroutines          string `json:"goroutines"`
	GoroutinesTruncated bool   `json:"goroutines_truncated,omitempty"`
	// Metrics is the registry's Prometheus exposition at fire time.
	Metrics string       `json:"metrics"`
	Runtime RuntimeStats `json:"runtime"`
}

// Summary is an incident index entry.
type Summary struct {
	ID       string    `json:"id"`
	Time     time.Time `json:"time"`
	Trigger  string    `json:"trigger"`
	Detail   string    `json:"detail,omitempty"`
	Captures int       `json:"captures"`
	TraceIDs int       `json:"trace_ids"`
	Bytes    int       `json:"bytes"`
}

func summarize(inc *Incident, bytes int) Summary {
	return Summary{
		ID:       inc.ID,
		Time:     inc.Time,
		Trigger:  inc.Trigger,
		Detail:   inc.Detail,
		Captures: len(inc.Captures),
		TraceIDs: len(inc.TraceIDs),
		Bytes:    bytes,
	}
}

type trigger struct {
	name  string
	check func() (active bool, detail string)
}

// AddTrigger registers a named condition. Evaluate polls triggers in
// registration order and fires an incident for the first active one.
func (e *Engine) AddTrigger(name string, check func() (active bool, detail string)) {
	if e == nil || check == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.triggers = append(e.triggers, trigger{name: name, check: check})
}

// Evaluate polls the registered triggers and, subject to debounce,
// captures at most one incident for the first active one. The daemons'
// sampler loop calls this every period; tests drive it directly.
func (e *Engine) Evaluate() {
	if e == nil {
		return
	}
	e.mu.Lock()
	trigs := append([]trigger(nil), e.triggers...)
	e.mu.Unlock()
	for _, t := range trigs {
		active, detail := t.check()
		if !active {
			continue
		}
		e.fire(t.name, detail, true)
		return
	}
}

// Fire captures an incident immediately, bypassing debounce (but still
// arming it, so a subsequent trigger fire is suppressed). This is the
// manual /debug/prof/capture path.
func (e *Engine) Fire(triggerName, detail string) (*Incident, error) {
	if e == nil {
		return nil, fmt.Errorf("prof: no engine")
	}
	return e.fire(triggerName, detail, false)
}

// fire is the single incident path. Debounce is checked and armed
// before the capture so concurrent fires collapse to one bundle.
func (e *Engine) fire(triggerName, detail string, debounced bool) (*Incident, error) {
	now := e.clk.Now()
	e.mu.Lock()
	if debounced && e.haveFired && now.Sub(e.lastFire) < e.cfg.Debounce {
		e.mu.Unlock()
		e.suppressed.Inc()
		return nil, nil
	}
	e.haveFired, e.lastFire = true, now
	e.mu.Unlock()

	// Fresh capture first — it sleeps through the CPU window, so it must
	// run outside the engine lock — guaranteeing every bundle ends with
	// a CPU delta profile from fire time.
	e.CaptureOnce()

	var gbuf bytes.Buffer
	if p := pprof.Lookup("goroutine"); p != nil {
		p.WriteTo(&gbuf, 2)
	}
	var mbuf bytes.Buffer
	if e.cfg.Obs != nil {
		e.cfg.Obs.WritePrometheus(&mbuf)
	}
	var traces []string
	if e.cfg.TraceIDs != nil {
		traces = e.cfg.TraceIDs(16)
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	e.seq++
	inc := &Incident{
		ID:       fmt.Sprintf("inc-%06d", e.seq),
		Time:     now,
		Trigger:  triggerName,
		Detail:   detail,
		TraceIDs: traces,
		Captures: append([]*Capture(nil), e.ring...),
		Metrics:  mbuf.String(),
		Runtime:  readRuntimeStats(),
	}
	dump := gbuf.Bytes()
	if len(dump) > maxDumpBytes {
		dump = dump[:maxDumpBytes]
		inc.GoroutinesTruncated = true
	}
	inc.Goroutines = string(dump)

	if _, err := e.incidents.Append(inc); err != nil {
		return nil, fmt.Errorf("prof: persist incident: %w", err)
	}
	e.cfg.Obs.Counter("prof_incidents_total", "trigger", triggerName).Inc()
	e.incidentsG.Set(float64(e.incidents.Len()))
	return inc, nil
}

// List returns incident summaries, newest first.
func (e *Engine) List() []Summary {
	if e == nil {
		return nil
	}
	// Never nil: the /debug/prof index renders an empty list as [].
	return append([]Summary{}, e.incidents.Summaries(0, nil)...)
}

// Get fetches one full incident by ID (nil when unknown), read back
// through its checksummed frame.
func (e *Engine) Get(id string) (*Incident, error) {
	if e == nil {
		return nil, nil
	}
	return e.incidents.Get(id)
}

// incSeq parses the numeric part of an "inc-NNNNNN" ID.
func incSeq(id string) (uint64, bool) {
	var n uint64
	if _, err := fmt.Sscanf(id, "inc-%d", &n); err != nil {
		return 0, false
	}
	return n, true
}

// ReadDir reads incident bundles offline from a directory of
// incident-NNNNNN.seg segments or from a single .seg file, oldest
// first. Read-only (seglog.ReadJournal): torn tails are skipped, never
// truncated, so it is safe to point at a live daemon's directory or at
// segments copied off a crashed host.
func ReadDir(path string) ([]*Incident, error) {
	recs, err := seglog.ReadJournal[Incident](path, SegPrefix)
	if err != nil {
		return nil, fmt.Errorf("prof: %w", err)
	}
	out := make([]*Incident, len(recs))
	for i := range recs {
		out[i] = &recs[i]
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	return out, nil
}
