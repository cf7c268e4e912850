// Package slo evaluates service-level objectives over the metrics the
// auth stack already records, with multi-window burn-rate alerting.
//
// An Objective is declarative — "99.5% of logins succeed-or-fail-closed
// in under 750ms, measured over 30 days" — and is read from a Source,
// a cumulative (good, total) pair derived from existing counters or
// latency histograms; the engine never adds instrumentation to the hot
// path. On every evaluation tick it snapshots each source, keeps a
// bounded history of snapshots, and computes the burn rate over the
// standard SRE window pairs:
//
//	fast  5m and 1h,  threshold 14.4  (2% of a 30d budget in one hour)
//	slow  6h and 3d,  threshold 1     (budget exhausted at the window's pace)
//
// A pair alerts only when BOTH its windows burn above the threshold —
// the short window proves it is happening now, the long one that it is
// not a blip. The fast pair is page severity: Engine.Health reports it,
// and wiring that into authwatch/portal health checks turns a fast burn
// into a 503 on /healthz. Everything is exported on the obs registry:
//
//	slo_burn_rate{slo,window}      current burn per window
//	slo_budget_remaining{slo}      fraction of the error budget left
//	slo_alert_active{slo,severity} page/ticket pair state
package slo

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"openmfa/internal/clock"
	"openmfa/internal/obs"
)

// Source yields the cumulative good and total event counts backing an
// objective. Implementations read existing obs handles; both values must
// be monotonically non-decreasing.
type Source interface {
	Counts() (good, total float64)
}

// HistogramSource adapts a latency histogram: good events are the
// observations at or under Threshold seconds (quantised to the bucket
// layout — see obs.Histogram.CountBelow), total is every observation.
type HistogramSource struct {
	H         *obs.Histogram
	Threshold float64
}

// Counts implements Source.
func (s HistogramSource) Counts() (float64, float64) {
	return float64(s.H.CountBelow(s.Threshold)), float64(s.H.Count())
}

// CounterSource adapts a good/total counter pair (e.g. accepted vs all
// authentications) into an availability objective.
type CounterSource struct {
	Good, Total *obs.Counter
}

// Counts implements Source.
func (s CounterSource) Counts() (float64, float64) {
	return float64(s.Good.Value()), float64(s.Total.Value())
}

// FamilySource aggregates every series of a counter family, classifying
// each series as good by its rendered label key (sorted `k="v"` pairs).
// Unlike CounterSource it tracks series that appear after registration —
// per-route, per-status request counters — so an availability objective
// can cover a whole family (Good == nil counts everything as good).
type FamilySource struct {
	Reg    *obs.Registry
	Family string
	Good   func(seriesLabels string) bool
}

// Counts implements Source.
func (s FamilySource) Counts() (good, total float64) {
	s.Reg.EachCounter(s.Family, func(labels string, c *obs.Counter) {
		v := float64(c.Value())
		total += v
		if s.Good == nil || s.Good(labels) {
			good += v
		}
	})
	return good, total
}

// MultiSource sums several sources, e.g. otpd's per-result-class check
// histograms.
type MultiSource []Source

// Counts implements Source.
func (m MultiSource) Counts() (good, total float64) {
	for _, s := range m {
		g, t := s.Counts()
		good += g
		total += t
	}
	return good, total
}

// Objective is one declarative SLO.
type Objective struct {
	// Name labels the exported series; must be a valid label value.
	Name string
	// Description is shown in /debug/slo.
	Description string
	// Target is the objective ratio, 0 < Target < 1 (0.995 = 99.5%).
	Target float64
	// Window is the error-budget accounting window (default 30 days).
	// Budget remaining is computed over min(Window, retained history).
	Window time.Duration
	// Source supplies the cumulative good/total counts (required).
	Source Source
}

// windowPair is one burn-rate alert rule: both windows must burn above
// Threshold for the alert to fire.
type windowPair struct {
	Severity string // "page" or "ticket"
	Short    time.Duration
	Long     time.Duration
	// Threshold is the burn-rate multiple: 1.0 means "eating budget
	// exactly as fast as the objective allows".
	Threshold float64
}

// windows are the standard multi-window multi-burn-rate pairs.
var windows = [...]windowPair{
	{Severity: "page", Short: 5 * time.Minute, Long: time.Hour, Threshold: 14.4},
	{Severity: "ticket", Short: 6 * time.Hour, Long: 3 * 24 * time.Hour, Threshold: 1},
}

// maxSamples bounds each objective's snapshot history. When exceeded, the
// older half of the history is thinned 2:1, so recent windows stay precise
// while long windows coarsen gracefully.
const maxSamples = 16384

// Config parameterises an Engine.
type Config struct {
	// Obs receives the slo_* gauges (may be nil for a silent engine).
	Obs *obs.Registry
	// Clock drives sample timestamps; nil means real time. Simulated
	// deployments pass the same clock.Sim as the rest of the stack so
	// burn windows track simulated time deterministically.
	Clock clock.Clock
}

// DefaultBudgetWindow is the accounting window when an Objective leaves
// Window zero: the paper-style 30-day error budget.
const DefaultBudgetWindow = 30 * 24 * time.Hour

type snapshot struct {
	t           time.Time
	good, total float64
}

type objState struct {
	obj     Objective
	samples []snapshot

	burn       map[string]float64 // window label -> burn rate
	alerts     map[string]bool    // severity -> active
	budgetLeft float64

	burnGauges   map[string]*obs.Gauge
	alertGauges  map[string]*obs.Gauge
	budgetGauge  *obs.Gauge
	windowLabels []string
}

// Engine evaluates objectives. Create with New, register objectives with
// Add, then either call Evaluate on your own cadence (simulations) or
// Start a ticker goroutine (daemons).
type Engine struct {
	clk        clock.Clock
	reg        *obs.Registry
	maxSamples int // the maxSamples constant; tests lower it

	mu   sync.Mutex
	objs []*objState

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// New builds an engine.
func New(cfg Config) *Engine {
	clk := cfg.Clock
	if clk == nil {
		clk = clock.Real{}
	}
	return &Engine{clk: clk, reg: cfg.Obs, maxSamples: maxSamples}
}

// windowLabel renders a duration the way operators write it (5m, 1h, 3d).
func windowLabel(d time.Duration) string {
	switch {
	case d >= 24*time.Hour && d%(24*time.Hour) == 0:
		return fmt.Sprintf("%dd", d/(24*time.Hour))
	case d >= time.Hour && d%time.Hour == 0:
		return fmt.Sprintf("%dh", d/time.Hour)
	case d >= time.Minute && d%time.Minute == 0:
		return fmt.Sprintf("%dm", d/time.Minute)
	default:
		return d.String()
	}
}

// Add registers an objective. The first sample is taken immediately so
// burn rates are defined from the first later Evaluate.
func (e *Engine) Add(obj Objective) error {
	if e == nil {
		return fmt.Errorf("slo: nil engine")
	}
	if obj.Name == "" || obj.Source == nil {
		return fmt.Errorf("slo: objective needs Name and Source")
	}
	if obj.Target <= 0 || obj.Target >= 1 {
		return fmt.Errorf("slo: objective %s target %v out of (0,1)", obj.Name, obj.Target)
	}
	if obj.Window <= 0 {
		obj.Window = DefaultBudgetWindow
	}
	st := &objState{
		obj:         obj,
		burn:        make(map[string]float64),
		alerts:      make(map[string]bool),
		budgetLeft:  1,
		burnGauges:  make(map[string]*obs.Gauge),
		alertGauges: make(map[string]*obs.Gauge),
		budgetGauge: e.reg.Gauge("slo_budget_remaining", "slo", obj.Name),
	}
	seen := map[string]struct{}{}
	for _, wp := range windows {
		for _, d := range []time.Duration{wp.Short, wp.Long} {
			lbl := windowLabel(d)
			if _, dup := seen[lbl]; dup {
				continue
			}
			seen[lbl] = struct{}{}
			st.windowLabels = append(st.windowLabels, lbl)
			st.burnGauges[lbl] = e.reg.Gauge("slo_burn_rate", "slo", obj.Name, "window", lbl)
		}
		st.alertGauges[wp.Severity] = e.reg.Gauge("slo_alert_active", "slo", obj.Name, "severity", wp.Severity)
	}
	st.budgetGauge.Set(1)
	good, total := obj.Source.Counts()
	st.samples = append(st.samples, snapshot{t: e.clk.Now(), good: good, total: total})
	e.mu.Lock()
	for _, existing := range e.objs {
		if existing.obj.Name == obj.Name {
			e.mu.Unlock()
			return fmt.Errorf("slo: duplicate objective %q", obj.Name)
		}
	}
	e.objs = append(e.objs, st)
	e.mu.Unlock()
	return nil
}

// Evaluate snapshots every source and recomputes burn rates, budgets, and
// alert states. Nil-safe. Simulations call it after advancing the clock;
// Start calls it on a ticker.
func (e *Engine) Evaluate() {
	if e == nil {
		return
	}
	now := e.clk.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, st := range e.objs {
		good, total := st.obj.Source.Counts()
		st.samples = append(st.samples, snapshot{t: now, good: good, total: total})
		if len(st.samples) > e.maxSamples {
			st.samples = thin(st.samples)
		}
		cur := st.samples[len(st.samples)-1]
		budget := 1 - st.obj.Target

		for _, lbl := range st.windowLabels {
			st.burn[lbl] = 0
		}
		for _, wp := range windows {
			shortLbl, longLbl := windowLabel(wp.Short), windowLabel(wp.Long)
			shortBurn := burnRate(st.samples, cur, now.Add(-wp.Short), budget)
			longBurn := burnRate(st.samples, cur, now.Add(-wp.Long), budget)
			st.burn[shortLbl] = shortBurn
			st.burn[longLbl] = longBurn
			active := shortBurn > wp.Threshold && longBurn > wp.Threshold
			st.alerts[wp.Severity] = active
			v := 0.0
			if active {
				v = 1
			}
			st.alertGauges[wp.Severity].Set(v)
		}
		for lbl, b := range st.burn {
			st.burnGauges[lbl].Set(b)
		}

		// Budget remaining over min(Window, retained history): errors spent
		// vs. errors allowed at the objective target.
		base := sampleAt(st.samples, now.Add(-st.obj.Window))
		dTotal := cur.total - base.total
		dErr := (cur.total - cur.good) - (base.total - base.good)
		st.budgetLeft = 1.0
		if allowed := dTotal * budget; allowed > 0 {
			st.budgetLeft = 1 - dErr/allowed
		}
		st.budgetGauge.Set(st.budgetLeft)
	}
}

// burnRate computes the burn over [from, now]: the window's error rate
// divided by the objective's error budget. An empty window burns 0.
func burnRate(samples []snapshot, cur snapshot, from time.Time, budget float64) float64 {
	base := sampleAt(samples, from)
	dTotal := cur.total - base.total
	if dTotal <= 0 || budget <= 0 {
		return 0
	}
	dErr := (cur.total - cur.good) - (base.total - base.good)
	if dErr < 0 {
		dErr = 0
	}
	return (dErr / dTotal) / budget
}

// sampleAt returns the latest sample taken at or before t, or the oldest
// retained sample when the history does not reach back that far.
func sampleAt(samples []snapshot, t time.Time) snapshot {
	// samples are in ascending time order; binary search the boundary.
	i := sort.Search(len(samples), func(i int) bool { return samples[i].t.After(t) })
	if i == 0 {
		return samples[0]
	}
	return samples[i-1]
}

// thin drops every second sample from the older half of the history.
func thin(samples []snapshot) []snapshot {
	half := len(samples) / 2
	out := samples[:0]
	for i, s := range samples {
		if i < half && i%2 == 1 {
			continue
		}
		out = append(out, s)
	}
	return out
}

// Start launches the evaluation ticker (interval <= 0 means 30s) and
// returns immediately; Stop shuts it down synchronously.
func (e *Engine) Start(interval time.Duration) {
	if e == nil || e.stop != nil {
		return
	}
	if interval <= 0 {
		interval = 30 * time.Second
	}
	e.stop = make(chan struct{})
	e.done = make(chan struct{})
	go func() {
		defer close(e.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				e.Evaluate()
			case <-e.stop:
				return
			}
		}
	}()
}

// Stop halts the ticker goroutine, waiting for it to exit. Safe when
// Start was never called, and idempotent.
func (e *Engine) Stop() {
	if e == nil || e.stop == nil {
		return
	}
	e.stopOnce.Do(func() { close(e.stop) })
	<-e.done
}

// Health implements obs.HealthCheck: a page-severity burn on any
// objective degrades /healthz. Nil-safe.
func (e *Engine) Health() error {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var firing []string
	for _, st := range e.objs {
		if st.alerts["page"] {
			firing = append(firing, fmt.Sprintf("%s (budget %.1f%% left)", st.obj.Name, 100*st.budgetLeft))
		}
	}
	if len(firing) == 0 {
		return nil
	}
	sort.Strings(firing)
	return fmt.Errorf("slo: fast burn on %s", strings.Join(firing, ", "))
}

// WindowStatus is one window's burn in a status report.
type WindowStatus struct {
	Window string  `json:"window"`
	Burn   float64 `json:"burn"`
}

// AlertStatus is one alert pair's state.
type AlertStatus struct {
	Severity string `json:"severity"`
	Active   bool   `json:"active"`
}

// ObjectiveStatus is one objective's full state for /debug/slo.
type ObjectiveStatus struct {
	Name            string         `json:"name"`
	Description     string         `json:"description,omitempty"`
	Target          float64        `json:"target"`
	Window          string         `json:"window"`
	BudgetRemaining float64        `json:"budget_remaining"`
	Burn            []WindowStatus `json:"burn"`
	Alerts          []AlertStatus  `json:"alerts"`
	Samples         int            `json:"samples"`
}

// Status reports every objective's current state, sorted by name.
func (e *Engine) Status() []ObjectiveStatus {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]ObjectiveStatus, 0, len(e.objs))
	for _, st := range e.objs {
		os := ObjectiveStatus{
			Name:            st.obj.Name,
			Description:     st.obj.Description,
			Target:          st.obj.Target,
			Window:          windowLabel(st.obj.Window),
			BudgetRemaining: st.budgetLeft,
			Samples:         len(st.samples),
		}
		for _, lbl := range st.windowLabels {
			os.Burn = append(os.Burn, WindowStatus{Window: lbl, Burn: st.burn[lbl]})
		}
		sevs := make([]string, 0, len(st.alerts))
		for sev := range st.alerts {
			sevs = append(sevs, sev)
		}
		sort.Strings(sevs)
		for _, sev := range sevs {
			os.Alerts = append(os.Alerts, AlertStatus{Severity: sev, Active: st.alerts[sev]})
		}
		out = append(out, os)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
