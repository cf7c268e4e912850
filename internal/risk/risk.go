// Package risk is the adaptive-MFA decision engine the paper names as
// the infrastructure's growth path (§6), built on the RBA architecture
// from the OpenStack risk-based-authentication paper (PAPERS.md): a
// bounded streaming feature store (internal/risk/feature) profiles every
// account from live auth events, and a declarative policy (weights +
// thresholds + per-feature explanations) turns each attempt's feature
// vector into one of four outcomes:
//
//   - skip    — clean score on a well-established account: the PAM gate
//     ends the stack successfully before the token module, so
//     the user is not prompted (policy opt-in, AllowSkip);
//   - allow   — abstain; the Figure 1 stack (exemptions included) runs
//     unchanged;
//   - step_up — force the second factor, cancelling any exemption;
//   - deny    — refuse the attempt before the second factor.
//
// Scored signals: novel source /24, novel country, impossible travel
// (geo-velocity), unmappable source addresses (scored conservatively —
// they can also never earn a skip), off-hours access against the
// account's own profile, and failed-attempt pressure (sliding-window
// count extended by a burst EWMA).
//
// Every decision increments risk_* metrics and is published back onto
// the event bus as a TypeRisk event; the feature store ignores those, so
// the engine never feeds on its own output.
package risk

import (
	"fmt"
	"net"
	"time"

	"openmfa/internal/eventstream"
	"openmfa/internal/geoip"
	"openmfa/internal/obs"
	"openmfa/internal/risk/feature"
)

const failWindow = feature.FailWindow

// burstFloor is the EWMA value below which decayed failure pressure
// stops scoring: stale bursts read as zero, like the expired window.
const burstFloor = 0.25

// Options configures New. Zero values take defaults.
type Options struct {
	// Geo resolves source addresses (nil disables geographic signals).
	Geo *geoip.DB
	// Policy is the decision policy; a zero Weights field is replaced by
	// DefaultWeights.
	Policy Policy
	// Obs, when set, exports risk_decisions_total{decision},
	// risk_reasons_total{reason}, and risk_assess_duration_seconds (the
	// feature store adds risk_feature_users and
	// risk_feature_evictions_total).
	Obs *obs.Registry
	// Events, when set, receives one TypeRisk event per Decide call.
	Events *eventstream.Bus
}

// Engine scores attempts and decides outcomes. Safe for concurrent use.
type Engine struct {
	store  *feature.Store
	policy Policy
	events *eventstream.Bus

	decisions [outcomeCount]*obs.Counter // indexed by Outcome (hot path: no map hash)
	reasons   map[string]*obs.Counter
	assessDur *obs.Histogram
}

// New builds an engine.
func New(o Options) *Engine {
	if o.Policy.Weights == (Weights{}) {
		o.Policy.Weights = DefaultWeights()
	}
	e := &Engine{
		store:     feature.NewStore(feature.Config{Geo: o.Geo, Obs: o.Obs}),
		policy:    o.Policy.withDefaults(),
		events:    o.Events,
		reasons:   make(map[string]*obs.Counter, len(FeatureNames)),
		assessDur: o.Obs.Histogram("risk_assess_duration_seconds", nil),
	}
	// Pre-create every label value so the families appear in the
	// exposition (and pass metrics-lint) before the first decision.
	for _, out := range Outcomes {
		e.decisions[out] = o.Obs.Counter("risk_decisions_total", "decision", out.String())
	}
	for _, name := range FeatureNames {
		e.reasons[name] = o.Obs.Counter("risk_reasons_total", "reason", name)
	}
	return e
}

// Store exposes the engine's feature store.
func (e *Engine) Store() *feature.Store { return e.store }

// Policy reports the active policy.
func (e *Engine) Policy() Policy { return e.policy }

// evaluate scores one attempt from the feature vector. Pure: no metrics,
// no events, no mutation.
func (e *Engine) evaluate(user string, ip net.IP, at time.Time) Decision {
	f := e.store.Snapshot(user, ip, at)
	w := e.policy.Weights
	var d Decision
	d.History = f.History
	add := func(name string, weight float64, detail string) {
		d.Score += weight
		d.Reasons = append(d.Reasons, Reason{Feature: name, Weight: weight, Detail: detail})
	}

	if f.History > 0 {
		if f.NewNetwork {
			add(FeatureNewNetwork, w.NewNetwork, "new source network "+f.Network)
		}
		if f.GeoKnown && f.NewCountry {
			add(FeatureNewCountry, w.NewCountry, "new country "+f.Country)
		}
		if f.HasLastLoc && f.DistanceKm > 50 && f.SpeedKmh > w.MaxKmh {
			add(FeatureImpossibleTravel, w.ImpossibleSpeed,
				fmt.Sprintf("impossible travel: %.0f km in %.1f h", f.DistanceKm, f.Gap.Hours()))
		}
		if f.GeoConfigured && !f.GeoKnown && w.UnknownGeo > 0 {
			// IPv6 or unmapped sources: we cannot clear them
			// geographically, so they score conservatively.
			add(FeatureUnknownGeo, w.UnknownGeo, "source address in no known range")
		}
		if f.OffHours && w.OffHours > 0 {
			add(FeatureOffHours, w.OffHours, fmt.Sprintf("unusual hour %02d:00 UTC", f.Hour))
		}
	}

	// Failure pressure applies to new and old accounts alike: the
	// sliding-window count, extended by the burst EWMA so a storm keeps
	// scoring as it decays.
	pressure := float64(f.RecentFails)
	if f.FailBurst > pressure {
		pressure = f.FailBurst
	}
	if pressure >= burstFloor || f.RecentFails > 0 {
		if pressure > 10 {
			pressure = 10
		}
		detail := fmt.Sprintf("%d recent failed attempts", f.RecentFails)
		if f.RecentFails == 0 {
			detail = fmt.Sprintf("failure burst (ewma %.1f)", f.FailBurst)
		}
		add(FeatureFailPressure, w.FailPressure*pressure, detail)
	}

	switch {
	case d.Score >= w.CriticalAt:
		d.Outcome = OutcomeDeny
	case d.Score >= w.ElevatedAt:
		d.Outcome = OutcomeStepUp
	case e.policy.AllowSkip &&
		f.History >= e.policy.MinHistory &&
		d.Score < e.policy.SkipBelow &&
		(!f.GeoConfigured || f.GeoKnown):
		// Skip only accounts we can fully place: an unmappable source
		// (IPv6, unknown range) never earns the bypass.
		d.Outcome = OutcomeSkip
	default:
		d.Outcome = OutcomeAllow
	}
	return d
}

// Decide scores an attempt and commits the decision: exactly one
// risk_decisions_total increment and exactly one TypeRisk event per call.
// It never mutates history — outcomes feed back through
// RecordSuccess / RecordFailure (or Ingest).
func (e *Engine) Decide(user string, ip net.IP, at time.Time) Decision {
	var start time.Time
	if e.assessDur != nil {
		start = time.Now()
	}
	d := e.evaluate(user, ip, at)
	if e.assessDur != nil {
		e.assessDur.ObserveSince(start)
	}
	e.decisions[d.Outcome].Inc()
	for _, r := range d.Reasons {
		if c := e.reasons[r.Feature]; c != nil {
			c.Inc()
		}
	}
	if e.events != nil {
		addr := ""
		if ip != nil {
			addr = ip.String()
		}
		e.events.Publish(eventstream.Event{
			Time: at, Type: eventstream.TypeRisk, Component: "risk",
			User: user, Addr: addr,
			Result: d.Outcome.String(), Detail: d.Detail(),
		})
	}
	return d
}

// RecordSuccess folds a successful login into the user's history.
func (e *Engine) RecordSuccess(user string, ip net.IP, at time.Time) {
	e.store.RecordSuccess(user, ip, at)
}

// RecordFailure folds a failed attempt into the user's history.
func (e *Engine) RecordFailure(user string, ip net.IP, at time.Time) {
	e.store.RecordFailure(user, ip, at)
}

// Users reports how many accounts have history.
func (e *Engine) Users() int { return e.store.Users() }

// Observe is the streaming (advisory) mode used by bus attachments and
// offline JSONL replays: a login event is first decided against the
// history accumulated so far — exactly as the PAM gate would have seen it
// — and then folded into the feature store. Other event types only feed
// the store. Returns the decision and whether one was made.
func (e *Engine) Observe(ev eventstream.Event) (Decision, bool) {
	var d Decision
	decided := false
	if ev.Type == eventstream.TypeLogin && ev.User != "" {
		if ip := feature.ParseAddr(ev.Addr); ip != nil {
			d = e.Decide(ev.User, ip, ev.Time)
			decided = true
		}
	}
	e.store.Ingest(ev)
	return d, decided
}

// Attach subscribes the engine to a bus in advisory mode: every login
// event is decided (metrics + republished TypeRisk decision) and
// ingested via Observe, on a background goroutine until Stop. The
// engine's own decision events are ignored by Observe, so attaching to
// the bus it publishes on does not loop. Do not combine with the
// synchronous PAM-gate wiring — the store would double-count.
func (e *Engine) Attach(bus *eventstream.Bus, buffer int) {
	e.store.AttachFunc(bus, buffer, func(ev eventstream.Event) { e.Observe(ev) })
}

// Stop closes an Attach subscription and drains it.
func (e *Engine) Stop() { e.store.Stop() }

// Dropped reports events an Attach subscription missed.
func (e *Engine) Dropped() uint64 { return e.store.Dropped() }
