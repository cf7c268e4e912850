// Package authwatch turns the live auth-event firehose into the paper's
// evaluation figures, continuously. The paper's §5 analysis (Figures 3–6,
// Table 1) was produced post-hoc from centrally aggregated logs; authwatch
// subscribes to the internal/eventstream bus and maintains the same
// aggregates — unique MFA users per day, SSH traffic all/external/
// external-MFA, SMS volume, device-type mix — as rolling daily and hourly
// buckets, updated on every event.
//
// On top of the buckets sit threshold alert rules (failure-rate burn,
// lockout spikes, SMS surges) surfaced three ways: as
// authwatch_alert_active{rule=...} gauges in /metrics, as degraded state
// through Health (wired into /healthz), and in the /debug/authwatch
// endpoint, which serves both JSON aggregates and the FIGURES.txt-style
// ASCII charts.
package authwatch

import (
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"openmfa/internal/eventstream"
	"openmfa/internal/metrics"
	"openmfa/internal/obs"
)

// Alert thresholds. Each rule looks back over the last hour of stream
// time: with at least failureMinLogins login decisions in the hour, a
// failure share above failureMaxRate fires "failure_rate"; lockoutMax
// lockouts fire "lockout_spike"; smsMax token texts fire "sms_surge".
const (
	alertWindow      = time.Hour
	failureMinLogins = 50
	failureMaxRate   = 0.5
	lockoutMax       = 5
	smsMax           = 1000
)

// internalNet is the stack's internal fabric: logins from it are left out
// of the external series (Figure 4 red/blue bars).
var internalNet = &net.IPNet{IP: net.IPv4(10, 128, 0, 0).To4(), Mask: net.CIDRMask(16, 32)}

// Alert rule names.
const (
	RuleFailureRate  = "failure_rate"
	RuleLockoutSpike = "lockout_spike"
	RuleSMSSurge     = "sms_surge"
)

// Config parameterises a Watcher.
type Config struct {
	// Obs, when set, exports authwatch_events_ingested_total and one
	// authwatch_alert_active{rule=...} gauge per rule.
	Obs *obs.Registry
	// ExtraHealth adds further checks consulted by Health alongside the
	// watcher's own alert state — e.g. an SLO engine's fast-burn check,
	// so an error-budget burn degrades /healthz exactly like a native
	// authwatch alert.
	ExtraHealth []obs.HealthCheck
}

// MaxDayBuckets bounds the daily map: beyond it the oldest day is evicted.
const MaxDayBuckets = 1000

type dayBucket struct {
	trafficAll, trafficExternal, trafficExtMFA int
	failures, sms, lockouts, enrolments        int
	unpairs                                    int
	mfaUsers                                   map[string]struct{}
}

type hourBucket struct {
	logins, failures, lockouts, sms int
}

// Watcher is the streaming aggregator. Create with New, feed it with
// Ingest (synchronous) or Attach (live, from a bus subscription).
type Watcher struct {
	extra []obs.HealthCheck

	ingestedCtr *obs.Counter
	alertGauges map[string]*obs.Gauge

	mu        sync.Mutex
	now       time.Time // stream time: max event timestamp seen
	ingested  uint64
	days      map[int64]*dayBucket  // unix day
	hours     map[int64]*hourBucket // unix hour
	smsTotal  int
	deviceMix map[string]int
	alerts    map[string]bool

	sub  *eventstream.Subscription
	done chan struct{}
}

// New builds a watcher.
func New(cfg Config) *Watcher {
	w := &Watcher{
		extra:       cfg.ExtraHealth,
		ingestedCtr: cfg.Obs.Counter("authwatch_events_ingested_total"),
		alertGauges: map[string]*obs.Gauge{
			RuleFailureRate:  cfg.Obs.Gauge("authwatch_alert_active", "rule", RuleFailureRate),
			RuleLockoutSpike: cfg.Obs.Gauge("authwatch_alert_active", "rule", RuleLockoutSpike),
			RuleSMSSurge:     cfg.Obs.Gauge("authwatch_alert_active", "rule", RuleSMSSurge),
		},
		days:      make(map[int64]*dayBucket),
		hours:     make(map[int64]*hourBucket),
		deviceMix: make(map[string]int),
		alerts:    make(map[string]bool),
	}
	return w
}

func (w *Watcher) isInternal(addr string) bool {
	ip := net.ParseIP(addr)
	return ip != nil && internalNet.Contains(ip)
}

func dayKey(t time.Time) int64  { return t.Unix() / 86400 }
func hourKey(t time.Time) int64 { return t.Unix() / 3600 }

func (w *Watcher) day(t time.Time) *dayBucket {
	k := dayKey(t)
	b, ok := w.days[k]
	if !ok {
		b = &dayBucket{mfaUsers: make(map[string]struct{})}
		w.days[k] = b
		if len(w.days) > MaxDayBuckets {
			oldest := int64(1<<63 - 1)
			for dk := range w.days {
				if dk < oldest {
					oldest = dk
				}
			}
			delete(w.days, oldest)
		}
	}
	return b
}

func (w *Watcher) hour(t time.Time) *hourBucket {
	k := hourKey(t)
	b, ok := w.hours[k]
	if !ok {
		b = &hourBucket{}
		w.hours[k] = b
	}
	return b
}

// Ingest folds one event into the aggregates and re-evaluates the alert
// rules. Nil-safe. Safe for concurrent use.
func (w *Watcher) Ingest(e eventstream.Event) {
	if w == nil {
		return
	}
	w.ingestedCtr.Inc()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.ingested++
	if e.Time.After(w.now) {
		w.now = e.Time
	}
	switch e.Type {
	case eventstream.TypeLogin:
		db, hb := w.day(e.Time), w.hour(e.Time)
		hb.logins++
		if e.Result == "accept" {
			db.trafficAll++
			if !w.isInternal(e.Addr) {
				db.trafficExternal++
				if e.MFA {
					db.trafficExtMFA++
					db.mfaUsers[e.User] = struct{}{}
				}
			}
		} else {
			db.failures++
			hb.failures++
		}
	case eventstream.TypeSMS:
		if e.Result == "sent" {
			w.day(e.Time).sms++
			w.hour(e.Time).sms++
			w.smsTotal++
		}
	case eventstream.TypeLockout:
		w.day(e.Time).lockouts++
		w.hour(e.Time).lockouts++
	case eventstream.TypeEnroll:
		// The portal also announces enrolments (for its own audit trail);
		// otpd is the system of record, so only its events feed the
		// Table 1 device mix — counting both would double every pairing.
		// Only the portal unpairs, so its "unpaired" events are the
		// count of device removals.
		switch {
		case e.Component == "otpd":
			w.day(e.Time).enrolments++
			w.deviceMix[e.Method]++
		case e.Result == "unpaired":
			w.day(e.Time).unpairs++
		}
	}
	w.pruneHoursLocked()
	w.evaluateLocked()
}

// pruneHoursLocked drops hour buckets that have slid out of the alert
// window (with one window of slack for late events).
func (w *Watcher) pruneHoursLocked() {
	horizon := hourKey(w.now.Add(-2 * alertWindow))
	if len(w.hours) < 64 {
		return
	}
	for k := range w.hours {
		if k < horizon {
			delete(w.hours, k)
		}
	}
}

func (w *Watcher) windowSum(f func(*hourBucket) int) int {
	from := hourKey(w.now.Add(-alertWindow))
	to := hourKey(w.now)
	sum := 0
	for k, b := range w.hours {
		if k >= from && k <= to {
			sum += f(b)
		}
	}
	return sum
}

func (w *Watcher) evaluateLocked() {
	logins := w.windowSum(func(b *hourBucket) int { return b.logins })
	failures := w.windowSum(func(b *hourBucket) int { return b.failures })
	w.setAlertLocked(RuleFailureRate,
		logins >= failureMinLogins && float64(failures) > failureMaxRate*float64(logins))
	w.setAlertLocked(RuleLockoutSpike, w.windowSum(func(b *hourBucket) int { return b.lockouts }) >= lockoutMax)
	w.setAlertLocked(RuleSMSSurge, w.windowSum(func(b *hourBucket) int { return b.sms }) >= smsMax)
}

func (w *Watcher) setAlertLocked(rule string, active bool) {
	w.alerts[rule] = active
	v := 0.0
	if active {
		v = 1
	}
	w.alertGauges[rule].Set(v)
}

// Health implements obs.HealthCheck: non-nil while any alert is active
// or any Config.ExtraHealth check fails.
func (w *Watcher) Health() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	var active []string
	for rule, on := range w.alerts {
		if on {
			active = append(active, rule)
		}
	}
	w.mu.Unlock()
	if len(active) > 0 {
		sort.Strings(active)
		return fmt.Errorf("authwatch: alerts active: %s", strings.Join(active, ", "))
	}
	for _, check := range w.extra {
		if check == nil {
			continue
		}
		if err := check(); err != nil {
			return err
		}
	}
	return nil
}

// Attach subscribes the watcher to a bus and consumes events on a
// goroutine until Stop (or bus-side subscription close). buffer sizes the
// subscription channel (<= 0 for the default).
func (w *Watcher) Attach(bus *eventstream.Bus, buffer int) {
	w.mu.Lock()
	if w.done != nil {
		w.mu.Unlock()
		return
	}
	sub := bus.Subscribe(buffer)
	done := make(chan struct{})
	w.sub, w.done = sub, done
	w.mu.Unlock()
	go func() {
		defer close(done)
		for e := range sub.Events() {
			w.Ingest(e)
		}
	}()
}

// Stop closes the bus subscription (after delivering already-buffered
// events) and waits for the consumer goroutine to drain. The closed
// subscription stays readable, so Dropped and Snapshot keep reporting what
// it missed.
func (w *Watcher) Stop() {
	w.mu.Lock()
	sub, done := w.sub, w.done
	w.done = nil
	w.mu.Unlock()
	if done == nil {
		return
	}
	sub.Close()
	<-done
}

// Dropped is the number of bus events the subscription missed, up to and
// after Stop (0 when never attached).
func (w *Watcher) Dropped() uint64 {
	w.mu.Lock()
	sub := w.sub
	w.mu.Unlock()
	if sub == nil {
		return 0
	}
	return sub.Dropped()
}

// DaySnapshot is one day's aggregates.
type DaySnapshot struct {
	Date           string `json:"date"`
	TrafficAll     int    `json:"traffic_all"`
	TrafficExt     int    `json:"traffic_external"`
	TrafficExtMFA  int    `json:"traffic_ext_mfa"`
	UniqueMFAUsers int    `json:"unique_mfa_users"`
	LoginFailures  int    `json:"login_failures"`
	SMS            int    `json:"sms"`
	Lockouts       int    `json:"lockouts"`
	Enrolments     int    `json:"enrolments"`
	Unpairs        int    `json:"unpairs"`
}

// AlertStatus is one rule's current state.
type AlertStatus struct {
	Rule   string `json:"rule"`
	Active bool   `json:"active"`
}

// Snapshot is the full JSON view served by /debug/authwatch.
type Snapshot struct {
	Now       time.Time      `json:"now"`
	Events    uint64         `json:"events"`
	Dropped   uint64         `json:"dropped"`
	SMSTotal  int            `json:"sms_total"`
	DeviceMix map[string]int `json:"device_mix"`
	Alerts    []AlertStatus  `json:"alerts"`
	Days      []DaySnapshot  `json:"days"`
}

// Snapshot returns a copy of the current aggregates, days sorted by date.
func (w *Watcher) Snapshot() Snapshot {
	w.mu.Lock()
	defer w.mu.Unlock()
	snap := Snapshot{
		Now:       w.now,
		Events:    w.ingested,
		SMSTotal:  w.smsTotal,
		DeviceMix: make(map[string]int, len(w.deviceMix)),
	}
	for k, v := range w.deviceMix {
		snap.DeviceMix[k] = v
	}
	keys := make([]int64, 0, len(w.days))
	for k := range w.days {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		b := w.days[k]
		snap.Days = append(snap.Days, DaySnapshot{
			Date:           time.Unix(k*86400, 0).UTC().Format("2006-01-02"),
			TrafficAll:     b.trafficAll,
			TrafficExt:     b.trafficExternal,
			TrafficExtMFA:  b.trafficExtMFA,
			UniqueMFAUsers: len(b.mfaUsers),
			LoginFailures:  b.failures,
			SMS:            b.sms,
			Lockouts:       b.lockouts,
			Enrolments:     b.enrolments,
			Unpairs:        b.unpairs,
		})
	}
	for _, rule := range []string{RuleFailureRate, RuleLockoutSpike, RuleSMSSurge} {
		snap.Alerts = append(snap.Alerts, AlertStatus{Rule: rule, Active: w.alerts[rule]})
	}
	if w.sub != nil {
		snap.Dropped = w.sub.Dropped()
	}
	return snap
}

// Daily converts the day buckets into a metrics.Daily (the rollout chart
// renderer), with the same series names the batch report uses. Returns nil
// before any events arrive.
func (w *Watcher) Daily() *metrics.Daily {
	snap := w.Snapshot()
	if len(snap.Days) == 0 {
		return nil
	}
	parse := func(s string) time.Time {
		t, _ := time.Parse("2006-01-02", s)
		return t
	}
	d := metrics.NewDaily(parse(snap.Days[0].Date), parse(snap.Days[len(snap.Days)-1].Date))
	for _, ds := range snap.Days {
		t := parse(ds.Date)
		d.Set(t, "traffic_all", float64(ds.TrafficAll))
		d.Set(t, "traffic_external", float64(ds.TrafficExt))
		d.Set(t, "traffic_ext_mfa", float64(ds.TrafficExtMFA))
		d.Set(t, "unique_mfa_users", float64(ds.UniqueMFAUsers))
		d.Set(t, "login_failures", float64(ds.LoginFailures))
		d.Set(t, "sms_sent", float64(ds.SMS))
	}
	return d
}
