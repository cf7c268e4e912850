package authwatch

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"openmfa/internal/eventstream"
	"openmfa/internal/leakcheck"
	"openmfa/internal/obs"
)

var base = time.Date(2016, 10, 4, 8, 0, 0, 0, time.UTC)

func login(t time.Time, user, addr, result string, mfa bool) eventstream.Event {
	return eventstream.Event{
		Time: t, Type: eventstream.TypeLogin, Component: "sshd",
		User: user, Addr: addr, Result: result, MFA: mfa,
	}
}

func TestWatcherDailyAggregation(t *testing.T) {
	w := New(Config{})
	day2 := base.AddDate(0, 0, 1)

	w.Ingest(login(base, "alice", "73.1.2.3", "accept", true))
	w.Ingest(login(base.Add(time.Hour), "alice", "73.1.2.3", "accept", true)) // same user: unique count stays 1
	w.Ingest(login(base, "bob", "73.9.9.9", "accept", true))
	w.Ingest(login(base, "carol", "73.4.4.4", "accept", false))      // external, no MFA
	w.Ingest(login(base, "gateway1", "10.128.3.7", "accept", false)) // internal
	w.Ingest(login(base, "mallory", "73.6.6.6", "reject", false))
	w.Ingest(eventstream.Event{Time: base, Type: eventstream.TypeSMS, Component: "otpd", Result: "sent"})
	w.Ingest(eventstream.Event{Time: base, Type: eventstream.TypeSMS, Component: "sms", Result: "delivered"}) // lifecycle, not a send
	w.Ingest(eventstream.Event{Time: base, Type: eventstream.TypeEnroll, Component: "otpd", User: "bob", Method: "soft"})
	w.Ingest(eventstream.Event{Time: base, Type: eventstream.TypeEnroll, Component: "portal", User: "bob", Method: "soft"}) // duplicate announcement
	w.Ingest(eventstream.Event{Time: base, Type: eventstream.TypeLockout, User: "mallory"})
	w.Ingest(login(day2, "dave", "73.2.2.2", "accept", true))

	snap := w.Snapshot()
	if snap.Events != 12 {
		t.Errorf("Events = %d, want 12", snap.Events)
	}
	if len(snap.Days) != 2 {
		t.Fatalf("days = %d, want 2", len(snap.Days))
	}
	d1 := snap.Days[0]
	if d1.Date != "2016-10-04" {
		t.Errorf("day 1 date = %s", d1.Date)
	}
	if d1.TrafficAll != 5 || d1.TrafficExt != 4 || d1.TrafficExtMFA != 3 {
		t.Errorf("day 1 traffic all/ext/mfa = %d/%d/%d, want 5/4/3",
			d1.TrafficAll, d1.TrafficExt, d1.TrafficExtMFA)
	}
	if d1.UniqueMFAUsers != 2 {
		t.Errorf("day 1 unique MFA users = %d, want 2 (alice, bob)", d1.UniqueMFAUsers)
	}
	if d1.LoginFailures != 1 || d1.SMS != 1 || d1.Lockouts != 1 || d1.Enrolments != 1 {
		t.Errorf("day 1 failures/sms/lockouts/enrolments = %d/%d/%d/%d, want 1/1/1/1",
			d1.LoginFailures, d1.SMS, d1.Lockouts, d1.Enrolments)
	}
	if snap.SMSTotal != 1 {
		t.Errorf("SMSTotal = %d, want 1", snap.SMSTotal)
	}
	if snap.DeviceMix["soft"] != 1 || len(snap.DeviceMix) != 1 {
		t.Errorf("device mix = %v, want soft:1 only (portal dupe filtered)", snap.DeviceMix)
	}
	if snap.Days[1].UniqueMFAUsers != 1 {
		t.Errorf("day 2 unique MFA users = %d, want 1", snap.Days[1].UniqueMFAUsers)
	}

	daily := w.Daily()
	if daily == nil {
		t.Fatal("Daily() = nil")
	}
	if got, _ := daily.Get(base, "traffic_ext_mfa"); got != 3 {
		t.Errorf("Daily traffic_ext_mfa = %v, want 3", got)
	}
	if got, _ := daily.Get(base, "unique_mfa_users"); got != 2 {
		t.Errorf("Daily unique_mfa_users = %v, want 2", got)
	}
}

func TestAlertRulesAndHealth(t *testing.T) {
	reg := obs.NewRegistry()
	w := New(Config{Obs: reg})
	if err := w.Health(); err != nil {
		t.Fatalf("healthy watcher Health() = %v", err)
	}

	// Lockout spike: lockoutMax lockouts inside the hour window.
	for i := 0; i < lockoutMax; i++ {
		w.Ingest(eventstream.Event{Time: base.Add(time.Duration(i) * time.Minute),
			Type: eventstream.TypeLockout, User: "m"})
	}
	err := w.Health()
	if err == nil || !strings.Contains(err.Error(), RuleLockoutSpike) {
		t.Fatalf("Health() = %v, want lockout_spike active", err)
	}
	if v := reg.Gauge("authwatch_alert_active", "rule", RuleLockoutSpike).Value(); v != 1 {
		t.Errorf("lockout gauge = %v, want 1", v)
	}

	// Failure-rate burn: failureMinLogins logins in-window, 80% failures.
	for i := 0; i < failureMinLogins*8/10; i++ {
		w.Ingest(login(base.Add(time.Minute), "x", "73.0.0.1", "reject", false))
	}
	for i := 0; i < failureMinLogins*2/10; i++ {
		w.Ingest(login(base.Add(time.Minute), "y", "73.0.0.2", "accept", false))
	}
	err = w.Health()
	if err == nil || !strings.Contains(err.Error(), RuleFailureRate) {
		t.Fatalf("Health() = %v, want failure_rate active", err)
	}

	// The windows slide: a day later both alerts clear (stream time moves
	// with the newest event).
	w.Ingest(login(base.AddDate(0, 0, 1), "z", "73.0.0.3", "accept", false))
	if err := w.Health(); err != nil {
		t.Fatalf("Health() after window slide = %v, want nil", err)
	}
	if v := reg.Gauge("authwatch_alert_active", "rule", RuleLockoutSpike).Value(); v != 0 {
		t.Errorf("lockout gauge after slide = %v, want 0", v)
	}
}

func TestHealthzDegradesUnderAlert(t *testing.T) {
	reg := obs.NewRegistry()
	w := New(Config{Obs: reg})
	mux := http.NewServeMux()
	obs.Mount(mux, reg, w.Health)
	w.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d before alert, want 200", code)
	}
	for i := 0; i < lockoutMax; i++ {
		w.Ingest(eventstream.Event{Time: base, Type: eventstream.TypeLockout, User: "m"})
	}
	code, body := get("/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz = %d under alert, want 503", code)
	}
	if !strings.Contains(body, RuleLockoutSpike) {
		t.Errorf("/healthz body missing rule name: %q", body)
	}

	code, body = get("/debug/authwatch")
	if code != http.StatusOK {
		t.Fatalf("/debug/authwatch = %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/debug/authwatch not JSON: %v", err)
	}
	if len(snap.Days) != 1 || snap.Days[0].Lockouts != lockoutMax {
		t.Errorf("snapshot days = %+v", snap.Days)
	}
	active := false
	for _, a := range snap.Alerts {
		if a.Rule == RuleLockoutSpike && a.Active {
			active = true
		}
	}
	if !active {
		t.Error("snapshot alerts missing active lockout_spike")
	}

	code, body = get("/debug/authwatch?format=ascii")
	if code != http.StatusOK {
		t.Fatalf("ascii view = %d", code)
	}
	for _, want := range []string{"authwatch:", "lockout_spike", "FIRING"} {
		if !strings.Contains(body, want) {
			t.Errorf("ascii view missing %q:\n%s", want, body)
		}
	}
}

func TestAttachStopDrainsSubscription(t *testing.T) {
	leakcheck.Check(t)
	bus := eventstream.NewBus(nil)
	w := New(Config{})
	w.Attach(bus, 1024)
	const events = 500
	for i := 0; i < events; i++ {
		bus.Publish(login(base.Add(time.Duration(i)*time.Second), "u", "73.0.0.1", "accept", false))
	}
	w.Stop() // closes the subscription and waits for the drain
	snap := w.Snapshot()
	if snap.Events != events {
		t.Errorf("ingested %d events after Stop, want %d (buffered events must drain)", snap.Events, events)
	}
	if snap.Dropped != 0 {
		t.Errorf("Dropped = %d, want 0", snap.Dropped)
	}
	w.Stop() // idempotent
}

// A parity check reads the drop count after Stop has drained the watcher;
// the count must still be there, or a lossy subscription passes as exact.
func TestDroppedSurvivesStop(t *testing.T) {
	bus := eventstream.NewBus(nil)
	w := New(Config{})
	w.Attach(bus, 1)
	const events = 20000
	for i := 0; i < events; i++ {
		bus.Publish(login(base.Add(time.Duration(i)*time.Second), "u", "73.0.0.1", "accept", false))
	}
	w.Stop()
	snap := w.Snapshot()
	if snap.Dropped == 0 {
		t.Fatal("a one-slot subscription kept up with a 20000-event burst; nothing to check")
	}
	if got := w.Dropped(); got != snap.Dropped || snap.Events+got != events {
		t.Errorf("after Stop: Dropped() = %d, snapshot dropped = %d, ingested = %d, want them to add up to %d",
			got, snap.Dropped, snap.Events, events)
	}
}
