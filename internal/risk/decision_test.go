package risk

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"openmfa/internal/eventstream"
	"openmfa/internal/geoip"
	"openmfa/internal/leakcheck"
	"openmfa/internal/obs"
)

var (
	decT0    = time.Date(2026, 3, 2, 10, 0, 0, 0, time.UTC)
	unmapped = net.ParseIP("2001:db8::1")
)

// decSeed builds n days of boring Austin history ending just before decT0.
func decSeed(e *Engine, user string, n int) {
	for i := 0; i < n; i++ {
		e.RecordSuccess(user, austin, decT0.AddDate(0, 0, -n+i))
	}
}

func TestDecideOutcomes(t *testing.T) {
	e := New(Options{Geo: geoip.Synthetic(), Policy: AdaptivePolicy()})
	decSeed(e, "alice", 30)

	cases := []struct {
		name string
		ip   net.IP
		want Outcome
	}{
		{"established familiar origin", austin, OutcomeSkip},
		{"novel network and country", german, OutcomeStepUp},
	}
	for _, c := range cases {
		if d := e.Decide("alice", c.ip, decT0); d.Outcome != c.want {
			t.Errorf("%s: outcome = %v, want %v (score %.2f %v)",
				c.name, d.Outcome, c.want, d.Score, d.ReasonStrings())
		}
	}

	// Impossible travel stacks to a deny.
	e.RecordSuccess("alice", austin, decT0)
	d := e.Decide("alice", china, decT0.Add(30*time.Minute))
	if d.Outcome != OutcomeDeny {
		t.Fatalf("impossible travel outcome = %v (score %.2f %v)", d.Outcome, d.Score, d.ReasonStrings())
	}
	if !strings.Contains(d.Detail(), "impossible travel") {
		t.Fatalf("Detail() = %q", d.Detail())
	}

	// New accounts always take the full stack.
	if d := e.Decide("stranger", austin, decT0); d.Outcome != OutcomeAllow {
		t.Fatalf("new account outcome = %v", d.Outcome)
	}
}

func TestSkipRequiresMappableSource(t *testing.T) {
	// An unmappable source (IPv6 here) can never earn the bypass, even
	// with a pristine history, and scores the unknown-geo penalty.
	e := New(Options{Geo: geoip.Synthetic(), Policy: AdaptivePolicy()})
	decSeed(e, "alice", 30)
	d := e.Decide("alice", unmapped, decT0)
	if d.Outcome == OutcomeSkip {
		t.Fatalf("unmappable source earned a skip (score %.2f)", d.Score)
	}
	found := false
	for _, r := range d.Reasons {
		if r.Feature == FeatureUnknownGeo {
			found = true
		}
	}
	if !found {
		t.Fatalf("no unknown-geo reason: %v", d.ReasonStrings())
	}

	// With geo disabled entirely the DB clears nobody and penalises
	// nobody: familiarity falls back to network history alone, so a
	// well-established account still earns the skip and the unknown-geo
	// penalty never fires (graceful degradation).
	e2 := New(Options{Policy: AdaptivePolicy()})
	decSeed(e2, "alice", 30)
	d2 := e2.Decide("alice", austin, decT0)
	if d2.Outcome != OutcomeSkip {
		t.Fatalf("geo-disabled outcome = %v, want skip on network history (%v)", d2.Outcome, d2.ReasonStrings())
	}
	for _, r := range d2.Reasons {
		if r.Feature == FeatureUnknownGeo {
			t.Fatal("unknown-geo scored with geo disabled")
		}
	}
}

func TestSkipPolicyKnobs(t *testing.T) {
	// Below MinHistory: no skip.
	e := New(Options{Geo: geoip.Synthetic(), Policy: AdaptivePolicy()})
	decSeed(e, "thin", 10)
	if d := e.Decide("thin", austin, decT0); d.Outcome != OutcomeAllow {
		t.Fatalf("thin history outcome = %v", d.Outcome)
	}
	// AllowSkip off (the default policy): identical setup, no skip.
	e2 := New(Options{Geo: geoip.Synthetic()})
	decSeed(e2, "alice", 30)
	if d := e2.Decide("alice", austin, decT0); d.Outcome != OutcomeAllow {
		t.Fatalf("default policy outcome = %v, want allow", d.Outcome)
	}
	if e2.Policy().AllowSkip {
		t.Fatal("default policy has AllowSkip on")
	}
}

func render(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestDecideMetricsExactlyOnce(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Options{Geo: geoip.Synthetic(), Obs: reg})
	decSeed(e, "alice", 30)
	for i := 0; i < 5; i++ {
		e.Decide("alice", austin, decT0)
	}
	e.Decide("alice", german, decT0)
	exp := render(t, reg)
	for _, want := range []string{
		`risk_decisions_total{decision="allow"} 5`,
		`risk_decisions_total{decision="step_up"} 1`,
		`risk_decisions_total{decision="deny"} 0`,
		`risk_decisions_total{decision="skip"} 0`,
		`risk_reasons_total{reason="new_network"} 1`,
		`risk_reasons_total{reason="new_country"} 1`,
		`risk_reasons_total{reason="impossible_travel"} 0`,
		`risk_feature_users 1`,
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Every call counts: a second German attempt is a second step-up.
	e.Decide("alice", german, decT0)
	if exp := render(t, reg); !strings.Contains(exp, `risk_decisions_total{decision="step_up"} 2`) {
		t.Errorf("second Decide not counted:\n%s", exp)
	}
}

func TestDecidePublishesExactlyOneEvent(t *testing.T) {
	bus := eventstream.NewBus(nil)
	sub := bus.Subscribe(64)
	e := New(Options{Geo: geoip.Synthetic(), Events: bus})
	decSeed(e, "alice", 30)
	e.Decide("alice", china, decT0)
	e.Decide("alice", china, decT0)
	sub.Close()
	var got []eventstream.Event
	for ev := range sub.Events() {
		got = append(got, ev)
	}
	if len(got) != 2 {
		t.Fatalf("events = %d, want one per Decide (2)", len(got))
	}
	for _, ev := range got {
		if ev.Type != eventstream.TypeRisk || ev.User != "alice" || ev.Addr != china.String() {
			t.Fatalf("event = %+v", ev)
		}
		if ev.Result != "step_up" {
			t.Fatalf("event result = %q, want step_up", ev.Result)
		}
		if !strings.HasPrefix(ev.Detail, "score=") {
			t.Fatalf("event detail = %q", ev.Detail)
		}
	}
}

func TestObserveReplayDeterminism(t *testing.T) {
	// The same event log replayed through two engines yields identical
	// decision sequences — the property the rollout eval's replay
	// regression depends on.
	var log []eventstream.Event
	users := []string{"u1", "u2", "u3"}
	ips := []net.IP{austin, german, china}
	for i := 0; i < 200; i++ {
		res := "accept"
		if i%7 == 0 {
			res = "reject"
		}
		log = append(log, eventstream.Event{
			Time: decT0.Add(time.Duration(i) * 11 * time.Minute), Type: eventstream.TypeLogin,
			User: users[i%len(users)], Addr: fmt.Sprintf("%s:50%03d", ips[(i/3)%3], i), Result: res,
		})
	}
	replay := func() []string {
		e := New(Options{Geo: geoip.Synthetic(), Policy: AdaptivePolicy()})
		var out []string
		for _, ev := range log {
			if d, ok := e.Observe(ev); ok {
				out = append(out, fmt.Sprintf("%s %s %.4f %s", ev.User, d.Outcome, d.Score, d.Detail()))
			}
		}
		return out
	}
	a, b := replay(), replay()
	if len(a) != len(log) {
		t.Fatalf("decisions = %d, want one per login event (%d)", len(a), len(log))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d:\n  %s\n  %s", i, a[i], b[i])
		}
	}
}

func TestObserveIgnoresOwnDecisions(t *testing.T) {
	// The engine's published TypeRisk events must not feed back into the
	// store when it is attached to the same bus it publishes on.
	leakcheck.Check(t)
	bus := eventstream.NewBus(nil)
	e := New(Options{Geo: geoip.Synthetic(), Events: bus})
	e.Attach(bus, 256)
	bus.Publish(eventstream.Event{Time: decT0, Type: eventstream.TypeLogin,
		User: "alice", Addr: "129.114.3.7:50000", Result: "accept"})
	e.Stop()
	if e.Dropped() != 0 {
		t.Fatalf("dropped = %d", e.Dropped())
	}
	f := e.Store().Snapshot("alice", austin, decT0.Add(time.Minute))
	if f.History != 1 {
		t.Fatalf("History = %d, want 1 (decision events must not count as logins)", f.History)
	}
}

func TestOutcomeStrings(t *testing.T) {
	want := map[Outcome]string{
		OutcomeAllow: "allow", OutcomeSkip: "skip",
		OutcomeStepUp: "step_up", OutcomeDeny: "deny",
	}
	for o, s := range want {
		if o.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(o), o.String(), s)
		}
	}
	if s := Outcome(99).String(); s != "Outcome(99)" {
		t.Errorf("unknown outcome = %q", s)
	}
	if len(Outcomes) != outcomeCount {
		t.Fatalf("Outcomes lists %d of %d", len(Outcomes), outcomeCount)
	}
}
