package pam

import (
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"openmfa/internal/eventstream"
	"openmfa/internal/geoip"
	"openmfa/internal/obs"
	"openmfa/internal/racecheck"
	"openmfa/internal/risk"
)

var (
	austinIP = net.ParseIP("129.114.3.7")
	chinaIP  = net.ParseIP("159.226.40.1")
	germanIP = net.ParseIP("141.20.1.2")
)

// riskHarness wires the risk-gated stack over the usual back end; a nil
// opts.Geo takes the synthetic table.
func riskHarness(t *testing.T, aclRules string, opts risk.Options) (*harness, *risk.Engine, *Stack) {
	t.Helper()
	h := newHarness(t, aclRules)
	if opts.Geo == nil {
		opts.Geo = geoip.Synthetic()
	}
	engine := risk.New(opts)
	return h, engine, NewSSHDStack(h.stackConfig(engine))
}

// riskEvents drains sub after closing it, failing on any event that is
// not a risk decision.
func riskEvents(t *testing.T, sub *eventstream.Subscription) []eventstream.Event {
	t.Helper()
	sub.Close()
	var got []eventstream.Event
	for e := range sub.Events() {
		if e.Type != eventstream.TypeRisk {
			t.Fatalf("unexpected event type %q", e.Type)
		}
		got = append(got, e)
	}
	return got
}

// TestRiskGateStackConfig: a nil Risk builds exactly the four Figure 1
// modules; a set Risk puts the gate between the password and the
// exemption. Both stacks admit a correct password + token login.
func TestRiskGateStackConfig(t *testing.T) {
	for _, tc := range []struct {
		name   string
		engine *risk.Engine
		want   []string
	}{
		{"nil risk", nil,
			[]string{"pam_pubkey_success", "pam_password", "pam_mfa_exempt", "pam_mfa_token"}},
		{"risk set", risk.New(risk.Options{Geo: geoip.Synthetic()}),
			[]string{"pam_pubkey_success", "pam_password", "pam_risk_gate", "pam_mfa_exempt", "pam_mfa_token"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, "")
			h.addUser(t, "alice", "pw")
			code := h.pairSoft(t, "alice")
			stack := NewSSHDStack(h.stackConfig(tc.engine))
			var names []string
			for _, e := range stack.Entries {
				names = append(names, e.Module.Name())
			}
			if !reflect.DeepEqual(names, tc.want) {
				t.Fatalf("modules = %v, want %v", names, tc.want)
			}
			c := &conv{answers: []any{"pw", func() string { return code() }}}
			if err := loginVia(t, h, stack, "alice", austinIP, c); err != nil {
				t.Fatalf("login denied: %v", err)
			}
		})
	}
}

func seedHistory(e *risk.Engine, user string, at time.Time) {
	for i := 0; i < 30; i++ {
		e.RecordSuccess(user, austinIP, at.AddDate(0, 0, -30+i))
	}
}

func loginVia(t *testing.T, h *harness, stack *Stack, user string, ip net.IP, c *conv) error {
	t.Helper()
	ctx := &Context{User: user, RemoteAddr: ip, Service: "sshd", Conv: c, Now: h.sim.Now}
	return stack.Authenticate(ctx)
}

func TestRiskGateLowRiskPassesThrough(t *testing.T) {
	h, engine, stack := riskHarness(t, "", risk.Options{})
	h.addUser(t, "alice", "pw")
	code := h.pairSoft(t, "alice")
	seedHistory(engine, "alice", h.sim.Now())
	c := &conv{answers: []any{"pw", func() string { return code() }}}
	if err := loginVia(t, h, stack, "alice", austinIP, c); err != nil {
		t.Fatalf("familiar login denied: %v", err)
	}
}

func TestRiskGateElevatedCancelsExemption(t *testing.T) {
	// A whitelisted user from a brand-new country must still present a
	// token code: the exemption is suppressed for the attempt.
	h, engine, stack := riskHarness(t, "permit : gateway1 : ALL : ALL", risk.Options{})
	h.addUser(t, "gateway1", "pw")
	code := h.pairSoft(t, "gateway1")
	seedHistory(engine, "gateway1", h.sim.Now())

	// From the usual place: exemption applies, no token prompt.
	c1 := &conv{answers: []any{"pw"}}
	if err := loginVia(t, h, stack, "gateway1", austinIP, c1); err != nil {
		t.Fatalf("home login denied: %v", err)
	}
	if c1.sawPrompt("Token") {
		t.Fatal("token prompted from familiar origin")
	}
	// From Germany (new net + new country = elevated): token required.
	c2 := &conv{answers: []any{"pw", func() string { return code() }}}
	if err := loginVia(t, h, stack, "gateway1", germanIP, c2); err != nil {
		t.Fatalf("elevated-risk login with valid token denied: %v", err)
	}
	if !c2.sawPrompt("Token") {
		t.Fatal("exemption not suppressed under elevated risk")
	}
}

func TestRiskGateCriticalDenies(t *testing.T) {
	h, engine, stack := riskHarness(t, "", risk.Options{})
	h.addUser(t, "alice", "pw")
	code := h.pairSoft(t, "alice")
	seedHistory(engine, "alice", h.sim.Now())
	// Impossible travel: success from Austin now, login from China in
	// 30 minutes.
	engine.RecordSuccess("alice", austinIP, h.sim.Now())
	h.sim.Advance(30 * time.Minute)
	c := &conv{answers: []any{"pw", func() string { return code() }}}
	err := loginVia(t, h, stack, "alice", chinaIP, c)
	if !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("impossible travel admitted: %v", err)
	}
	if c.sawPrompt("Token") {
		t.Fatal("critical risk still reached the token module")
	}
	if !c.sawInfo("risk policy") {
		t.Fatalf("no user-facing risk notice: %v", c.infos)
	}
}

func TestRiskGateStepUpPublishesRiskEvent(t *testing.T) {
	// The engine's bus is the alert channel: a German login (new network
	// + new country) publishes exactly one step-up decision.
	bus := eventstream.NewBus(nil)
	sub := bus.Subscribe(64)
	h, engine, stack := riskHarness(t, "", risk.Options{Events: bus})
	h.addUser(t, "alice", "pw")
	h.pairSoft(t, "alice")
	seedHistory(engine, "alice", h.sim.Now())
	c := &conv{answers: []any{"pw", "000000"}}
	loginVia(t, h, stack, "alice", germanIP, c)
	got := riskEvents(t, sub)
	if len(got) != 1 || got[0].User != "alice" || got[0].Result != "step_up" {
		t.Fatalf("risk events = %+v, want one step_up for alice", got)
	}
}

func TestRiskGateAdaptiveSkipSuppressesPrompt(t *testing.T) {
	// With AllowSkip on, a clean attempt from a well-established account
	// ends the stack after the first factor: no token prompt.
	h, engine, stack := riskHarness(t, "", risk.Options{Policy: risk.AdaptivePolicy()})
	h.addUser(t, "alice", "pw")
	code := h.pairSoft(t, "alice")
	seedHistory(engine, "alice", h.sim.Now())

	c := &conv{answers: []any{"pw"}}
	if err := loginVia(t, h, stack, "alice", austinIP, c); err != nil {
		t.Fatalf("established login denied: %v", err)
	}
	if c.sawPrompt("Token") {
		t.Fatal("adaptive skip still prompted for the token")
	}

	// The same account from a novel network does not earn the skip.
	c2 := &conv{answers: []any{"pw", func() string { return code() }}}
	if err := loginVia(t, h, stack, "alice", germanIP, c2); err != nil {
		t.Fatalf("novel-origin login with valid token denied: %v", err)
	}
	if !c2.sawPrompt("Token") {
		t.Fatal("novel origin skipped MFA")
	}
}

func TestRiskGateSkipRequiresHistory(t *testing.T) {
	// A brand-new account scores 0 but must not earn the bypass.
	h, _, stack := riskHarness(t, "", risk.Options{Policy: risk.AdaptivePolicy()})
	h.addUser(t, "newbie", "pw")
	code := h.pairSoft(t, "newbie")
	c := &conv{answers: []any{"pw", func() string { return code() }}}
	if err := loginVia(t, h, stack, "newbie", austinIP, c); err != nil {
		t.Fatalf("new-account login denied: %v", err)
	}
	if !c.sawPrompt("Token") {
		t.Fatal("account without history skipped MFA")
	}
}

func TestRiskGateAttachesDecisionToSpans(t *testing.T) {
	// The gate annotates the per-module span with the decision so the
	// flight recorder's trace view explains why an attempt was denied.
	h, engine, stack := riskHarness(t, "", risk.Options{})
	h.addUser(t, "alice", "pw")
	h.pairSoft(t, "alice")
	seedHistory(engine, "alice", h.sim.Now())
	engine.RecordSuccess("alice", austinIP, h.sim.Now())
	h.sim.Advance(30 * time.Minute)

	spans := obs.NewSpanStore(64)
	trace := obs.NewTraceID()
	ctx := &Context{User: "alice", RemoteAddr: chinaIP, Service: "sshd",
		Conv: &conv{answers: []any{"pw"}}, Now: h.sim.Now,
		Trace: trace, Spans: spans}
	if err := stack.Authenticate(ctx); err == nil {
		t.Fatal("impossible travel admitted")
	}
	attrs := map[string]string{}
	found := false
	for _, sp := range spans.Trace(trace) {
		if sp.Name == "pam.pam_risk_gate" {
			found = true
			for _, a := range sp.Attrs {
				attrs[a.Key] = a.Value
			}
		}
	}
	if !found {
		t.Fatal("no risk gate span recorded")
	}
	if attrs["risk.outcome"] != "deny" {
		t.Fatalf("span outcome = %q, want deny (attrs %v)", attrs["risk.outcome"], attrs)
	}
	if attrs["risk.score"] == "" || attrs["risk.reasons"] == "" {
		t.Fatalf("span missing score/reasons: %v", attrs)
	}
}

func TestRiskGatePublishesOneDecisionPerAttempt(t *testing.T) {
	// Exactly one TypeRisk event per stack run, even when the stack
	// continues through exemption and token modules.
	bus := eventstream.NewBus(nil)
	sub := bus.Subscribe(64)
	h, engine, stack := riskHarness(t, "", risk.Options{Events: bus})
	h.addUser(t, "alice", "pw")
	code := h.pairSoft(t, "alice")
	seedHistory(engine, "alice", h.sim.Now())

	for i := 0; i < 3; i++ {
		c := &conv{answers: []any{"pw", func() string { return code() }}}
		if err := loginVia(t, h, stack, "alice", austinIP, c); err != nil {
			t.Fatalf("login %d: %v", i, err)
		}
		h.sim.Advance(time.Minute)
	}
	got := riskEvents(t, sub)
	for _, e := range got {
		if e.User != "alice" || e.Result != "allow" {
			t.Fatalf("decision event = %+v", e)
		}
	}
	if len(got) != 3 {
		t.Fatalf("decision events = %d, want 3", len(got))
	}
}

// TestRiskGateAllocs gates the risk gate's cost on the Figure 1 login hot
// path (password + exemption, the path every exempt user rides), counted
// in allocations per login: the gated stack allocates exactly what the
// gateless one does, because Decide is allocation-free. A gate that gains
// one allocation fails here; BenchmarkRiskGatedLogin reports the time.
func TestRiskGateAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("alloc-count assertions are meaningless under -race")
	}
	h := newHarness(t, "permit : bench : ALL : ALL")
	h.addUser(t, "bench", "pw")
	cfg := h.stackConfig(nil)
	base := NewSSHDStack(cfg)
	cfg.Risk = risk.New(risk.Options{Geo: geoip.Synthetic()})
	seedHistory(cfg.Risk, "bench", h.sim.Now())
	gated := NewSSHDStack(cfg)
	allocs := func(stack *Stack) float64 {
		login := func() {
			ctx := &Context{User: "bench", RemoteAddr: austinIP, Service: "sshd",
				Conv: &conv{answers: []any{"pw"}}, Now: h.sim.Now}
			if err := stack.Authenticate(ctx); err != nil {
				t.Fatalf("login: %v", err)
			}
		}
		login() // warm the password verify cache
		return testing.AllocsPerRun(200, login)
	}
	off, on := allocs(base), allocs(gated)
	if on != off {
		t.Errorf("risk gate changes a password+exemption login from %.0f to %.0f allocs, want no change", off, on)
	}
}

func TestRiskGateRunsAfterFirstFactor(t *testing.T) {
	// The gate must not fire for attempts that fail the password: the
	// stack is requisite-ordered, password first.
	bus := eventstream.NewBus(nil)
	sub := bus.Subscribe(64)
	h, engine, stack := riskHarness(t, "", risk.Options{Events: bus})
	h.addUser(t, "alice", "pw")
	seedHistory(engine, "alice", h.sim.Now())
	c := &conv{answers: []any{"wrong-password"}}
	if err := loginVia(t, h, stack, "alice", chinaIP, c); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("err = %v", err)
	}
	if got := riskEvents(t, sub); len(got) != 0 {
		t.Fatalf("risk gate evaluated before the first factor succeeded: %+v", got)
	}
}
