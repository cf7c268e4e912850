package core

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"openmfa/internal/clock"
	"openmfa/internal/eventstream"
	"openmfa/internal/faultnet"
	"openmfa/internal/flightrec"
	"openmfa/internal/idm"
	"openmfa/internal/leakcheck"
	"openmfa/internal/obs"
	"openmfa/internal/obs/slo"
	"openmfa/internal/ops"
	"openmfa/internal/otp"
	"openmfa/internal/risk"
	"openmfa/internal/sshd"
	"openmfa/internal/store"
	"openmfa/internal/store/repl"
)

// settleFlightrec waits until the recorder has decided (kept or dropped)
// `want` completed traces. The recorder drains the bus asynchronously, so
// tests poll its counters rather than sleeping blind.
func settleFlightrec(t *testing.T, reg *obs.Registry, want int) {
	t.Helper()
	decided := func() int {
		n := int(reg.Counter("flightrec_bundles_dropped_total").Value())
		for _, r := range []string{"failed", "slow", "lockout", "alert", "sampled"} {
			n += int(reg.Counter("flightrec_bundles_kept_total", "reason", r).Value())
		}
		return n
	}
	deadline := time.Now().Add(5 * time.Second)
	for decided() < want {
		if time.Now().After(deadline) {
			t.Fatalf("flight recorder decided %d traces, want %d", decided(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// loginOnce drives one full sshd login. wrongCode forces a rejection by
// answering the token prompt with a code that can never validate.
func loginOnce(inf *Infrastructure, sim *clock.Sim, user string, secret []byte, wrongCode bool) error {
	r := &sshd.FuncResponder{}
	r.Fn = func(echo bool, prompt string) (string, error) {
		if strings.Contains(prompt, "Password") {
			return "pw", nil
		}
		if wrongCode {
			return "000000", nil
		}
		code, _ := otp.TOTP(secret, sim.Now(), inf.OTP.OTPOptions())
		return code, nil
	}
	c, err := sshd.Dial(inf.SSHAddr(), DialOpts(user, r))
	if err != nil {
		return err
	}
	return c.Close()
}

// TestFlightRecorderUnderChaosStorm is the acceptance test for the flight
// recorder tentpole: under a faultnet storm (drops + duplicated
// datagrams) every failed login must be retrievable by trace ID from the
// persisted segments with a complete four-leg span tree, its captured log
// lines, and the same bundle served over /debug/flightrec — and the
// segments must still read back after the recorder shuts down.
func TestFlightRecorderUnderChaosStorm(t *testing.T) {
	leakcheck.Check(t)
	reg := obs.NewRegistry()
	logs := &syncBuf{}
	tee := flightrec.NewLogTee(logs, 0, 0)
	spans := obs.NewSpanStore(4096)
	bus := eventstream.NewBus(reg)
	dir := t.TempDir()

	rec, err := flightrec.New(flightrec.Config{
		Dir: dir, Bus: bus, Spans: spans, Logs: tee, Obs: reg,
		// SampleRate 0: only the always-keep classes survive, so the
		// storm's rejects are exactly what lands on disk.
		Policy: flightrec.Policy{SampleRate: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Stop()

	chaos := faultnet.New(faultnet.Config{
		Seed:     7,
		Obs:      reg,
		DropRate: 0.25,
		DupRate:  1.0, // every surviving datagram sent twice
	})
	inf := newInfra(t, Options{
		Obs:            reg,
		Logger:         obs.NewLogger(tee, obs.LevelInfo),
		Spans:          spans,
		Events:         bus,
		FlightRec:      rec,
		FaultNet:       chaos,
		RadiusServers:  2,
		RadiusTimeout:  250 * time.Millisecond,
		RadiusRetries:  5,
		SSHAuthTimeout: 30 * time.Second,
	})
	sim := inf.Clock.(*clock.Sim)

	const users = 6
	failedUsers := map[string]bool{}
	for i := 0; i < users; i++ {
		name := fmt.Sprintf("storm%d", i)
		if _, err := inf.CreateUser(name, name+"@x", "pw", idm.ClassUser); err != nil {
			t.Fatal(err)
		}
		enr, err := inf.PairSoft(name)
		if err != nil {
			t.Fatal(err)
		}
		// One clean login and one wrong-code login per user, driven
		// sequentially so the storm stays deterministic per seed.
		if err := loginOnce(inf, sim, name, enr.Secret, false); err != nil {
			t.Fatalf("good login %s: %v", name, err)
		}
		if err := loginOnce(inf, sim, name, enr.Secret, true); err == nil {
			t.Fatalf("wrong code accepted for %s", name)
		}
		failedUsers[name] = true
		sim.Advance(time.Second)
	}
	settleFlightrec(t, reg, 2*users)

	// Every reject was kept; every success was dropped (sample rate 0).
	fails := rec.List(flightrec.Query{Class: "failed"})
	if len(fails) != users {
		t.Fatalf("failed bundles = %d, want %d: %+v", len(fails), users, fails)
	}
	if n := rec.Len(); n != users {
		t.Errorf("persisted bundles = %d, want %d", n, users)
	}
	for _, s := range fails {
		if !failedUsers[s.User] {
			t.Errorf("unexpected failed-bundle user %q", s.User)
		}
		b, err := rec.Get(s.Trace)
		if err != nil {
			t.Fatalf("Get(%s): %v", s.Trace, err)
		}
		if b.Result != "reject" || b.Reason != flightrec.ReasonFailed {
			t.Errorf("trace %s: result=%q reason=%q", s.Trace, b.Result, b.Reason)
		}
		if b.Truncated {
			t.Errorf("trace %s: span tree truncated", s.Trace)
		}
		// All four legs of the login survive in the persisted bundle.
		legs := map[string]bool{}
		for _, sp := range b.Spans {
			legs[sp.Name] = true
		}
		for _, leg := range []string{
			"sshd.conversation", "pam.pam_mfa_token", "radius.rtt", "otpd.check",
		} {
			if !legs[leg] {
				t.Errorf("trace %s: missing span leg %q (got %d spans)", s.Trace, leg, len(b.Spans))
			}
		}
		// The tee routed this trace's log lines into the bundle.
		if joined := strings.Join(b.Logs, "\n"); !strings.Contains(joined, s.Trace) {
			t.Errorf("trace %s: bundle logs do not mention the trace:\n%s", s.Trace, joined)
		}
	}

	// The same bundles serve over the portal's ops mux, as JSON and as
	// the ASCII tree.
	resp, err := http.Get(inf.PortalURL() + "/debug/flightrec?class=failed")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var page struct {
		Bundles []flightrec.Summary `json:"bundles"`
	}
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatalf("/debug/flightrec not JSON: %v\n%s", err, body)
	}
	listed := page.Bundles
	if len(listed) != users {
		t.Fatalf("/debug/flightrec?class=failed = %d bundles, want %d", len(listed), users)
	}
	resp, err = http.Get(inf.PortalURL() + "/debug/flightrec?trace=" + listed[0].Trace + "&format=tree")
	if err != nil {
		t.Fatal(err)
	}
	tree, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"sshd.conversation", "otpd.check", listed[0].Trace} {
		if !strings.Contains(string(tree), want) {
			t.Errorf("tree view missing %q:\n%s", want, tree)
		}
	}

	// Shut the recorder down and read the segments back cold: the failed
	// traces are all on disk, committed.
	rec.Stop()
	cold, err := flightrec.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	onDisk := map[string]bool{}
	for _, b := range cold {
		onDisk[b.Trace] = true
	}
	for _, s := range fails {
		if !onDisk[s.Trace] {
			t.Errorf("trace %s not in cold segment read", s.Trace)
		}
	}
}

// TestSuccessSamplingReproducibleAcrossRuns runs the identical login
// schedule through two fresh stacks with identically seeded sim clocks
// and asserts the tail-sampler keeps the same successes both times. Trace
// IDs are crypto-random and differ between runs; the sampling key (user +
// event time) is what must reproduce.
func TestSuccessSamplingReproducibleAcrossRuns(t *testing.T) {
	leakcheck.Check(t)
	const users = 24
	run := func() []string {
		reg := obs.NewRegistry()
		spans := obs.NewSpanStore(4096)
		bus := eventstream.NewBus(reg)
		rec, err := flightrec.New(flightrec.Config{
			Dir: t.TempDir(), Bus: bus, Spans: spans, Obs: reg,
			Policy: flightrec.Policy{SampleRate: 0.35},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer rec.Stop()
		inf := newInfra(t, Options{
			Obs: reg, Spans: spans, Events: bus, FlightRec: rec,
		})
		sim := inf.Clock.(*clock.Sim)
		for i := 0; i < users; i++ {
			name := fmt.Sprintf("sample%02d", i)
			if _, err := inf.CreateUser(name, name+"@x", "pw", idm.ClassUser); err != nil {
				t.Fatal(err)
			}
			enr, err := inf.PairSoft(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := loginOnce(inf, sim, name, enr.Secret, false); err != nil {
				t.Fatalf("login %s: %v", name, err)
			}
			sim.Advance(time.Second)
		}
		settleFlightrec(t, reg, users)
		var kept []string
		for _, s := range rec.List(flightrec.Query{Class: "sampled"}) {
			kept = append(kept, s.User)
		}
		sort.Strings(kept)
		return kept
	}

	first := run()
	second := run()
	if len(first) == 0 || len(first) == users {
		t.Fatalf("sample kept %d of %d successes; want a proper subset", len(first), users)
	}
	if strings.Join(first, ",") != strings.Join(second, ",") {
		t.Fatalf("sample not reproducible:\n run 1: %v\n run 2: %v", first, second)
	}
}

// TestFailureBurstBurnsSLOAndDegradesHealthz is the acceptance test for
// the SLO engine: a synthetic burst of rejects drives slo_burn_rate over
// the fast-window threshold and flips the portal's /healthz to 503 within
// a single evaluation tick; /debug/slo reports the overspent objective.
func TestFailureBurstBurnsSLOAndDegradesHealthz(t *testing.T) {
	leakcheck.Check(t)
	reg := obs.NewRegistry()
	sim := clock.NewSim(t0)

	// Availability objective over the sshd decision counters: 99.5% of
	// logins accepted, 30-day window. FamilySource follows the result
	// label series as they appear.
	eng := slo.New(slo.Config{Obs: reg, Clock: sim})
	if err := eng.Add(slo.Objective{
		Name:        "logins",
		Description: "sshd accepts / all decisions",
		Target:      0.995,
		Window:      30 * 24 * time.Hour,
		Source: slo.FamilySource{
			Reg: reg, Family: "sshd_auth_total",
			Good: func(labels string) bool {
				return strings.Contains(labels, `result="accept"`)
			},
		},
	}); err != nil {
		t.Fatal(err)
	}

	inf := newInfra(t, Options{Clock: sim, Obs: reg, SLO: eng})
	healthz := func() int {
		resp, err := http.Get(inf.PortalURL() + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// Healthy baseline: clean logins burn nothing.
	if _, err := inf.CreateUser("good", "g@x", "pw", idm.ClassUser); err != nil {
		t.Fatal(err)
	}
	enr, err := inf.PairSoft("good")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := loginOnce(inf, sim, "good", enr.Secret, false); err != nil {
			t.Fatalf("baseline login: %v", err)
		}
		sim.Advance(45 * time.Second) // step past TOTP replay protection
	}
	eng.Evaluate()
	if code := healthz(); code != http.StatusOK {
		t.Fatalf("/healthz = %d before the burst, want 200", code)
	}

	// The burst: 20 rejects across several accounts (each stays well
	// under the otpd lockout threshold).
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("burst%d", i)
		if _, err := inf.CreateUser(name, name+"@x", "pw", idm.ClassUser); err != nil {
			t.Fatal(err)
		}
		enr, err := inf.PairSoft(name)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 4; j++ {
			if err := loginOnce(inf, sim, name, enr.Secret, true); err == nil {
				t.Fatalf("wrong code accepted for %s", name)
			}
		}
	}
	sim.Advance(30 * time.Second)
	eng.Evaluate() // ONE tick: the burst must already page

	if v := reg.Gauge("slo_burn_rate", "slo", "logins", "window", "5m").Value(); v <= 14.4 {
		t.Errorf("burn(5m) = %v, want > 14.4 after the burst", v)
	}
	if v := reg.Gauge("slo_alert_active", "slo", "logins", "severity", "page").Value(); v != 1 {
		t.Errorf("page alert gauge = %v, want 1", v)
	}
	if code := healthz(); code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz = %d after the burst, want 503 within one tick", code)
	}

	// The portal serves the objective's status with the burn windows.
	resp, err := http.Get(inf.PortalURL() + "/debug/slo")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var status []slo.ObjectiveStatus
	if err := json.Unmarshal(body, &status); err != nil {
		t.Fatalf("/debug/slo not JSON: %v\n%s", err, body)
	}
	if len(status) != 1 || status[0].Name != "logins" || len(status[0].Burn) != 4 {
		t.Fatalf("unexpected /debug/slo status: %s", body)
	}
}

// opsKit starts the ops chain exactly as the daemons do (internal/ops,
// recorder and profiler on, real clock) with a "logins" availability
// objective over sshd decisions, and returns it with the Options that hand
// its parts to the stack.
func opsKit(t *testing.T) (*ops.Kit, Options) {
	t.Helper()
	reg := obs.NewRegistry()
	kit, err := ops.Start(&ops.Flags{
		SLOs:      slo.SpecList{{Name: "logins", Target: 0.995, Threshold: ops.SlowThreshold, Window: slo.DefaultBudgetWindow}},
		FlightDir: t.TempDir(),
		ProfDir:   t.TempDir(),
	}, ops.Config{Reg: reg, SLI: slo.FamilySource{Reg: reg, Family: "sshd_auth_total",
		Good: func(l string) bool { return strings.Contains(l, `result="accept"`) }}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(kit.Stop)
	return kit, Options{Obs: reg, Spans: kit.Spans, Events: kit.Bus, Watch: kit.Watch,
		FlightRec: kit.FlightRec, SLO: kit.SLO, Prof: kit.Prof}
}

// TestHealthzListsEachCauseOnce wires the portal as the daemons do: the
// watcher's health folds in the SLO engine's, and both are health checks.
// An SLO fast burn with no authwatch alert fails both checks with the same
// message; /healthz must name that one cause on one check line.
func TestHealthzListsEachCauseOnce(t *testing.T) {
	leakcheck.Check(t)
	kit, opts := opsKit(t)
	inf := newInfra(t, opts)
	kit.SLO.Evaluate() // baseline sample: nothing decided yet
	// Rejected decisions straight onto the SLI counter: a burn the
	// authwatch rules, which read the event bus, never see.
	kit.Reg.Counter("sshd_auth_total", "result", "reject").Add(20)
	kit.SLO.Evaluate()
	if kit.SLO.Health() == nil || kit.Watch.Health() == nil {
		t.Fatal("the burn did not fail both the SLO and the watcher health checks")
	}

	resp, err := http.Get(inf.PortalURL() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz = %d, want 503:\n%s", resp.StatusCode, body)
	}
	var checks []string
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "check: ") {
			checks = append(checks, line)
		}
	}
	if len(checks) != 1 || !strings.HasPrefix(checks[0], "check: slo: fast burn on logins") {
		t.Fatalf("/healthz check lines = %q, want the one SLO burn once", checks)
	}
}

// TestPortalMetricsExpositionIsLintClean fetches the live portal /metrics
// page — with every family the daemons' ops kit registers (runtime
// telemetry, SLO gauges, authwatch, flight recorder, profiler) — and runs
// the exposition linter over it: families must be typed, sorted,
// consistently labelled, and suffixed per convention.
func TestPortalMetricsExpositionIsLintClean(t *testing.T) {
	leakcheck.Check(t)
	kit, opts := opsKit(t)
	reg, bus, eng := kit.Reg, kit.Bus, kit.SLO
	kit.Prof.CaptureOnce()
	// The adaptive-MFA engine on the same registry puts the risk_* families
	// (gate decisions, reasons, feature-store occupancy, assess latency)
	// under the linter: wiring it into Options.Risk makes the sshd stack
	// run the gate on the login below.
	riskEng := risk.New(risk.Options{Policy: risk.AdaptivePolicy(), Obs: reg, Events: bus})
	// A replication leader with a live follower on the same registry puts
	// every repl_* family (both ends) under the linter too.
	opts.Risk, opts.ReplListen = riskEng, "127.0.0.1:0"
	inf := newInfra(t, opts)
	sim := inf.Clock.(*clock.Sim)
	standby := store.OpenMemory()
	defer standby.Close()
	follower, err := repl.StartFollower(standby, repl.FollowerOptions{
		Addr: inf.ReplLeader.Addr(), Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Stop()

	if _, err := inf.CreateUser("lint", "l@x", "pw", idm.ClassUser); err != nil {
		t.Fatal(err)
	}
	enr, err := inf.PairSoft("lint")
	if err != nil {
		t.Fatal(err)
	}
	if err := loginOnce(inf, sim, "lint", enr.Secret, false); err != nil {
		t.Fatal(err)
	}
	settleFlightrec(t, reg, 1)
	eng.Evaluate()

	resp, err := http.Get(inf.PortalURL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	page, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if errs := obs.LintExposition(strings.NewReader(string(page)), obs.ConventionFamilies()...); len(errs) != 0 {
		for _, e := range errs {
			t.Errorf("exposition lint: %v", e)
		}
	}
	// The replication families (leader side — including the new commit
	// LSN and follower-lag gauges — and follower side) and the profiler
	// families really were on the linted page.
	for _, fam := range []string{"repl_followers", "repl_epoch", "repl_frames_shipped_total",
		"repl_frames_applied_total", "repl_lag_lsns", "repl_commit_lsn", "repl_follower_lag_lsns",
		"prof_captures_total", "prof_ring_captures", "authwatch_alert_active", "slo_burn_rate",
		"flightrec_bundles_dropped_total", "go_goroutines",
		"risk_decisions_total", "risk_reasons_total", "risk_feature_users",
		"risk_feature_evictions_total", "risk_assess_duration_seconds"} {
		if !strings.Contains(string(page), fam) {
			t.Errorf("lint page missing %s family", fam)
		}
	}
}
