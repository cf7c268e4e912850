package slo

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"openmfa/internal/clock"
	"openmfa/internal/leakcheck"
	"openmfa/internal/obs"
)

var t0 = time.Date(2016, 10, 4, 8, 0, 0, 0, time.UTC)

func newEngine(t *testing.T, reg *obs.Registry, sim *clock.Sim) (*Engine, *obs.Counter, *obs.Counter) {
	t.Helper()
	good := reg.Counter("logins_good_total")
	total := reg.Counter("logins_total")
	e := New(Config{Obs: reg, Clock: sim})
	if err := e.Add(Objective{
		Name:   "logins",
		Target: 0.995,
		Window: 30 * 24 * time.Hour,
		Source: CounterSource{Good: good, Total: total},
	}); err != nil {
		t.Fatal(err)
	}
	return e, good, total
}

func TestHealthyTrafficBurnsNothing(t *testing.T) {
	reg := obs.NewRegistry()
	sim := clock.NewSim(t0)
	e, good, total := newEngine(t, reg, sim)

	for i := 0; i < 1000; i++ {
		good.Inc()
		total.Inc()
	}
	sim.Advance(time.Minute)
	e.Evaluate()

	if err := e.Health(); err != nil {
		t.Fatalf("healthy traffic degraded health: %v", err)
	}
	if v := reg.Gauge("slo_burn_rate", "slo", "logins", "window", "5m").Value(); v != 0 {
		t.Errorf("burn(5m) = %v, want 0", v)
	}
	if v := reg.Gauge("slo_budget_remaining", "slo", "logins").Value(); v != 1 {
		t.Errorf("budget remaining = %v, want 1", v)
	}
}

func TestFailureBurstFiresFastBurnWithinOneTick(t *testing.T) {
	reg := obs.NewRegistry()
	sim := clock.NewSim(t0)
	e, good, total := newEngine(t, reg, sim)

	// A burst of pure failures: error rate 1.0, burn = 1/0.005 = 200,
	// far above the fast pair's 14.4 on both the 5m and 1h windows.
	total.Add(200)
	_ = good
	sim.Advance(30 * time.Second)
	e.Evaluate()

	if v := reg.Gauge("slo_burn_rate", "slo", "logins", "window", "5m").Value(); v < 14.4 {
		t.Errorf("burn(5m) = %v, want > 14.4", v)
	}
	if v := reg.Gauge("slo_alert_active", "slo", "logins", "severity", "page").Value(); v != 1 {
		t.Errorf("page alert gauge = %v, want 1", v)
	}
	err := e.Health()
	if err == nil || !strings.Contains(err.Error(), "logins") {
		t.Fatalf("Health() = %v, want fast-burn error naming the objective", err)
	}

	// Recovery: a long healthy stretch slides the burst out of both fast
	// windows and the alert clears.
	for i := 0; i < 12*60; i++ {
		sim.Advance(time.Minute)
		good.Add(50)
		total.Add(50)
		e.Evaluate()
	}
	if err := e.Health(); err != nil {
		t.Fatalf("alert did not clear after recovery: %v", err)
	}
}

func TestSlowWindowPairNeedsSustainedBurn(t *testing.T) {
	reg := obs.NewRegistry()
	sim := clock.NewSim(t0)
	e, good, total := newEngine(t, reg, sim)

	// Sustained 1% error rate = burn 2 over every window: above the slow
	// pair's threshold of 1, below the fast pair's 14.4.
	for i := 0; i < 4*24; i++ { // 4 days hourly
		sim.Advance(time.Hour)
		good.Add(990)
		total.Add(1000)
		e.Evaluate()
	}
	if v := reg.Gauge("slo_alert_active", "slo", "logins", "severity", "ticket").Value(); v != 1 {
		t.Errorf("ticket alert = %v, want 1 under sustained 2x burn", v)
	}
	if v := reg.Gauge("slo_alert_active", "slo", "logins", "severity", "page").Value(); v != 0 {
		t.Errorf("page alert = %v, want 0 (burn 2 < 14.4)", v)
	}
	// Ticket severity must not degrade health.
	if err := e.Health(); err != nil {
		t.Errorf("ticket alert degraded health: %v", err)
	}
	// Burning at 2x for the whole retained history overspends the budget:
	// remaining = 1 - 2 = -1.
	left := reg.Gauge("slo_budget_remaining", "slo", "logins").Value()
	if left > -0.9 || left < -1.1 {
		t.Errorf("budget remaining = %v, want ~-1 after sustained 2x burn", left)
	}
}

func TestHistogramSourceQuantisesThreshold(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("lat_seconds", []float64{0.1, 0.75, 2}, "k", "v")
	for _, v := range []float64{0.05, 0.5, 1.5, 3} {
		h.Observe(v)
	}
	good, total := HistogramSource{H: h, Threshold: 0.75}.Counts()
	if good != 2 || total != 4 {
		t.Errorf("HistogramSource = (%v, %v), want (2, 4)", good, total)
	}
	mg, mt := MultiSource{
		HistogramSource{H: h, Threshold: 0.75},
		HistogramSource{H: h, Threshold: 2},
	}.Counts()
	if mg != 5 || mt != 8 {
		t.Errorf("MultiSource = (%v, %v), want (5, 8)", mg, mt)
	}
}

func TestFamilySourceTracksNewSeries(t *testing.T) {
	reg := obs.NewRegistry()
	src := FamilySource{
		Reg: reg, Family: "http_total",
		Good: func(labels string) bool { return !strings.Contains(labels, `code="5`) },
	}
	if g, tot := src.Counts(); g != 0 || tot != 0 {
		t.Fatalf("empty family = (%v, %v)", g, tot)
	}
	reg.Counter("http_total", "route", "/a", "code", "200").Add(8)
	reg.Counter("http_total", "route", "/a", "code", "500").Add(2)
	if g, tot := src.Counts(); g != 8 || tot != 10 {
		t.Errorf("Counts = (%v, %v), want (8, 10)", g, tot)
	}
	// A series appearing later is picked up without re-registration.
	reg.Counter("http_total", "route", "/b", "code", "503").Inc()
	if g, tot := src.Counts(); g != 8 || tot != 11 {
		t.Errorf("Counts after new series = (%v, %v), want (8, 11)", g, tot)
	}
}

func TestSampleHistoryStaysBounded(t *testing.T) {
	reg := obs.NewRegistry()
	sim := clock.NewSim(t0)
	good := reg.Counter("g")
	total := reg.Counter("t")
	e := New(Config{Obs: reg, Clock: sim})
	e.maxSamples = 64
	if err := e.Add(Objective{Name: "x", Target: 0.99, Source: CounterSource{Good: good, Total: total}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		sim.Advance(time.Second)
		good.Inc()
		total.Inc()
		e.Evaluate()
	}
	st := e.Status()[0]
	if st.Samples > 64 {
		t.Errorf("history holds %d samples, cap 64", st.Samples)
	}
	if st.BudgetRemaining != 1 {
		t.Errorf("budget = %v, want 1 on perfect traffic", st.BudgetRemaining)
	}
}

func TestEngineValidation(t *testing.T) {
	e := New(Config{})
	src := CounterSource{}
	if err := e.Add(Objective{Name: "", Source: src, Target: 0.9}); err == nil {
		t.Error("empty name accepted")
	}
	if err := e.Add(Objective{Name: "x", Source: nil, Target: 0.9}); err == nil {
		t.Error("nil source accepted")
	}
	if err := e.Add(Objective{Name: "x", Source: src, Target: 1.5}); err == nil {
		t.Error("target > 1 accepted")
	}
	if err := e.Add(Objective{Name: "x", Source: src, Target: 0.9}); err != nil {
		t.Errorf("valid objective rejected: %v", err)
	}
	if err := e.Add(Objective{Name: "x", Source: src, Target: 0.9}); err == nil {
		t.Error("duplicate objective accepted")
	}
	var nilE *Engine
	nilE.Evaluate()
	nilE.Stop()
	if nilE.Health() != nil {
		t.Error("nil engine unhealthy")
	}
}

func TestStartStopLeakFree(t *testing.T) {
	leakcheck.Check(t)
	reg := obs.NewRegistry()
	e, good, total := newEngine(t, reg, clock.NewSim(t0))
	good.Inc()
	total.Inc()
	e.Start(time.Millisecond)
	time.Sleep(5 * time.Millisecond)
	e.Stop()
	e.Stop()
}

func TestHandlerAndSpecParsing(t *testing.T) {
	reg := obs.NewRegistry()
	sim := clock.NewSim(t0)
	e, good, total := newEngine(t, reg, sim)
	good.Add(10)
	total.Add(10)
	sim.Advance(time.Minute)
	e.Evaluate()

	rr := httptest.NewRecorder()
	e.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/slo", nil))
	var status []ObjectiveStatus
	if err := json.Unmarshal(rr.Body.Bytes(), &status); err != nil {
		t.Fatalf("/debug/slo not JSON: %v\n%s", err, rr.Body.String())
	}
	if len(status) != 1 || status[0].Name != "logins" || len(status[0].Burn) != 4 {
		t.Fatalf("unexpected status: %+v", status)
	}

	spec, err := ParseSpec("logins:99.5%<750ms/30d")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "logins" || spec.Target != 0.995 ||
		spec.Threshold != 750*time.Millisecond || spec.Window != 30*24*time.Hour {
		t.Errorf("ParseSpec = %+v", spec)
	}
	for _, bad := range []string{"", "x", "x:99%<1s", "x:0%<1s/30d", "x:99.5%<banana/30d", "x:99.5%<1s/0d"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
	var list SpecList
	if err := list.Set("a:99%<1s/7d"); err != nil {
		t.Fatal(err)
	}
	if list.String() != "a" {
		t.Errorf("SpecList.String() = %q", list.String())
	}
}
