package core

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"openmfa/internal/clock"
	"openmfa/internal/eventstream"
	"openmfa/internal/flightrec"
	"openmfa/internal/idm"
	"openmfa/internal/leakcheck"
	"openmfa/internal/obs"
	"openmfa/internal/obs/prof"
	"openmfa/internal/obs/slo"
)

// profStack is the diagnostics wiring for the black-box test that needs
// a simulated clock and a short CPU window, which the daemons' kit
// (internal/ops, see opsKit) deliberately has no parameter for: SLO
// engine over sshd decisions, a flight recorder keeping failed logins,
// and a prof engine with the kit's slo_fast_burn trigger and TraceIDs feed.
func profStack(t *testing.T, profDir string) (*Infrastructure, *clock.Sim, *obs.Registry, *slo.Engine, *flightrec.Recorder, *prof.Engine) {
	t.Helper()
	reg := obs.NewRegistry()
	sim := clock.NewSim(t0)
	spans := obs.NewSpanStore(4096)
	bus := eventstream.NewBus(reg)
	rec, err := flightrec.New(flightrec.Config{
		Dir: t.TempDir(), Bus: bus, Spans: spans, Obs: reg,
		Policy: flightrec.Policy{SampleRate: 0}, // only failures persist
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rec.Stop)

	eng := slo.New(slo.Config{Obs: reg, Clock: sim})
	if err := eng.Add(slo.Objective{
		Name: "logins", Target: 0.995, Window: 30 * 24 * time.Hour,
		Source: slo.FamilySource{
			Reg: reg, Family: "sshd_auth_total",
			Good: func(labels string) bool {
				return strings.Contains(labels, `result="accept"`)
			},
		},
	}); err != nil {
		t.Fatal(err)
	}

	profEng, err := prof.New(prof.Config{
		Dir: profDir, Obs: reg, Clock: sim,
		CPUDuration: 5 * time.Millisecond, Retention: 4, Debounce: 10 * time.Minute,
		TraceIDs: func(n int) []string {
			var ids []string
			for _, s := range rec.List(flightrec.Query{Limit: n}) {
				ids = append(ids, s.Trace)
			}
			return ids
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(profEng.Stop)
	profEng.AddTrigger("slo_fast_burn", prof.HealthTrigger(eng.Health))

	inf := newInfra(t, Options{
		Clock: sim, Obs: reg, SLO: eng, Spans: spans, Events: bus,
		FlightRec: rec, Prof: profEng,
	})
	return inf, sim, reg, eng, rec, profEng
}

// TestLoginStormTripsOneIncidentBundle is the capstone acceptance test
// for the black box: a login storm trips the SLO fast-burn trigger and
// exactly one debounced incident bundle lands on disk, carrying a
// non-empty CPU delta profile, a goroutine dump, the metrics snapshot,
// and the storm's flight-recorder trace IDs; the bundle is readable over
// /debug/prof and offline, and a torn segment tail never yields a
// partial bundle.
func TestLoginStormTripsOneIncidentBundle(t *testing.T) {
	leakcheck.Check(t)
	profDir := t.TempDir()
	inf, sim, reg, eng, rec, profEng := profStack(t, profDir)

	// Healthy baseline: a capture in the ring and no incident to report.
	profEng.CaptureOnce()
	profEng.Evaluate()
	if got := profEng.List(); len(got) != 0 {
		t.Fatalf("incidents before the storm: %+v", got)
	}

	// The storm: 20 rejects across 5 accounts (each stays under the otpd
	// lockout threshold), then one SLO tick trips the fast-burn page.
	const stormUsers = 5
	for i := 0; i < stormUsers; i++ {
		name := fmt.Sprintf("storm%d", i)
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
	settleFlightrec(t, reg, 4*stormUsers)
	sim.Advance(30 * time.Second)
	eng.Evaluate()
	if eng.Health() == nil {
		t.Fatal("SLO fast burn did not page after the storm")
	}

	// The sampler would evaluate every period; three ticks' worth of
	// evaluations must still collapse to ONE bundle under debounce.
	for i := 0; i < 3; i++ {
		profEng.Evaluate()
	}
	sums := profEng.List()
	if len(sums) != 1 {
		t.Fatalf("incidents after the storm = %d, want exactly 1: %+v", len(sums), sums)
	}
	if v := reg.Counter("prof_incidents_suppressed_total").Value(); v != 2 {
		t.Errorf("suppressed = %v, want 2", v)
	}
	inc, err := profEng.Get(sums[0].ID)
	if err != nil || inc == nil {
		t.Fatalf("Get(%s): %v, %v", sums[0].ID, inc, err)
	}
	if inc.Trigger != "slo_fast_burn" {
		t.Errorf("trigger = %q, want slo_fast_burn", inc.Trigger)
	}
	if !strings.Contains(inc.Detail, "logins") {
		t.Errorf("detail does not name the burning SLO: %q", inc.Detail)
	}
	// The frozen ring ends with a fire-time capture holding a real
	// (gzip-framed) CPU delta profile.
	if len(inc.Captures) < 2 {
		t.Fatalf("captures = %d, want baseline + fire-time", len(inc.Captures))
	}
	cpu := inc.Captures[len(inc.Captures)-1].Profiles["cpu"]
	if len(cpu) < 2 || cpu[0] != 0x1f || cpu[1] != 0x8b {
		t.Errorf("fire-time CPU profile missing or not gzip (%d bytes)", len(cpu))
	}
	if !strings.Contains(inc.Goroutines, "goroutine") {
		t.Error("bundle has no goroutine dump")
	}
	if !strings.Contains(inc.Metrics, "sshd_auth_total") {
		t.Error("metrics snapshot does not include the burned family")
	}
	if inc.Runtime.NumGoroutine <= 0 {
		t.Errorf("runtime stats not populated: %+v", inc.Runtime)
	}
	// Every embedded trace ID resolves to a persisted failed login.
	if len(inc.TraceIDs) == 0 {
		t.Fatal("bundle carries no flight-recorder trace IDs")
	}
	failed := map[string]bool{}
	for _, s := range rec.List(flightrec.Query{Class: "failed"}) {
		failed[s.Trace] = true
	}
	for _, id := range inc.TraceIDs {
		if !failed[id] {
			t.Errorf("trace %s in bundle is not a failed-login bundle", id)
		}
	}

	// The same bundle serves over the portal's ops mux.
	var page struct {
		Incidents []prof.Summary `json:"incidents"`
	}
	body := httpGet(t, inf.PortalURL()+"/debug/prof")
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatalf("/debug/prof not JSON: %v\n%s", err, body)
	}
	if len(page.Incidents) != 1 || page.Incidents[0].ID != inc.ID {
		t.Fatalf("/debug/prof incidents = %+v, want [%s]", page.Incidents, inc.ID)
	}
	var served prof.Incident
	if err := json.Unmarshal(httpGet(t, inf.PortalURL()+"/debug/prof?incident="+inc.ID), &served); err != nil {
		t.Fatalf("incident detail not JSON: %v", err)
	}
	if served.Trigger != inc.Trigger || len(served.Captures) != len(inc.Captures) {
		t.Errorf("served incident differs: %+v", served)
	}
	raw := httpGet(t, inf.PortalURL()+"/debug/prof?incident="+inc.ID+"&profile=cpu")
	if len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
		t.Errorf("served CPU profile not gzip (%d bytes)", len(raw))
	}

	// Offline reader sees the identical bundle on the live directory.
	cold, err := prof.ReadDir(profDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold) != 1 || cold[0].ID != inc.ID {
		t.Fatalf("offline read = %d bundles, want [%s]", len(cold), inc.ID)
	}

	// Crash sweep: truncating the segment anywhere must yield all or
	// nothing — a torn tail is skipped, never surfaced as a partial
	// bundle. (The per-byte sweep lives in internal/obs/prof; this sweeps
	// a stride over the real end-to-end bundle.)
	segs, err := filepath.Glob(filepath.Join(profDir, prof.SegPrefix+"*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v, %v", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	cuts := []int{0, 1, 7, 8, 9, len(data) - 2, len(data) - 1, len(data)}
	for cut := 16; cut < len(data); cut += len(data)/61 + 1 {
		cuts = append(cuts, cut)
	}
	for _, cut := range cuts {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(segs[0])), data[:cut], 0o600); err != nil {
			t.Fatal(err)
		}
		got, err := prof.ReadDir(dir)
		if err != nil {
			t.Fatalf("cut %d: ReadDir: %v", cut, err)
		}
		want := 0
		if cut == len(data) {
			want = 1
		}
		if len(got) != want {
			t.Fatalf("cut %d of %d: read %d bundles, want %d", cut, len(data), len(got), want)
		}
		if want == 1 && got[0].ID != inc.ID {
			t.Fatalf("cut %d: wrong bundle %s", cut, got[0].ID)
		}
	}
}

// TestDiagnosticsEndpointsConcurrentScrape hammers every diagnostics
// endpoint of the daemons' own ops kit from parallel scrapers (as a fleet
// of Prometheus pollers and curious operators would) under the race
// detector: responses must stay 200 with well-formed bodies, and nothing
// may deadlock or leak.
func TestDiagnosticsEndpointsConcurrentScrape(t *testing.T) {
	leakcheck.Check(t)
	kit, opts := opsKit(t)
	reg, eng, profEng := kit.Reg, kit.SLO, kit.Prof
	inf := newInfra(t, opts)
	sim := inf.Clock.(*clock.Sim)

	// Populate every subsystem: one good login, one incident, one tick.
	if _, err := inf.CreateUser("scrape", "s@x", "pw", idm.ClassUser); err != nil {
		t.Fatal(err)
	}
	enr, err := inf.PairSoft("scrape")
	if err != nil {
		t.Fatal(err)
	}
	if err := loginOnce(inf, sim, "scrape", enr.Secret, false); err != nil {
		t.Fatal(err)
	}
	settleFlightrec(t, reg, 1)
	eng.Evaluate()
	if _, err := profEng.Fire("manual", "scrape seed"); err != nil {
		t.Fatal(err)
	}
	incID := profEng.List()[0].ID

	endpoints := []string{
		"/metrics",
		"/healthz",
		"/debug/authwatch",
		"/debug/slo",
		"/debug/flightrec",
		"/debug/prof",
		"/debug/prof?incident=" + incID,
		"/debug/prof?incident=" + incID + "&profile=cpu",
		"/debug/prof?incident=" + incID + "&part=goroutines",
	}
	const scrapers, rounds = 8, 12
	var wg sync.WaitGroup
	errs := make(chan error, scrapers)
	for i := 0; i < scrapers; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				url := endpoints[(worker+r)%len(endpoints)]
				resp, err := http.Get(inf.PortalURL() + url)
				if err != nil {
					errs <- fmt.Errorf("%s: %v", url, err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- fmt.Errorf("%s: read: %v", url, err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, body)
					return
				}
				if len(body) == 0 {
					errs <- fmt.Errorf("%s: empty body", url)
					return
				}
				switch url {
				case "/debug/authwatch", "/debug/slo", "/debug/prof":
					var v any
					if err := json.Unmarshal(body, &v); err != nil {
						errs <- fmt.Errorf("%s: not JSON: %v", url, err)
						return
					}
				}
			}
		}(i)
	}
	// Scrapes race against the sampler's own work, not a quiet engine.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			profEng.CaptureOnce()
			profEng.Evaluate()
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The linter still passes on the page the scrapers were hammering,
	// with the prof_* families and the required conventions present.
	page := httpGet(t, inf.PortalURL()+"/metrics")
	if lintErrs := obs.LintExposition(strings.NewReader(string(page)), obs.ConventionFamilies()...); len(lintErrs) != 0 {
		for _, e := range lintErrs {
			t.Errorf("exposition lint: %v", e)
		}
	}
	for _, fam := range []string{"prof_captures_total", "prof_ring_captures", "prof_incidents"} {
		if !strings.Contains(string(page), fam) {
			t.Errorf("metrics page missing %s family", fam)
		}
	}
}

func httpGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, body)
	}
	return body
}
