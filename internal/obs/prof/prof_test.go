package prof

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"openmfa/internal/clock"
	"openmfa/internal/obs"
	"openmfa/internal/seglog"
)

var testT0 = time.Date(2016, 10, 4, 3, 12, 0, 0, time.UTC)

func newTestEngine(t *testing.T, dir string, sim *clock.Sim, reg *obs.Registry) *Engine {
	t.Helper()
	e, err := New(Config{
		Dir:         dir,
		Obs:         reg,
		Clock:       sim,
		Period:      30 * time.Second,
		CPUDuration: 10 * time.Millisecond,
		Retention:   3,
		Debounce:    10 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Stop)
	return e
}

func TestCaptureRingAndMetrics(t *testing.T) {
	sim := clock.NewSim(testT0)
	reg := obs.NewRegistry()
	e := newTestEngine(t, t.TempDir(), sim, reg)
	for i := 0; i < 5; i++ {
		c := e.CaptureOnce()
		if len(c.Profiles["cpu"]) == 0 {
			t.Fatalf("capture %d: empty CPU profile (err=%q)", i, c.Err)
		}
		if c.Profiles["cpu"][0] != 0x1f || c.Profiles["cpu"][1] != 0x8b {
			t.Fatalf("capture %d: CPU profile is not gzip pprof", i)
		}
		if len(c.Profiles["heap"]) == 0 || len(c.Profiles["goroutine"]) == 0 {
			t.Fatalf("capture %d: missing snapshots: %v", i, c.Err)
		}
		sim.Advance(30 * time.Second)
	}
	ring := e.Ring()
	if len(ring) != 3 {
		t.Fatalf("ring holds %d captures, want retention 3", len(ring))
	}
	if !ring[0].Time.Before(ring[2].Time) {
		t.Error("ring not oldest-first")
	}
	if got := reg.Counter("prof_captures_total").Value(); got != 5 {
		t.Errorf("prof_captures_total = %d, want 5", got)
	}
	if got := reg.Gauge("prof_ring_captures").Value(); got != 3 {
		t.Errorf("prof_ring_captures = %v, want 3", got)
	}
	if reg.Counter("prof_capture_bytes_total").Value() <= 0 {
		t.Error("prof_capture_bytes_total not accounted")
	}
}

func TestTriggerDebounceYieldsOneIncident(t *testing.T) {
	sim := clock.NewSim(testT0)
	reg := obs.NewRegistry()
	e := newTestEngine(t, t.TempDir(), sim, reg)
	burning := true
	e.AddTrigger("slo_fast_burn", func() (bool, string) { return burning, "sshd availability burning" })
	for i := 0; i < 4; i++ {
		e.Evaluate()
		sim.Advance(30 * time.Second)
	}
	if got := len(e.List()); got != 1 {
		t.Fatalf("%d incidents after 4 evaluations in debounce window, want 1", got)
	}
	if got := reg.Counter("prof_incidents_suppressed_total").Value(); got != 3 {
		t.Errorf("suppressed = %d, want 3", got)
	}
	// Past the debounce window with the trigger still active → a second.
	sim.Advance(10 * time.Minute)
	e.Evaluate()
	if got := len(e.List()); got != 2 {
		t.Fatalf("%d incidents after debounce expiry, want 2", got)
	}
	burning = false
	sim.Advance(time.Hour)
	e.Evaluate()
	if got := len(e.List()); got != 2 {
		t.Fatalf("inactive trigger fired: %d incidents", got)
	}
	if got := reg.Counter("prof_incidents_total", "trigger", "slo_fast_burn").Value(); got != 2 {
		t.Errorf("prof_incidents_total{trigger=slo_fast_burn} = %d, want 2", got)
	}
}

func TestIncidentContentsAndManualFire(t *testing.T) {
	sim := clock.NewSim(testT0)
	reg := obs.NewRegistry()
	reg.Counter("sshd_auth_total", "result", "reject").Add(42)
	dir := t.TempDir()
	e := newTestEngine(t, dir, sim, reg)
	e.cfg.TraceIDs = func(n int) []string { return []string{"trace-a", "trace-b"} }
	e.CaptureOnce()
	inc, err := e.Fire("manual", "operator request")
	if err != nil {
		t.Fatal(err)
	}
	if inc == nil {
		t.Fatal("manual fire suppressed")
	}
	// ring had 1 capture; fire appends a fresh one.
	if len(inc.Captures) != 2 {
		t.Fatalf("bundle has %d captures, want 2", len(inc.Captures))
	}
	last := inc.Captures[len(inc.Captures)-1]
	if len(last.Profiles["cpu"]) == 0 {
		t.Error("fire-time capture has no CPU delta profile")
	}
	if !strings.Contains(inc.Goroutines, "goroutine") {
		t.Error("goroutine dump empty")
	}
	if !strings.Contains(inc.Metrics, "sshd_auth_total") {
		t.Error("metrics snapshot missing registry families")
	}
	if len(inc.TraceIDs) != 2 {
		t.Errorf("trace IDs = %v", inc.TraceIDs)
	}
	if inc.Runtime.NumGoroutine <= 0 || inc.Runtime.GoVersion == "" {
		t.Errorf("runtime stats empty: %+v", inc.Runtime)
	}
	// Manual fire arms debounce: a trigger fire right after is suppressed.
	e.AddTrigger("x", func() (bool, string) { return true, "" })
	e.Evaluate()
	if got := len(e.List()); got != 1 {
		t.Fatalf("trigger fired inside debounce armed by manual capture: %d incidents", got)
	}

	// Round-trip through Get.
	got, err := e.Get(inc.ID)
	if err != nil || got == nil {
		t.Fatalf("Get(%s) = %v, %v", inc.ID, got, err)
	}
	if got.Trigger != "manual" || got.Detail != "operator request" || len(got.Captures) != 2 {
		t.Errorf("persisted incident mangled: %+v", summarize(got, 0))
	}
	if !bytes.Equal(got.Captures[1].Profiles["cpu"], last.Profiles["cpu"]) {
		t.Error("CPU profile bytes did not survive persistence")
	}
}

func TestRecoveryAfterRestart(t *testing.T) {
	sim := clock.NewSim(testT0)
	dir := t.TempDir()
	e := newTestEngine(t, dir, sim, obs.NewRegistry())
	if _, err := e.Fire("manual", "first"); err != nil {
		t.Fatal(err)
	}
	sim.Advance(time.Hour)
	if _, err := e.Fire("manual", "second"); err != nil {
		t.Fatal(err)
	}
	e.Stop()

	reg2 := obs.NewRegistry()
	e2 := newTestEngine(t, dir, sim, reg2)
	list := e2.List()
	if len(list) != 2 {
		t.Fatalf("recovered %d incidents, want 2", len(list))
	}
	if list[0].ID != "inc-000002" || list[1].ID != "inc-000001" {
		t.Errorf("recovered order (newest first) = %s, %s", list[0].ID, list[1].ID)
	}
	if got := reg2.Counter("prof_incidents_recovered_total").Value(); got != 2 {
		t.Errorf("recovered counter = %d", got)
	}
	// Sequence continues past recovered IDs.
	inc, err := e2.Fire("manual", "third")
	if err != nil {
		t.Fatal(err)
	}
	if inc.ID != "inc-000003" {
		t.Errorf("post-recovery ID = %s, want inc-000003", inc.ID)
	}
}

// TestIncidentTornTailSweep is the crash sweep from the acceptance
// criteria at the unit level: a segment holding one complete incident
// bundle is truncated at EVERY byte offset; recovery must either
// recover the whole bundle (cut past the commit marker) or recover
// nothing — never a half bundle — and the read-only offline reader must
// agree.
func TestIncidentTornTailSweep(t *testing.T) {
	sim := clock.NewSim(testT0)
	src := t.TempDir()
	e, err := New(Config{
		Dir: src, Clock: sim, CPUDuration: time.Millisecond, Retention: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Fire("manual", "sweep seed"); err != nil {
		t.Fatal(err)
	}
	e.Stop()
	seg := filepath.Join(src, seglog.SegName(SegPrefix, 1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < seglog.FrameHeaderSize+2 {
		t.Fatalf("suspiciously small segment: %d bytes", len(data))
	}
	for cut := len(data); cut >= 0; cut-- {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, seglog.SegName(SegPrefix, 1)), data[:cut], 0o600); err != nil {
			t.Fatal(err)
		}
		wantComplete := cut == len(data)

		// Offline read-only path first (it must not mutate the file).
		offline, err := ReadDir(dir)
		if err != nil {
			t.Fatalf("cut=%d: ReadDir: %v", cut, err)
		}
		if got := len(offline); got != b2i(wantComplete) {
			t.Fatalf("cut=%d: offline recovered %d bundles, want %d", cut, got, b2i(wantComplete))
		}
		if fi, _ := os.Stat(filepath.Join(dir, seglog.SegName(SegPrefix, 1))); fi.Size() != int64(cut) {
			t.Fatalf("cut=%d: read-only reader truncated the segment", cut)
		}

		// Read-write recovery path.
		e2, err := New(Config{Dir: dir, Clock: sim, CPUDuration: time.Millisecond, Retention: 1})
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		list := e2.List()
		if got := len(list); got != b2i(wantComplete) {
			t.Fatalf("cut=%d: recovered %d incidents, want %d", cut, got, b2i(wantComplete))
		}
		if wantComplete {
			inc, err := e2.Get(list[0].ID)
			if err != nil || inc == nil || inc.Detail != "sweep seed" {
				t.Fatalf("cut=%d: recovered bundle unreadable: %v, %v", cut, inc, err)
			}
		}
		e2.Stop()
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestNewRequiresDir: incidents always persist; there is no memory mode.
func TestNewRequiresDir(t *testing.T) {
	if e, err := New(Config{}); err == nil {
		e.Stop()
		t.Fatal("New(Config{}) succeeded without a Dir")
	}
}

func TestHandlerEndpoints(t *testing.T) {
	sim := clock.NewSim(testT0)
	reg := obs.NewRegistry()
	e := newTestEngine(t, t.TempDir(), sim, reg)
	mux := http.NewServeMux()
	e.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string, wantCode int) []byte {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != wantCode {
			t.Fatalf("GET %s = %d (%s), want %d", path, resp.StatusCode, body, wantCode)
		}
		return body
	}

	// Empty index.
	var idx struct {
		Sampler   statusJSON `json:"sampler"`
		Incidents []Summary  `json:"incidents"`
	}
	if err := json.Unmarshal(get("/debug/prof", 200), &idx); err != nil {
		t.Fatal(err)
	}
	if idx.Sampler.Retention != 3 || len(idx.Incidents) != 0 {
		t.Errorf("index = %+v", idx)
	}

	// Manual capture endpoint fires an incident.
	var sum Summary
	if err := json.Unmarshal(get("/debug/prof/capture?reason=drill", 200), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Trigger != "manual" || sum.Detail != "drill" {
		t.Errorf("capture summary = %+v", sum)
	}

	// Full bundle fetch.
	var inc Incident
	if err := json.Unmarshal(get("/debug/prof?incident="+sum.ID, 200), &inc); err != nil {
		t.Fatal(err)
	}
	if len(inc.Captures) == 0 {
		t.Fatal("bundle has no captures")
	}

	// Raw CPU profile download: gzip pprof bytes.
	prof := get("/debug/prof?incident="+sum.ID+"&profile=cpu", 200)
	if len(prof) < 2 || prof[0] != 0x1f || prof[1] != 0x8b {
		t.Errorf("profile download is not gzip pprof (%d bytes)", len(prof))
	}
	get("/debug/prof?incident="+sum.ID+"&profile=nosuch", 404)
	get("/debug/prof?incident="+sum.ID+"&profile=cpu&capture=99", 400)

	// Text parts.
	if g := get("/debug/prof?incident="+sum.ID+"&part=goroutines", 200); !strings.Contains(string(g), "goroutine") {
		t.Error("goroutines part empty")
	}
	get("/debug/prof?incident="+sum.ID+"&part=nosuch", 400)
	get("/debug/prof?incident=inc-999999", 404)
}

func TestStartStopSampler(t *testing.T) {
	e, err := New(Config{
		Dir:         t.TempDir(),
		Period:      5 * time.Millisecond,
		CPUDuration: time.Millisecond,
		Retention:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	deadline := time.Now().Add(5 * time.Second)
	for len(e.Ring()) == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	e.Stop()
	if len(e.Ring()) == 0 {
		t.Fatal("sampler took no captures")
	}
	e.Stop() // idempotent
	var nilE *Engine
	nilE.Start()
	nilE.Stop()
	nilE.Evaluate()
}

// TestNewClampsCPUDuration pins the sampler's structural overhead budget:
// the CPU profile window never exceeds a tenth of the sampling period, so
// profiling is active at most 10% of wall time whatever the config asks.
func TestNewClampsCPUDuration(t *testing.T) {
	for _, c := range []struct {
		period, cpu, want time.Duration
	}{
		{500 * time.Millisecond, 5 * time.Second, 50 * time.Millisecond},
		{500 * time.Millisecond, 10 * time.Millisecond, 10 * time.Millisecond},
		{0, 0, 250 * time.Millisecond}, // the defaults, 250ms every 30s
		{time.Second, 0, 100 * time.Millisecond},
	} {
		e, err := New(Config{Dir: t.TempDir(), Period: c.period, CPUDuration: c.cpu})
		if err != nil {
			t.Fatal(err)
		}
		if e.cpuDur != c.want {
			t.Errorf("Period %v, CPUDuration %v: CPU window %v, want %v", c.period, c.cpu, e.cpuDur, c.want)
		}
		e.Stop()
	}
}

// TestStopRestoresMutexProfileFraction: the fraction is process-wide, so
// an engine must leave it as it found it — and a second Stop must not
// clobber whatever a later owner has set since.
func TestStopRestoresMutexProfileFraction(t *testing.T) {
	before := runtime.SetMutexProfileFraction(-1)
	e, err := New(Config{Dir: t.TempDir(), MutexFraction: before + 100})
	if err != nil {
		t.Fatal(err)
	}
	if got := runtime.SetMutexProfileFraction(-1); got != before+100 {
		t.Fatalf("fraction while running = %d, want %d", got, before+100)
	}
	e.Stop()
	if got := runtime.SetMutexProfileFraction(-1); got != before {
		t.Fatalf("fraction after Stop = %d, want the pre-New %d", got, before)
	}
	defer runtime.SetMutexProfileFraction(before)
	runtime.SetMutexProfileFraction(before + 7)
	e.Stop()
	if got := runtime.SetMutexProfileFraction(-1); got != before+7 {
		t.Fatalf("second Stop rewrote the fraction to %d", got)
	}
}
