package flightrec

import (
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"openmfa/internal/eventstream"
	"openmfa/internal/leakcheck"
	"openmfa/internal/obs"
)

var testT0 = time.Date(2016, 10, 4, 8, 0, 0, 0, time.UTC)

// settle waits until the recorder has made a keep/drop decision for n
// completions (counters move strictly after persistence).
func settle(t *testing.T, reg *obs.Registry, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		var total uint64
		for _, reason := range []string{ReasonFailed, ReasonSlow, ReasonLockout, ReasonAlert, ReasonSampled} {
			total += uint64(reg.Counter("flightrec_bundles_kept_total", "reason", reason).Value())
		}
		total += uint64(reg.Counter("flightrec_bundles_dropped_total").Value())
		if total >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("recorder did not settle")
}

func login(trace, user, result string, at time.Time, dur time.Duration) eventstream.Event {
	return eventstream.Event{
		Time: at, Type: eventstream.TypeLogin, Component: "sshd",
		Trace: trace, User: user, Addr: "10.0.0.1:22", Result: result,
		Duration: dur,
	}
}

func TestTailSamplingKeepsEveryInterestingTrace(t *testing.T) {
	leakcheck.Check(t)
	reg := obs.NewRegistry()
	bus := eventstream.NewBus(reg)
	spans := obs.NewSpanStore(64)
	alert := false
	rec, err := New(Config{
		Dir: t.TempDir(), Bus: bus, Spans: spans, Obs: reg,
		Policy: Policy{
			SampleRate:    0, // nothing kept on sample alone
			SlowThreshold: 500 * time.Millisecond,
			AlertActive:   func() bool { return alert },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Stop()

	sp := spans.Start("tr-fail", "sshd.conversation")
	sp.End()

	bus.Publish(login("tr-fail", "alice", "reject", testT0, 10*time.Millisecond))
	bus.Publish(login("tr-slow", "bob", "accept", testT0.Add(time.Second), 900*time.Millisecond))
	bus.Publish(eventstream.Event{
		Time: testT0.Add(2 * time.Second), Type: eventstream.TypeLockout,
		Component: "otpd", Trace: "tr-lock", User: "carol",
	})
	bus.Publish(login("tr-lock", "carol", "accept", testT0.Add(3*time.Second), 10*time.Millisecond))
	bus.Publish(login("tr-ok", "dave", "accept", testT0.Add(4*time.Second), 10*time.Millisecond))
	settle(t, reg, 4)

	alert = true
	bus.Publish(login("tr-alert", "erin", "accept", testT0.Add(5*time.Second), 10*time.Millisecond))
	settle(t, reg, 5)

	for trace, reason := range map[string]string{
		"tr-fail": ReasonFailed, "tr-slow": ReasonSlow,
		"tr-lock": ReasonLockout, "tr-alert": ReasonAlert,
	} {
		b, err := rec.Get(trace)
		if err != nil {
			t.Fatalf("Get(%s): %v", trace, err)
		}
		if b == nil {
			t.Fatalf("interesting trace %s not kept", trace)
		}
		if b.Reason != reason {
			t.Errorf("%s kept for %q, want %q", trace, b.Reason, reason)
		}
	}
	if b, _ := rec.Get("tr-ok"); b != nil {
		t.Error("unremarkable success kept at sample rate 0")
	}
	if b, _ := rec.Get("tr-fail"); len(b.Spans) != 1 || b.Spans[0].Name != "sshd.conversation" {
		t.Errorf("failed bundle lost its span tree: %+v", b.Spans)
	}
	if b, _ := rec.Get("tr-lock"); len(b.Events) != 2 {
		t.Errorf("lockout bundle has %d events, want lockout+login", len(b.Events))
	}
}

func TestSuccessSamplingIsDeterministic(t *testing.T) {
	run := func() map[string]bool {
		reg := obs.NewRegistry()
		bus := eventstream.NewBus(reg)
		rec, err := New(Config{
			Dir: t.TempDir(), Bus: bus, Obs: reg,
			Policy: Policy{SampleRate: 0.3},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer rec.Stop()
		for i := 0; i < 100; i++ {
			// Trace IDs differ between "runs"; user+time do not.
			trace := fmt.Sprintf("tr-%d-%p", i, rec)
			bus.Publish(login(trace, fmt.Sprintf("user%d", i), "accept",
				testT0.Add(time.Duration(i)*time.Second), time.Millisecond))
		}
		settle(t, reg, 100)
		kept := map[string]bool{}
		for _, s := range rec.List(Query{}) {
			kept[s.User] = true
		}
		return kept
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) == 100 {
		t.Fatalf("sample rate 0.3 kept %d of 100", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("runs kept %d vs %d bundles", len(a), len(b))
	}
	for u := range a {
		if !b[u] {
			t.Fatalf("user %s sampled in run A but not run B", u)
		}
	}
}

func TestRecoveryAfterRestart(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	bus := eventstream.NewBus(reg)
	rec, err := New(Config{Dir: dir, Bus: bus, Obs: reg, Policy: Policy{}})
	if err != nil {
		t.Fatal(err)
	}
	bus.Publish(login("tr-1", "alice", "reject", testT0, time.Millisecond))
	bus.Publish(login("tr-2", "bob", "reject", testT0.Add(time.Second), time.Millisecond))
	settle(t, reg, 2)
	rec.Stop()

	rec2, err := New(Config{Dir: dir, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer rec2.Stop()
	if rec2.Len() != 2 {
		t.Fatalf("recovered %d bundles, want 2", rec2.Len())
	}
	b, err := rec2.Get("tr-2")
	if err != nil || b == nil || b.User != "bob" || b.Reason != ReasonFailed {
		t.Fatalf("Get after recovery = %+v, %v", b, err)
	}
}

func TestRotationExpiresOldestSegment(t *testing.T) {
	reg := obs.NewRegistry()
	bus := eventstream.NewBus(reg)
	rec, err := New(Config{
		Dir: t.TempDir(), Bus: bus, Obs: reg,
		maxSegmentSize: 512, maxSegments: 2,
		Policy: Policy{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Stop()
	for i := 0; i < 40; i++ {
		bus.Publish(login(fmt.Sprintf("tr-%02d", i), "alice", "reject",
			testT0.Add(time.Duration(i)*time.Second), time.Millisecond))
	}
	settle(t, reg, 40)
	if rot := reg.Counter("flightrec_segment_rotations_total").Value(); rot == 0 {
		t.Fatal("no rotation at 512-byte segments")
	}
	if rec.Len() >= 40 {
		t.Errorf("index holds %d bundles; expired segments should drop entries", rec.Len())
	}
	// The newest bundle always survives.
	if b, err := rec.Get("tr-39"); err != nil || b == nil {
		t.Fatalf("newest bundle lost: %v, %v", b, err)
	}
	// Expired traces report not-found, not an error.
	if b, err := rec.Get("tr-00"); err != nil || b != nil {
		t.Fatalf("oldest bundle: got %v, %v; want nil, nil", b, err)
	}
}

func TestHandlerQueries(t *testing.T) {
	reg := obs.NewRegistry()
	bus := eventstream.NewBus(reg)
	spans := obs.NewSpanStore(64)
	rec, err := New(Config{Dir: t.TempDir(), Bus: bus, Spans: spans, Obs: reg, Policy: Policy{}})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Stop()

	root := spans.Start("tr-h", "sshd.conversation")
	child := root.StartChild("pam.pam_mfa_token")
	child.End()
	root.End()
	bus.Publish(login("tr-h", "alice", "reject", testT0, 42*time.Millisecond))
	bus.Publish(login("tr-h2", "bob", "reject", testT0, time.Millisecond))
	settle(t, reg, 2)

	get := func(url string) (int, string) {
		rr := httptest.NewRecorder()
		rec.Handler().ServeHTTP(rr, httptest.NewRequest("GET", url, nil))
		body, _ := io.ReadAll(rr.Result().Body)
		return rr.Code, string(body)
	}
	if code, body := get("/debug/flightrec"); code != 200 ||
		!strings.Contains(body, "tr-h") || !strings.Contains(body, "tr-h2") {
		t.Errorf("list: %d %s", code, body)
	}
	if code, body := get("/debug/flightrec?min=10ms"); code != 200 ||
		!strings.Contains(body, "tr-h") || strings.Contains(body, "tr-h2") {
		t.Errorf("min filter: %d %s", code, body)
	}
	if code, body := get("/debug/flightrec?class=reject&limit=1"); code != 200 ||
		strings.Count(body, `"trace"`) != 1 {
		t.Errorf("limit: %d %s", code, body)
	}
	if code, body := get("/debug/flightrec?trace=tr-h&format=tree"); code != 200 ||
		!strings.Contains(body, "sshd.conversation") ||
		!strings.Contains(body, "└─") ||
		!strings.Contains(body, "pam.pam_mfa_token") {
		t.Errorf("tree: %d %s", code, body)
	}
	if code, _ := get("/debug/flightrec?trace=nope"); code != 404 {
		t.Errorf("missing trace: %d, want 404", code)
	}
	if code, _ := get("/debug/flightrec?min=banana"); code != 400 {
		t.Errorf("bad min: %d, want 400", code)
	}
}

func TestLogTeeIndexesAndBounds(t *testing.T) {
	var sink strings.Builder
	tee := NewLogTee(&sink, 2, 2)
	log := obs.NewLogger(tee, obs.LevelInfo)
	log.Info("auth", "component", "sshd", "trace", "tr-1", "user", "alice")
	log.Info("auth", "trace", "tr-1", "step", "2")
	log.Info("auth", "trace", "tr-1", "step", "3") // over per-trace bound
	log.Info("no trace here")
	log.Info("auth", "trace", "tr-2")
	log.Info("auth", "trace", "tr-3") // evicts tr-1

	if !strings.Contains(sink.String(), "no trace here") {
		t.Error("tee did not pass lines through")
	}
	if got := tee.Traces(); got != 2 {
		t.Errorf("tee holds %d traces, want 2 after eviction", got)
	}
	if lines, _ := tee.Take("tr-1"); lines != nil {
		t.Errorf("evicted trace still indexed: %v", lines)
	}
	lines, dropped := tee.Take("tr-2")
	if len(lines) != 1 || !strings.Contains(lines[0], "trace=tr-2") || dropped != 0 {
		t.Errorf("Take(tr-2) = %v, %d", lines, dropped)
	}
	if got := tee.Traces(); got != 1 {
		t.Errorf("tee holds %d traces after Take, want 1", got)
	}
	var nilTee *LogTee
	if n, err := nilTee.Write([]byte("x")); n != 1 || err != nil {
		t.Error("nil tee Write not a no-op")
	}
}

func TestBundleCarriesLogsAndTruncation(t *testing.T) {
	reg := obs.NewRegistry()
	bus := eventstream.NewBus(reg)
	spans := obs.NewSpanStore(2) // tiny ring forces eviction
	tee := NewLogTee(io.Discard, 0, 0)
	rec, err := New(Config{Dir: t.TempDir(), Bus: bus, Spans: spans, Logs: tee, Obs: reg, Policy: Policy{}})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Stop()

	for i := 0; i < 3; i++ { // 3 spans in a 2-ring: first evicted
		sp := spans.Start("tr-t", fmt.Sprintf("leg-%d", i))
		sp.End()
	}
	log := obs.NewLogger(tee, obs.LevelInfo)
	log.Info("auth", "component", "sshd", "trace", "tr-t", "result", "reject")
	bus.Publish(login("tr-t", "alice", "reject", testT0, time.Millisecond))
	settle(t, reg, 1)

	b, err := rec.Get("tr-t")
	if err != nil || b == nil {
		t.Fatal(err)
	}
	if !b.Truncated {
		t.Error("bundle not marked truncated after span eviction")
	}
	if len(b.Spans) != 2 {
		t.Errorf("bundle has %d spans, want the 2 surviving", len(b.Spans))
	}
	if len(b.Logs) != 1 || !strings.Contains(b.Logs[0], "trace=tr-t") {
		t.Errorf("bundle logs = %v", b.Logs)
	}
	if tee.Traces() != 0 {
		t.Error("Take did not drain the tee")
	}
}
