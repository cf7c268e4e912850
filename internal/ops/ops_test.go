package ops

import (
	"context"
	"flag"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"openmfa/internal/leakcheck"
	"openmfa/internal/obs"
)

func get(t *testing.T, url string) (int, string) {
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
	return resp.StatusCode, string(body)
}

// TestRegisterFlagsDeclaresExactlyTheDeploymentSettings pins the kit's
// flag names: a tuning knob re-added here fails review, not production.
func TestRegisterFlagsDeclaresExactlyTheDeploymentSettings(t *testing.T) {
	fs := flag.NewFlagSet("kit", flag.ContinueOnError)
	RegisterFlags(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	if want := []string{"flightrec-dir", "prof-dir", "slo"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ops flags = %v, want %v", got, want)
	}
}

// TestKitFullChain runs the chain the daemons run, everything on: every
// endpoint answers, the exposition is lint-clean, a fast burn degrades
// /healthz and leaves exactly one incident bundle, and Stop leaves
// nothing behind.
func TestKitFullChain(t *testing.T) {
	leakcheck.Check(t)
	fs := flag.NewFlagSet("kit", flag.ContinueOnError)
	f := RegisterFlags(fs)
	if err := fs.Parse([]string{"-slo", "requests:99.5%<750ms/30d",
		"-flightrec-dir", t.TempDir(), "-prof-dir", t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	lat := reg.Histogram("radius_request_duration_seconds", nil)
	kit, err := Start(f, Config{Reg: reg, Latency: []*obs.Histogram{lat}, StoreErr: func() error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	defer kit.Stop()
	mux := http.NewServeMux()
	kit.Mount(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	for _, path := range []string{"/metrics", "/healthz", "/debug/pprof/", "/debug/authwatch",
		"/debug/slo", "/debug/flightrec", "/debug/prof"} {
		if code, body := get(t, ts.URL+path); code != http.StatusOK {
			t.Errorf("GET %s = %d: %s", path, code, body)
		}
	}
	_, page := get(t, ts.URL+"/metrics")
	for _, err := range obs.LintExposition(strings.NewReader(page), obs.ConventionFamilies()...) {
		t.Errorf("exposition lint: %v", err)
	}

	// Ten slow requests (under the latency_spike sample floor) burn the
	// whole budget; one SLO tick must page.
	for i := 0; i < 10; i++ {
		lat.Observe(2)
	}
	kit.SLO.Evaluate()
	if code, body := get(t, ts.URL+"/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "fast burn on requests") {
		t.Fatalf("/healthz after the burn = %d %q, want 503 naming the SLO", code, body)
	}
	// Three profiler ticks' worth of evaluations debounce to one bundle.
	for i := 0; i < 3; i++ {
		kit.Prof.Evaluate()
	}
	incs := kit.Prof.List()
	if len(incs) != 1 || incs[0].Trigger != "slo_fast_burn" {
		t.Fatalf("incidents = %+v, want exactly one slo_fast_burn", incs)
	}

	kit.Stop()
	kit.Stop() // idempotent
}

// TestKitDefaultFlags: without the two directories the recorder and the
// profiler are off and their endpoints absent; the rest still runs.
func TestKitDefaultFlags(t *testing.T) {
	leakcheck.Check(t)
	kit, err := Start(&Flags{}, Config{Reg: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer kit.Stop()
	if kit.FlightRec != nil || kit.Prof != nil {
		t.Fatalf("recorder %v / profiler %v on without a directory", kit.FlightRec, kit.Prof)
	}
	mux := http.NewServeMux()
	kit.Mount(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	for path, want := range map[string]int{"/healthz": 200, "/debug/authwatch": 200, "/debug/slo": 200,
		"/debug/flightrec": 404, "/debug/prof": 404} {
		if code, _ := get(t, ts.URL+path); code != want {
			t.Errorf("GET %s = %d, want %d", path, code, want)
		}
	}
}

// TestStartFailureLeavesNothingRunning: a recorder that cannot open its
// directory fails Start after half the chain is already up.
func TestStartFailureLeavesNothingRunning(t *testing.T) {
	leakcheck.Check(t)
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, nil, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Start(&Flags{FlightDir: notDir}, Config{Reg: obs.NewRegistry()}); err == nil {
		t.Fatal("Start succeeded with a file as -flightrec-dir")
	}
}

// TestServe: a bind failure is returned, not fatal; cancelling ctx (what
// SIGTERM does) drains and returns nil so the caller's defers run.
func TestServe(t *testing.T) {
	leakcheck.Check(t)
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := held.Addr().String()
	if err := Serve(context.Background(), addr, http.NotFoundHandler()); err == nil {
		t.Fatal("Serve on an address in use returned nil")
	}
	held.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- Serve(ctx, addr, http.NotFoundHandler()) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	http.DefaultClient.CloseIdleConnections()
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Serve after cancel = %v, want nil", err)
	}
}
