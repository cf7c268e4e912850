package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestLoggerFormatAndLevels(t *testing.T) {
	var buf strings.Builder
	mu := &sync.Mutex{}
	_ = mu
	l := NewLogger(&buf, LevelInfo)
	l.Debug("hidden")
	l.Info("auth", "component", "sshd", "trace", "abcd1234abcd1234", "user", "alice")
	l.Warn("slow path", "dur", "1.5s")
	l.Error("boom", "err", `quote " me`)
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want 3 (debug filtered):\n%s", len(lines), out)
	}
	if strings.Contains(out, "hidden") {
		t.Fatal("debug line leaked past INFO level")
	}
	if !strings.Contains(lines[0], " INFO msg=auth component=sshd trace=abcd1234abcd1234 user=alice") {
		t.Fatalf("info line = %q", lines[0])
	}
	if !strings.Contains(lines[1], `WARN msg="slow path" dur=1.5s`) {
		t.Fatalf("warn line = %q", lines[1])
	}
	if !strings.Contains(lines[2], `err="quote \" me"`) {
		t.Fatalf("error line = %q", lines[2])
	}
}

func TestLoggerWith(t *testing.T) {
	var buf strings.Builder
	l := NewLogger(&buf, LevelDebug).With("component", "radius")
	l.Info("request", "trace", "deadbeefdeadbeef")
	if !strings.Contains(buf.String(), "component=radius trace=deadbeefdeadbeef") {
		t.Fatalf("derived logger line = %q", buf.String())
	}
}

func TestNilLogger(t *testing.T) {
	var l *Logger
	l.Info("x") // must not panic
	l.With("a", "b").Error("y")
	if l.Enabled(LevelError) {
		t.Fatal("nil logger reports enabled")
	}
}

func TestLoggerConcurrent(t *testing.T) {
	pr, pw := io.Pipe()
	go io.Copy(io.Discard, pr)
	l := NewLogger(pw, LevelDebug)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				l.With("g", "x").Info("tick", "j", "1")
			}
		}()
	}
	wg.Wait()
	pw.Close()
}

func TestTraceIDs(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if a == b {
		t.Fatalf("trace IDs collided: %s", a)
	}
	if !ValidTraceID(a) || !ValidTraceID(b) {
		t.Fatalf("generated IDs fail validation: %s %s", a, b)
	}
	for _, bad := range []string{"", "short", "UPPERCASEHEX0000", strings.Repeat("a", 33), "zzzzzzzzzzzzzzzz"} {
		if ValidTraceID(bad) {
			t.Fatalf("ValidTraceID(%q) = true", bad)
		}
	}
}

func TestHandlerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("requests_total").Add(3)
	srv := httptest.NewServer(Handler(reg))
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

	code, body := get("/metrics")
	if code != http.StatusOK || !strings.Contains(body, "requests_total 3") {
		t.Fatalf("/metrics = %d %q", code, body)
	}
	code, body = get("/healthz")
	if code != http.StatusOK || !strings.HasPrefix(body, "ok uptime=") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	code, _ = get("/debug/pprof/cmdline")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}
}
