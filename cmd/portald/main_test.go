package main

import (
	"context"
	"flag"
	"net"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"openmfa/internal/leakcheck"
)

// TestFlagSurface pins the daemon's flag names, so a re-added tuning knob
// fails here rather than shipping.
func TestFlagSurface(t *testing.T) {
	var got []string
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			got = append(got, f.Name)
		}
	})
	want := []string{"base-url", "data", "demo", "flightrec-dir", "http", "otpd", "otpd-pass", "otpd-user",
		"prof-dir", "slo"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("portald flags = %v\nwant %v", got, want)
	}
}

// TestRunServesTheFullKitAndShutsDownCleanly: the portal gains the
// authwatch surface from the shared kit, and cancelling ctx (what SIGTERM
// does) returns through the defers — kit stopped, on-disk store closed,
// no goroutine left.
func TestRunServesTheFullKitAndShutsDownCleanly(t *testing.T) {
	leakcheck.Check(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	for name, value := range map[string]string{
		"http": addr, "otpd": "http://127.0.0.1:1", "otpd-pass": "x", "data": t.TempDir(),
	} {
		if err := flag.Set(name, value); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- run(ctx) }()

	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		select {
		case err := <-done:
			t.Fatalf("run exited early: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("portal never came up")
		}
	}
	for _, path := range []string{"/metrics", "/debug/authwatch", "/debug/slo"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d", path, resp.StatusCode)
		}
	}

	http.DefaultClient.CloseIdleConnections()
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run after cancel = %v, want nil", err)
	}
}
