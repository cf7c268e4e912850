package main

import (
	"context"
	"flag"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestFlagSurface pins the daemon's flag names, so a re-added tuning knob
// fails here rather than shipping; -h must say which flags are required.
func TestFlagSurface(t *testing.T) {
	var got []string
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			got = append(got, f.Name)
		}
	})
	want := []string{"admin-pass", "admin-user", "data", "flightrec-dir", "http", "issuer", "key-hex",
		"prof-dir", "radius", "radius-secret", "repl-follow", "repl-listen", "repl-min-sync",
		"repl-sync-timeout", "risk", "slo"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("otpd flags = %v\nwant %v", got, want)
	}
	for _, name := range []string{"key-hex", "admin-pass"} {
		if usage := flag.Lookup(name).Usage; !strings.Contains(usage, "required") {
			t.Errorf("-%s usage %q does not say it is required", name, usage)
		}
	}
}

// TestRunValidatesFlagsBeforeOpeningTheStore: contradictory replication
// roles are refused before the data directory is touched.
func TestRunValidatesFlagsBeforeOpeningTheStore(t *testing.T) {
	dir := t.TempDir()
	for name, value := range map[string]string{
		"admin-pass": "x", "key-hex": strings.Repeat("00", 32), "data": dir,
		"repl-listen": "127.0.0.1:0", "repl-follow": "127.0.0.1:1",
	} {
		if err := flag.Set(name, value); err != nil {
			t.Fatal(err)
		}
	}
	err := run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("run = %v, want the exclusivity error", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("store opened before validation: %d entries in the data dir", len(entries))
	}
}
