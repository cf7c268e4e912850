package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"openmfa/internal/eventstream"
	"openmfa/internal/leakcheck"
	"openmfa/internal/rollout"
)

// TestFlagSurface pins the flag names, so a re-added knob fails here
// rather than shipping.
func TestFlagSurface(t *testing.T) {
	var got []string
	newFlags(new(options)).VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{"all", "analysis", "costs", "events-out", "experiments", "fig",
		"q", "risk", "risk-days", "risk-users", "seed", "table", "users"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rollout flags = %v\nwant %v", got, want)
	}
}

// A selector no run can satisfy, or a flag of the mode that was not
// selected, is rejected before the simulation starts — not after its
// twenty seconds, and not silently.
func TestRejectsBadSelectionsBeforeRunning(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-fig 7", "unknown figure 7"},
		{"-fig 2 -table 1", "unknown figure 2"},
		{"-table 2", "unknown table 2"},
		{"-risk -fig 3", "-fig has no effect with -risk"},
		{"-risk -table 1", "-table has no effect with -risk"},
		{"-risk -costs", "-costs has no effect with -risk"},
		{"-risk -analysis", "-analysis has no effect with -risk"},
		{"-risk -experiments", "-experiments has no effect with -risk"},
		{"-risk -all", "-all has no effect with -risk"},
		{"-risk -users 50", "-users has no effect with -risk"},
		{"-risk-users 8", "-risk-users has no effect without -risk"},
		{"-fig 3 -risk-days 5", "-risk-days has no effect without -risk"},
		{"-no-such-flag 4", "flag provided but not defined"},
	} {
		var stdout, stderr bytes.Buffer
		start := time.Now()
		err := run(strings.Fields(tc.args), &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("rollout %s: err = %v, want %q", tc.args, err, tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("rollout %s: printed a report:\n%s", tc.args, stdout.String())
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("rollout %s: took %s to refuse; a simulation ran first", tc.args, d)
		}
	}
}

// The adaptive-MFA evaluation on its smallest configuration, as `make
// risk-smoke` and the verify notes drive it: the report on stdout, -q
// leaving it byte-identical with stderr silent, nothing left running.
func TestRiskEvalRun(t *testing.T) {
	leakcheck.Check(t)
	var stdout, stderr bytes.Buffer
	if err := run(strings.Fields("-risk -risk-users 8 -risk-days 5 -seed 7"), &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "FIGURE R2") {
		t.Errorf("stdout has no report:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "rollout: run finished") {
		t.Errorf("stderr has no progress lines:\n%s", stderr.String())
	}

	var quiet, quietErr bytes.Buffer
	if err := run(strings.Fields("-risk -q -risk-users 8 -risk-days 5 -seed 7"), &quiet, &quietErr); err != nil {
		t.Fatal(err)
	}
	if quietErr.Len() != 0 || quiet.String() != stdout.String() {
		t.Errorf("-q run: stderr %q; stdout equal to the verbose run: %v", quietErr.String(), quiet.String() == stdout.String())
	}
}

// TestFailedRunClosesEventDump: when the simulation fails with -events-out
// set, run still closes the dump, so the events published before the
// failure reach the file and the writer goroutine ends.
func TestFailedRunClosesEventDump(t *testing.T) {
	leakcheck.Check(t)
	failure := errors.New("simulation failed")
	publishThenFail := func(bus *eventstream.Bus) error {
		bus.Publish(eventstream.Event{Type: eventstream.TypeMFA, User: "alice", Result: "accept"})
		return failure
	}
	savedRollout, savedRisk := runRollout, runRiskEval
	t.Cleanup(func() { runRollout, runRiskEval = savedRollout, savedRisk })
	runRollout = func(cfg rollout.Config) (*rollout.Result, error) {
		return nil, publishThenFail(cfg.Events)
	}
	runRiskEval = func(cfg rollout.RiskEvalConfig) (*rollout.RiskEvalResult, error) {
		return nil, publishThenFail(cfg.Events)
	}
	for _, mode := range []string{"", "-risk"} {
		path := filepath.Join(t.TempDir(), "events.jsonl")
		args := append(strings.Fields(mode), "-q", "-events-out", path)
		if err := run(args, io.Discard, io.Discard); !errors.Is(err, failure) {
			t.Fatalf("run %q = %v, want the simulation's error", mode, err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(b), `"alice"`) {
			t.Errorf("run %q: events-out file %q lacks the event published before the failure", mode, b)
		}
	}
}
