package main

import (
	"bytes"
	"flag"
	"reflect"
	"strings"
	"testing"
	"time"

	"openmfa/internal/leakcheck"
)

// TestFlagSurface pins the flag names, so a re-added knob (-store-shards
// went in PR 17: it never changed a result) fails here rather than
// shipping.
func TestFlagSurface(t *testing.T) {
	var got []string
	newFlags(new(options)).VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{"all", "analysis", "authwatch", "costs", "events-out", "experiments", "fig",
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
		{"-store-shards 4", "flag provided but not defined"},
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
// risk-smoke` and the verify notes drive it: exact streaming parity (a
// mismatch is a non-nil error, exit 1), the report on stdout, nothing left
// running.
func TestRiskEvalWithAuthwatchParity(t *testing.T) {
	leakcheck.Check(t)
	var stdout, stderr bytes.Buffer
	if err := run(strings.Fields("-risk -authwatch -risk-users 8 -risk-days 5 -seed 7"), &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "FIGURE R2") {
		t.Errorf("stdout has no report:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "(0 dropped)") || !strings.Contains(stderr.String(), "match the simulator's reference") {
		t.Errorf("stderr has no parity summary:\n%s", stderr.String())
	}

	// -q silences stderr and leaves stdout byte-identical.
	var quiet, quietErr bytes.Buffer
	if err := run(strings.Fields("-risk -q -risk-users 8 -risk-days 5 -seed 7"), &quiet, &quietErr); err != nil {
		t.Fatal(err)
	}
	if quietErr.Len() != 0 || quiet.String() != stdout.String() {
		t.Errorf("-q run: stderr %q; stdout equal to the -authwatch run: %v", quietErr.String(), quiet.String() == stdout.String())
	}
}
