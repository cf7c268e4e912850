package rollout

import (
	"fmt"
	"strings"

	"openmfa/internal/authwatch"
	"openmfa/internal/metrics"
)

// CrossCheck compares a simulator's reference aggregates (Result.Metrics /
// RiskEvalResult.Metrics and the SMS count) against what an
// authwatch.Watcher accumulated from the same run's event bus. The two are
// computed by entirely different code — the reference by direct counting
// inside the simulator loop, the watcher one event at a time off the bus —
// so agreement is a strong end-to-end check on the whole event pipeline.
// When every daily series (unique MFA users, traffic all/external/
// external-MFA, login failures) and the SMS total match exactly it returns
// a one-line summary; otherwise an error listing the first mismatches.
//
// Call after the watcher has drained (Watcher.Stop); a subscription that
// dropped events cannot be compared and is reported as a mismatch.
func CrossCheck(daily *metrics.Daily, smsTotal int, w *authwatch.Watcher) (string, error) {
	var diffs []string
	addDiff := func(format string, args ...any) {
		if len(diffs) < 10 {
			diffs = append(diffs, fmt.Sprintf(format, args...))
		}
	}

	snap := w.Snapshot()
	if snap.Dropped > 0 {
		addDiff("subscription dropped %d events; streaming aggregates are incomplete", snap.Dropped)
	}
	days := make(map[string]authwatch.DaySnapshot, len(snap.Days))
	for _, d := range snap.Days {
		days[d.Date] = d
	}

	checked := make(map[string]bool)
	for i := 0; i < daily.Days; i++ {
		date := daily.Date(i)
		key := date.Format("2006-01-02")
		checked[key] = true
		ds := days[key] // zero value when the stream saw no events that day
		compare := func(series string, stream int) {
			if ref := int(daily.Get(date, series)); ref != stream {
				addDiff("%s %s: reference=%d stream=%d", key, series, ref, stream)
			}
		}
		compare(SeriesUniqueMFAUsers, ds.UniqueMFAUsers)
		compare(SeriesTrafficAll, ds.TrafficAll)
		compare(SeriesTrafficExternal, ds.TrafficExt)
		compare(SeriesTrafficExtMFA, ds.TrafficExtMFA)
		compare(SeriesLoginFailures, ds.LoginFailures)
	}
	for _, d := range snap.Days {
		if !checked[d.Date] && (d.TrafficAll > 0 || d.LoginFailures > 0) {
			addDiff("stream has login activity on %s, outside the simulated calendar", d.Date)
		}
	}
	if snap.SMSTotal != smsTotal {
		addDiff("sms total: reference=%d stream=%d", smsTotal, snap.SMSTotal)
	}

	if len(diffs) > 0 {
		return "", fmt.Errorf("streaming/reference aggregate mismatch:\n  %s", strings.Join(diffs, "\n  "))
	}
	return fmt.Sprintf(
		"authwatch: %d events streamed (0 dropped), %d days: daily aggregates and %d SMS match the simulator's reference",
		snap.Events, len(snap.Days), snap.SMSTotal), nil
}
