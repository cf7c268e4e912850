package main

import (
	"math"
	"regexp"
	"sort"
	"testing"
	"time"
)

// smokeScale is the benchmark at roughly 1/200 of its size: it exists to
// fail the build when a refactor of core.Options or a layer API breaks the
// harness, not to measure anything.
var smokeScale = scale{users: 64, clients: 2, setups: 1}

// smokeDur is long enough that a quarter of it, which is what the traced
// run gives each of its phases, holds whole passes over the 64 users even
// at the open loop's fixed rate.
const smokeDur = 800 * time.Millisecond

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkMetrics asserts r reports exactly the metrics want lists, with the
// listed units.
func checkMetrics(t *testing.T, r *result, want []specMetric) {
	t.Helper()
	var got, names []string
	for n := range r.Metrics {
		if !isCompanion(n) {
			got = append(got, n)
		}
	}
	for _, m := range want {
		names = append(names, m.Name)
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("BENCHMARK.json: bad name or unit: %q %q", m.Name, m.Unit)
		}
		if rm, ok := r.Metrics[m.Name]; ok && rm.Unit != m.Unit {
			t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, rm.Unit, m.Unit)
		}
	}
	sort.Strings(got)
	sort.Strings(names)
	if len(got) != len(names) {
		t.Fatalf("reported %d metrics %v\nBENCHMARK.json lists %d %v", len(got), got, len(names), names)
	}
	for i := range got {
		if got[i] != names[i] {
			t.Fatalf("metric %q reported where BENCHMARK.json lists %q", got[i], names[i])
		}
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("correct=%v failed=%d attempted=%d: %s", r.Correct, r.Failed, r.Attempted, r.Error)
	}
}

func TestSmoke(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, w := range workloads {
		if !w.unlisted {
			listed = append(listed, w.name)
		}
	}
	if len(spec.Workloads) != len(listed) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness lists %v", len(spec.Workloads), listed)
	}
	for i, name := range listed {
		if spec.Workloads[i].Name != name {
			t.Fatalf("workload %d is %q in BENCHMARK.json and %q in the harness", i, spec.Workloads[i].Name, name)
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			base := t.TempDir()
			e2e, err := runE2E(w, smokeScale, 1, smokeDur, base)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, e2e, spec.EndToEnd)
			for _, m := range spec.EndToEnd {
				if e2e.Metrics[m.Name].Value <= 0 {
					t.Errorf("%s = %v: an end-to-end metric is never 0", m.Name, e2e.Metrics[m.Name].Value)
				}
			}

			tr, err := runTraced(w, smokeScale, 1, smokeDur, base)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, tr, spec.PerLayer)
			v := func(name string) float64 { return tr.Metrics[name].Value }
			if v("e2e.fail_ratio") != 0 {
				t.Errorf("e2e.fail_ratio = %v", v("e2e.fail_ratio"))
			}
			sum := v("sshd.self_us") + v("pam.self_us") + v("radius.self_us") + v("otpd.self_us") +
				v("authlog.scan_us") + v("idm.auth_us") + v("accessctl.check_us") +
				v("otp.validate_us") + v("store.apply_us")
			if total := v("sshd.login_us"); total <= 0 || math.Abs(sum-total) > 1e-6*total {
				t.Errorf("layer self times sum to %v, traced login is %v", sum, total)
			}
			if math.Abs(v("layers.sum_us")-sum) > 1e-6*sum {
				t.Errorf("layers.sum_us = %v, the rows sum to %v", v("layers.sum_us"), sum)
			}
			if len(tr.spans.spans) == 0 {
				t.Error("the traced run recorded no spans")
			}
		})
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := specMetric{Name: "login_p50_us", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "logins_per_s", Better: "higher", Bound: 0.10}
	m := func(v float64) metric { return metric{Value: v} }
	for _, c := range []struct {
		spec       specMetric
		a, b       float64
		aIQR, bIQR float64
		want       string
	}{
		{lower, 100, 105, 1, 1, "ok"},
		{lower, 100, 111, 1, 1, "worse"},
		{lower, 100, 50, 1, 1, "ok"},
		{higher, 100, 95, 1, 1, "ok"},
		{higher, 100, 89, 1, 1, "worse"},
		{higher, 100, 150, 1, 1, "ok"},
		{lower, 100, 130, 11, 1, "unresolved"},
		{lower, 100, 130, 1, 14, "unresolved"},
	} {
		if got, _ := verdict(c.spec, m(c.a), m(c.b), c.aIQR, c.bIQR); got != c.want {
			t.Errorf("%s %v→%v (iqr %v, %v): %s, want %s", c.spec.Name, c.a, c.b, c.aIQR, c.bIQR, got, c.want)
		}
	}
}

func TestIQRMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11], n=4) == [1.5, 4.0, 9.0]
	if got := iqr([]float64{11, 1, 7, 2, 4}); math.Abs(got-7.5) > 1e-12 {
		t.Errorf("iqr = %v, want 7.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := iqr([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5) > 1e-12 {
		t.Errorf("iqr = %v, want 5.5", got)
	}
}
