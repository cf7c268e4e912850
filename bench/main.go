// Command bench (mfabench) is the repository's login benchmark: a
// single-process load harness that stands up the real stack with core.New,
// drives it only through public entry points, checks every outcome, and
// prints every metric by name with its unit. BENCHMARK.json at the
// repository root fixes the names and bounds; README.md in this directory
// explains the protocol.
//
//	go run ./bench -workload totp_mem -seed 1 -seconds 20 -trace 0
//	go run ./bench -out set.json             # all workloads, both modes
//	go run ./bench -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number. A ".iqr" or ".samples" suffix on a name
// marks a companion of the metric before the dot.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload in one mode.
type result struct {
	Workload  string            `json:"workload"`
	Trace     int               `json:"trace"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Procs     int               `json:"gomaxprocs"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Error is the first failure, for the human reading the file.
	Error string `json:"error,omitempty"`

	spans *tracer
}

func newResult(w workload, trace int, seed int64, dur time.Duration) *result {
	return &result{Workload: w.name, Trace: trace, Seed: seed, Seconds: dur.Seconds(),
		Procs: runtime.GOMAXPROCS(0), Metrics: map[string]metric{}}
}

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// setPasses reports one value for a run from its per-pass values: their
// quartile on the metric's good side (the first, or the third when higher is
// better). The box this runs on drifts between faster and slower spells that
// last seconds, and a neighbour can only ever slow a pass down; the good
// quartile is the level the stack holds while the box is quiet, and stays
// put while up to three quarters of a run are disturbed. The inter-quartile
// distance across the passes goes beside it: the run's own noise estimate.
func (r *result) setPasses(name string, v []float64, unit string, higherIsBetter bool) {
	p := 0.25
	if higherIsBetter {
		p = 0.75
	}
	r.set(name, percentile(append([]float64(nil), v...), p), unit)
	r.set(name+".iqr", iqr(v), unit)
}

func (r *result) fail(err error) {
	if err != nil && r.Error == "" {
		r.Error = err.Error()
	}
}

// isCompanion reports whether name is a ".iqr"/".samples" entry.
func isCompanion(name string) bool {
	return strings.HasSuffix(name, ".iqr") || strings.HasSuffix(name, ".samples")
}

// runE2E measures a workload untraced: set-up (several times, for a steady
// setup_s), then one measured phase in the workload's own load shape.
func runE2E(w workload, sc scale, seed int64, dur time.Duration, base string) (*result, error) {
	r := newResult(w, 0, seed, dur)
	var d *deployment
	setups := make([]float64, 0, sc.setups)
	for i := 0; i < sc.setups; i++ {
		if d != nil {
			d.close()
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if d, err = deploy(w, sc, seed, base, false, false); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer d.close()

	load, err := d.runLoad(sc.clients, dur, w.openRate, seed)
	if err != nil {
		return nil, err
	}
	checks, bad := d.h.verifyState()
	r.Attempted, r.Failed = load.attempted+checks, load.failed+len(bad)
	r.fail(load.firstErr)
	r.fail(errors.Join(bad...))
	r.Correct = r.Failed == 0

	r.set("setup_s", median(setups), "s")
	r.set("setup_s.iqr", iqr(setups), "s")
	r.setPasses("login_p50_us", load.each(segP50), "us", false)
	r.setPasses("logins_per_s", load.each(segRate), "1/s", true)
	r.setPasses("cpu_us_per_login", load.each(segCPU), "us", false)
	r.setPasses("allocs_per_login", load.each(segAllocs), "count", false)
	r.setPasses("bytes_per_login", load.each(segBytes), "B", false)
	return r, nil
}

// runTraced produces the per-layer metrics: an untraced one-client
// reference, then on a deployment that carries an obs.Registry (so the
// program's own counters can be read) a short phase in the workload's load
// shape and the one-client peel.
func runTraced(w workload, sc scale, seed int64, dur time.Duration, base string) (*result, error) {
	r := newResult(w, 1, seed, dur)

	reference := func(w workload) (loadResult, error) {
		d, err := deploy(w, sc, seed, base, false, false)
		if err != nil {
			return loadResult{}, err
		}
		defer d.close()
		res, err := d.runLoad(1, dur/4, 0, seed)
		if err != nil {
			return loadResult{}, err
		}
		r.Attempted += res.attempted
		r.Failed += res.failed
		r.fail(res.firstErr)
		return res, nil
	}
	ref, err := reference(w)
	if err != nil {
		return nil, err
	}
	refP50 := median(ref.each(segP50))
	// The all-on cost of the ops surfaces is the difference between the
	// same one-client traffic with them on and off.
	var withOps loadResult
	if w.obsCost {
		on := w
		on.ops = true
		if withOps, err = reference(on); err != nil {
			return nil, err
		}
	}

	d, err := deploy(w, sc, seed, base, true, true)
	if err != nil {
		return nil, err
	}
	defer d.close()
	applies, fsyncs := d.reg.Counter("store_apply_total"), d.reg.Counter("store_fsync_total")
	a0, f0 := applies.Value(), fsyncs.Value()
	load, err := d.runLoad(sc.clients, dur/4, w.openRate, seed)
	if err != nil {
		return nil, err
	}
	loadApplies, loadFsyncs := applies.Value()-a0, fsyncs.Value()-f0
	peel := d.runPeel(dur / 2)
	checks, bad := d.h.verifyState()

	r.spans = peel.tr
	r.Attempted += load.attempted + peel.logins + checks
	r.Failed += load.failed + peel.failed + len(bad)
	r.fail(load.firstErr)
	r.fail(peel.firstErr)
	r.fail(errors.Join(bad...))
	r.Correct = r.Failed == 0

	dd := peel.tr.durations()
	b := newLayerBudget(dd)
	perLogin := func(n int64, logins int) float64 {
		if logins == 0 {
			return 0
		}
		return float64(n) / float64(logins)
	}

	r.set("sshd.login_us", b.sshd, "us")
	r.set("sshd.self_us", b.sshdSelf, "us")
	r.set("sshd.allocs", peel.allocs[layerSSHD], "count")
	r.set("pam.auth_us", b.pam, "us")
	r.set("pam.self_us", b.pamSelf, "us")
	r.set("pam.allocs", peel.allocs[layerPAM], "count")
	r.set("authlog.scan_us", b.authlog, "us")
	r.set("authlog.scan_growth_ratio", growth(dd[layerAuthlog]), "1")
	r.set("idm.auth_us", b.idm, "us")
	r.set("idm.auth_cold_us", median(d.coldIDM), "us")
	r.set("accessctl.check_us", b.acl, "us")
	r.set("radius.exchange_us", b.radius, "us")
	r.set("radius.self_us", b.radiusSelf, "us")
	r.set("radius.allocs", peel.allocs[layerRADIUSLogin], "count")
	r.set("radius.retransmits_per_login", perLogin(peel.retransmits, peel.logins), "count")
	r.set("otpd.check_us", b.otpd, "us")
	r.set("otpd.self_us", b.otpSelf, "us")
	r.set("otpd.allocs", peel.allocs[layerOTPDLogin], "count")
	r.set("otpd.check_fail_us", median(dd[layerOTPDFail]), "us")
	r.set("otp.validate_us", b.validate, "us")
	r.set("otp.validate_miss_us", median(dd[layerValidateBad]), "us")
	r.set("sms.trigger_us", median(dd[layerSMSTrigger]), "us")
	r.set("store.apply_us", b.store, "us")
	r.set("store.allocs", peel.allocs[layerStore], "count")
	r.set("store.fsyncs_per_login", perLogin(peel.fsyncs, peel.logins), "count")
	batch := 0.0
	if loadFsyncs > 0 {
		batch = float64(loadApplies) / float64(loadFsyncs)
	}
	r.set("store.fsync_batch_mean", batch, "count")
	r.set("store.wal_bytes_per_login", perLogin(load.walBytes, load.attempted), "B")

	var ovUS, ovCPU, ovAllocs float64
	if w.obsCost {
		ovUS = median(withOps.each(segP50)) - refP50
		ovCPU = median(withOps.each(segCPU)) - median(ref.each(segCPU))
		ovAllocs = median(withOps.each(segAllocs)) - median(ref.each(segAllocs))
	}
	r.set("obs.overhead_us", ovUS, "us")
	r.set("obs.overhead_cpu_us", ovCPU, "us")
	r.set("obs.overhead_allocs", ovAllocs, "count")

	r.set("gen.lag_p99_us", percentile(load.lagUS, 0.99), "us")
	r.set("gen.queue_max", float64(load.queueMax), "count")

	first, last := load.segs[0].from, load.segs[len(load.segs)-1].to
	r.set("proc.peak_rss_mb", peakRSSMB(), "MB")
	r.set("proc.gc_cycles", float64(last.gcCycles-first.gcCycles), "count")
	r.set("proc.gc_pause_total_ms", float64(last.gcPause-first.gcPause)/1e6, "ms")

	r.set("layers.sum_us", b.sum(), "us")
	r.set("layers.unexplained_us", refP50-b.sum(), "us")
	r.set("ref.login_p50_us", refP50, "us")
	ratio := 0.0
	if refP50 > 0 {
		ratio = b.sshd / refP50
	}
	r.set("trace.overhead_ratio", ratio, "1")
	// The tail is pooled over the whole load-shape phase: its segments are
	// too short to hold ten samples beyond the 99th percentile each.
	var lats []float64
	for _, s := range load.segs {
		lats = append(lats, s.lats...)
	}
	r.set("e2e.login_p99_us", percentile(lats, 0.99), "us")
	r.set("e2e.login_p99_us.samples", float64(len(lats)), "count")
	r.set("e2e.fail_ratio", perLogin(int64(load.failed), load.attempted), "1")
	r.set("e2e.late_ratio", perLogin(int64(load.late), load.attempted), "1")
	return r, nil
}

// print writes every metric by name with its unit, then — as the last line
// of standard output — the JSON object the benchmark contract asks for.
func (r *result) print() error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		if !isCompanion(n) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fmt.Printf("# %s trace=%d seed=%d seconds=%g\n", r.Workload, r.Trace, r.Seed, r.Seconds)
	line := map[string]metric{}
	for _, n := range names {
		m := r.Metrics[n]
		line[n] = m
		extra := ""
		if q, ok := r.Metrics[n+".iqr"]; ok {
			extra += fmt.Sprintf("  iqr %.6g", q.Value)
		}
		if s, ok := r.Metrics[n+".samples"]; ok {
			extra += fmt.Sprintf("  samples %.0f", s.Value)
		}
		fmt.Printf("%-30s %14.6g %-6s%s\n", n, m.Value, m.Unit, extra)
	}
	if r.Error != "" {
		fmt.Printf("# FAILED: %s\n", r.Error)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, line})
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(out))
	return err
}

// runSet is the file -out writes: every workload in both modes, with where
// and how it was measured.
type runSet struct {
	Meta    map[string]string `json:"meta"`
	Results []*result         `json:"results"`
}

func newMeta() map[string]string {
	m := map[string]string{
		"go":      runtime.Version(),
		"nproc":   strconv.Itoa(runtime.NumCPU()),
		"cpu":     cpuModel(),
		"commit":  "unknown",
		"users":   strconv.Itoa(fullScale.users),
		"clients": strconv.Itoa(fullScale.clients),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m["commit"] = s.Value
			}
		}
	}
	return m
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runAll runs every workload in both modes, each in a process of its own —
// exactly what the acceptance driver does — so peak RSS, heap size and
// profiler settings never leak from one run into the next.
func runAll(seed int64, seconds float64, base, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	s := runSet{Meta: newMeta()}
	s.Meta["seed"] = strconv.FormatInt(seed, 10)
	bad := 0
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			part := filepath.Join(base, fmt.Sprintf("part-%s-%d.json", w.name, trace))
			cmd := exec.Command(self, "-workload", w.name, "-trace", strconv.Itoa(trace),
				"-seed", strconv.FormatInt(seed, 10), "-seconds", fmt.Sprint(seconds),
				"-dir", base, "-out", part)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			runErr := cmd.Run()
			b, err := os.ReadFile(part)
			if err != nil {
				return fmt.Errorf("%s trace=%d produced no result: %v", w.name, trace, runErr)
			}
			var r result
			if err := json.Unmarshal(b, &r); err != nil {
				return err
			}
			if !r.Correct {
				bad++
			}
			s.Results = append(s.Results, &r)
		}
	}
	if out != "" {
		if err := writeJSON(out, s); err != nil {
			return err
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d runs were not correct", bad)
	}
	return nil
}

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	traceOut string
	dir      string
	compare  bool
	spec     string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (empty = all of them, in both modes)")
	flag.Int64Var(&o.seed, "seed", 1, "traffic seed; any other value is a held-out sequence")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the measured phase")
	flag.IntVar(&o.trace, "trace", 0, "0 = untraced end-to-end metrics, 1 = traced per-layer metrics")
	flag.StringVar(&o.out, "out", "", "also write the result (or the whole set) as JSON to this file")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -trace 1: write the harness spans as JSON lines to this file")
	flag.StringVar(&o.dir, "dir", ".bench_build", "scratch directory for stores and ops-engine segments")
	flag.BoolVar(&o.compare, "compare", false, "compare two -out files given as arguments against the bounds in -spec")
	flag.StringVar(&o.spec, "spec", "BENCHMARK.json", "benchmark definition read by -compare")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	if o.compare {
		if len(args) != 2 {
			return errors.New("-compare needs two result files")
		}
		return compareFiles(o.spec, args[0], args[1])
	}
	if o.seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return err
	}
	base, err := os.MkdirTemp(o.dir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)
	if o.workload == "" {
		return runAll(o.seed, o.seconds, base, o.out)
	}
	w, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	runtime.GOMAXPROCS(w.procs)
	dur := time.Duration(o.seconds * float64(time.Second))
	var r *result
	if o.trace == 0 {
		r, err = runE2E(w, fullScale, o.seed, dur, base)
	} else {
		r, err = runTraced(w, fullScale, o.seed, dur, base)
	}
	if err != nil {
		return err
	}
	if o.traceOut != "" && r.spans != nil {
		if err := r.spans.writeTo(o.traceOut); err != nil {
			return err
		}
	}
	if o.out != "" {
		if err := writeJSON(o.out, r); err != nil {
			return err
		}
	}
	if err := r.print(); err != nil {
		return err
	}
	if !r.Correct {
		return fmt.Errorf("%s: %d of %d checks failed: %s", w.name, r.Failed, r.Attempted, r.Error)
	}
	return nil
}
