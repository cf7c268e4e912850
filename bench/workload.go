package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"openmfa/internal/authwatch"
	"openmfa/internal/clock"
	"openmfa/internal/core"
	"openmfa/internal/eventstream"
	"openmfa/internal/flightrec"
	"openmfa/internal/obs"
	"openmfa/internal/obs/prof"
	"openmfa/internal/obs/slo"
)

// workload is one load shape the benchmark runs.
type workload struct {
	name string
	mix  mix
	// disk puts the stores in a directory with the cmd/otpd daemon
	// defaults (fsync per commit, group commit, coalesced writes).
	disk bool
	// ops turns on every ops surface the way the daemons wire them. No
	// workload runs that way end to end; obsCost deploys one for comparison.
	ops bool
	// obsCost makes the traced run also drive the same traffic with ops on,
	// so the all-on cost of the ops surfaces is reported (obs.overhead_*).
	obsCost bool
	// openRate > 0 makes the load open-loop at this many arrivals per
	// second; 0 is closed-loop.
	openRate int
	// procs is the GOMAXPROCS the workload runs with. The closed loops get
	// one scheduler thread: on the two shared vCPUs this benchmark is given
	// a second one buys no throughput (the hops between cores cost what the
	// parallelism saves) and makes every timing depend on where the kernel
	// puts the threads. The open loop needs the second: its generator
	// sleeps in the kernel, and a thread asleep there keeps its scheduler
	// slot until the runtime's monitor takes it back, milliseconds later on
	// an otherwise idle process.
	procs int
	// unlisted keeps a workload out of BENCHMARK.json: it runs by name and
	// in a -out set and reports everything, but no bound is put on it.
	unlisted bool
}

// Frozen parameters; see README.md for how they were calibrated.
const (
	// openMemRate is ≈ 40 % of the seed commit's totp_mem logins_per_s,
	// rounded down to a multiple of 250.
	openMemRate = 1250
	// lateLimit is the latency limit behind late_ratio.
	lateLimit = 5 * time.Millisecond
)

var workloads = []workload{
	{name: "totp_mem", procs: 1, obsCost: true},
	{name: "totp_sync", procs: 1, disk: true},
	{name: "mix_paper", procs: 1, mix: mix{table1: true, exempt: 0.30, wrongFirst: 0.10}},
	{name: "open_mem", procs: 2, openRate: openMemRate, unlisted: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scale is what the smoke test shrinks; the benchmark itself always runs
// fullScale.
type scale struct {
	users   int // U, the MFA population
	clients int // client connections, at most nproc
	setups  int // how many times set-up is timed; setup_s is the median
	// soak is how long the load runs before measuring starts. The RADIUS
	// servers remember every request for their 5 s duplicate-detection
	// window (wall time), so a fresh stack's dedup tables — and with them
	// per-login cost — keep growing for that long.
	soak time.Duration
}

var fullScale = scale{users: 2048, clients: 2, setups: 2, soak: 5 * time.Second}

// deployment is one live stack with its population enrolled and warmed.
type deployment struct {
	sc    scale
	inf   *core.Infrastructure
	sim   *clock.Sim
	h     *harness
	src   *source
	reg   *obs.Registry // nil unless counters or ops are on
	dir   string
	stops []func() // ops engines, stopped in reverse order
	// coldIDM holds the first-login IDM.Authenticate times (µs) when the
	// deployment was asked to probe them.
	coldIDM []float64
}

var deploySeq atomic.Int64

// deploy stands the stack up with core.New, enrols the population and runs
// the warm-up pass; the time it takes is setup_s. counters passes an
// obs.Registry so the program's own counters can be read (traced runs);
// probeCold times each user's first IDM.Authenticate before the warm-up.
func deploy(w workload, sc scale, seed int64, base string, counters, probeCold bool) (d *deployment, err error) {
	d = &deployment{sc: sc, dir: filepath.Join(base, fmt.Sprintf("deploy-%d", deploySeq.Add(1)))}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		return d, err
	}
	pop := newPopulation(sc.users, w.mix)
	d.sim = clock.NewSim(epochStart)
	opts := core.Options{
		Clock:          d.sim,
		ExemptionRules: pop.exemptionRules(),
		Carrier:        zeroDelayCarrier(),
		Seed:           seed,
	}
	if w.disk {
		opts.DataDir = filepath.Join(d.dir, "data")
		opts.StoreSync, opts.StoreGroupCommit, opts.CoalesceWrites = true, true, true
	}
	if counters || w.ops {
		d.reg = obs.NewRegistry()
		opts.Obs = d.reg
	}
	if w.ops {
		if err := d.wireOps(&opts); err != nil {
			return d, err
		}
	}
	if d.inf, err = core.New(opts); err != nil {
		return d, fmt.Errorf("core.New: %w", err)
	}
	if err := pop.enrol(d.inf, sc.clients); err != nil {
		return d, err
	}
	d.h = newHarness(d.inf, pop, d.sim, opts.Logger)
	d.src = newSource(newTraffic(seed, pop, w.mix), d.sim, d.h.opts.Period)
	if probeCold {
		for i := range pop.users {
			t0 := time.Now()
			if err := d.inf.IDM.Authenticate(pop.users[i].name, password); err != nil {
				return d, fmt.Errorf("cold idm probe: %w", err)
			}
			d.coldIDM = append(d.coldIDM, float64(time.Since(t0))/1e3)
		}
	}
	return d, d.warmUp()
}

// warmUp logs every MFA user in once, untimed, so the IDM verify cache and
// the otpd secret cache are full: users pay PBKDF2 on their first login
// only.
func (d *deployment) warmUp() error {
	d.src.setLimit(d.sc.users)
	defer d.src.setLimit(math.MaxInt)
	return parallel(d.sc.clients, func(int) error {
		for {
			o, ok := d.src.take()
			if !ok {
				return nil
			}
			err := d.h.login(o, levelSSHD, nil, 0)
			d.src.done()
			if err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	})
}

// wireOps turns on every ops surface as cmd/otpd and its siblings do at
// their flag defaults: metrics, a rate-limited logger (to a discarding
// sink), spans, the event bus with authwatch, the flight recorder, an SLO
// evaluated every second, and the continuous profiler. Risk stays off: it
// changes authentication semantics.
func (d *deployment) wireOps(opts *core.Options) error {
	reg := d.reg
	tee := flightrec.NewLogTee(io.Discard, 0, 0)
	opts.Logger = obs.NewLogger(tee, obs.LevelInfo).RateLimit(200, time.Second, reg)
	d.stops = append(d.stops, obs.StartRuntimeSampler(reg, 0).Stop)
	opts.Spans = obs.NewSpanStore(0)
	opts.Events = eventstream.NewBus(reg)

	opts.SLO = slo.New(slo.Config{Obs: reg})
	if err := opts.SLO.Add(slo.Objective{
		Name: "logins", Target: 0.995,
		Source: slo.FamilySource{Reg: reg, Family: "sshd_auth_total",
			Good: func(labels string) bool { return strings.Contains(labels, `result="accept"`) }},
	}); err != nil {
		return err
	}
	opts.SLO.Start(time.Second)
	d.stops = append(d.stops, opts.SLO.Stop)

	opts.Watch = authwatch.New(authwatch.Config{Obs: reg, ExtraHealth: []obs.HealthCheck{opts.SLO.Health}})
	opts.Watch.Attach(opts.Events, 0)
	d.stops = append(d.stops, opts.Watch.Stop)

	rec, err := flightrec.New(flightrec.Config{
		Dir: filepath.Join(d.dir, "flightrec"), Bus: opts.Events, Spans: opts.Spans, Logs: tee, Obs: reg,
		Policy: flightrec.Policy{
			SampleRate: 0.01, SlowThreshold: 750 * time.Millisecond,
			AlertActive: func() bool { return opts.Watch.Health() != nil },
		},
	})
	if err != nil {
		return err
	}
	opts.FlightRec = rec
	d.stops = append(d.stops, rec.Stop)

	// prof.New sets the process-wide mutex profile fraction and nothing
	// sets it back; restore it so a later deployment in this process is
	// not measured with it on.
	prevMutex := runtime.SetMutexProfileFraction(-1)
	opts.Prof, err = prof.New(prof.Config{
		Dir: filepath.Join(d.dir, "prof"), Obs: reg, MutexFraction: 100,
		TraceIDs: func(n int) []string {
			var ids []string
			for _, s := range rec.List(flightrec.Query{Limit: n}) {
				ids = append(ids, s.Trace)
			}
			return ids
		},
	})
	if err != nil {
		return err
	}
	opts.Prof.AddTrigger("slo_fast_burn", prof.HealthTrigger(opts.SLO.Health))
	opts.Prof.AddTrigger("authwatch_alert", prof.HealthTrigger(opts.Watch.Health))
	opts.Prof.Start()
	d.stops = append(d.stops, opts.Prof.Stop, func() { runtime.SetMutexProfileFraction(prevMutex) })
	return nil
}

// close stops the stack and its engines and deletes its files.
func (d *deployment) close() {
	if d.inf != nil {
		d.inf.Close()
	}
	for i := len(d.stops) - 1; i >= 0; i-- {
		d.stops[i]()
	}
	os.RemoveAll(d.dir)
}

// storeDir is where the otpd store keeps its WAL (absent when in memory).
func (d *deployment) storeDir() string { return filepath.Join(d.dir, "data", "otpd") }

// segment is one pass over the pool inside a measured phase.
type segment struct {
	from, to procSnapshot
	lats     []float64 // µs, logins that finished inside the segment
}

func (s segment) logins() float64 { return float64(s.to.logins - s.from.logins) }

// perLogin divides a process-wide delta by the segment's logins.
func (s segment) perLogin(delta float64) float64 {
	if n := s.logins(); n > 0 {
		return delta / n
	}
	return 0
}

// tally is what a run of logins adds up to besides their latencies.
type tally struct {
	failed, late int
	firstErr     error

	// Open loop only: how late the generator started arrivals it was
	// idle for (µs), and the deepest backlog of due arrivals.
	lagUS    []float64
	queueMax int
}

func (t *tally) add(o tally) {
	t.failed += o.failed
	t.late += o.late
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
	t.lagUS = append(t.lagUS, o.lagUS...)
	t.queueMax = max(t.queueMax, o.queueMax)
}

// loadResult is what one measured phase produced.
type loadResult struct {
	tally
	attempted int
	segs      []segment
	walBytes  int64 // growth of the otpd store directory
}

// each returns one value per segment.
func (r loadResult) each(f func(segment) float64) []float64 {
	out := make([]float64, len(r.segs))
	for i, s := range r.segs {
		out[i] = f(s)
	}
	return out
}

func segP50(s segment) float64 { return percentile(s.lats, 0.50) }
func segRate(s segment) float64 {
	if dt := s.to.at.Sub(s.from.at).Seconds(); dt > 0 {
		return s.logins() / dt
	}
	return 0
}
func segCPU(s segment) float64 { return s.perLogin(float64(s.to.cpu-s.from.cpu) / 1e3) }
func segAllocs(s segment) float64 {
	return s.perLogin(float64(s.to.mallocs - s.from.mallocs))
}
func segBytes(s segment) float64 {
	return s.perLogin(float64(s.to.allocBytes - s.from.allocBytes))
}

// record is one finished login as a client goroutine saw it.
type record struct {
	end time.Time
	us  float64
}

// client is one connection's private tally.
type client struct {
	tally
	recs []record
}

func (c *client) finish(start, end time.Time, err error) {
	lat := end.Sub(start)
	c.recs = append(c.recs, record{end: end, us: float64(lat) / 1e3})
	if err != nil {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = err
		}
	}
	// A failed login also misses the latency limit.
	if err != nil || lat > lateLimit {
		c.late++
	}
}

// runLoad drives the deployment with clients connections for the soak and
// then dur: closed loop (each connection sends its next login when the last
// one returned) when rate is 0, else open loop at rate arrivals per second,
// where each login is timed from when it was due so a stall is charged to
// everything queued behind it. Logins during the soak are checked but not
// measured; the dur after it is cut into segments at the wraps of the pool.
func (d *deployment) runLoad(clients int, dur time.Duration, rate int, seed int64) (loadResult, error) {
	total := d.sc.soak + dur
	var due []time.Duration // open loop: arrival offsets from the start
	if rate > 0 {
		rng := rand.New(rand.NewSource(seed ^ 0x6f70656e)) // not the traffic stream
		for t := time.Duration(0); ; {
			t += time.Duration(rng.ExpFloat64() / float64(rate) * float64(time.Second))
			if t >= total {
				break
			}
			due = append(due, t)
		}
	}
	walBefore := dirBytes(d.storeDir())

	var completed, nextArrival atomic.Int64
	tallies := make([]client, clients)
	var wg sync.WaitGroup
	var snaps []procSnapshot
	start := time.Now()
	// Every wrap after the soak is a segment boundary. Nothing is in flight
	// then, so the process-wide deltas between two boundaries belong to that
	// pass's logins and to nothing else.
	d.src.setOnWrap(func() {
		if time.Since(start) >= d.sc.soak {
			snaps = append(snaps, takeSnapshot(completed.Load()))
		}
	})
	defer d.src.setOnWrap(nil)
	for c := range tallies {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				var from time.Time
				if rate == 0 {
					if time.Since(start) >= total {
						return
					}
				} else {
					i := int(nextArrival.Add(1) - 1)
					if i >= len(due) {
						return
					}
					from = start.Add(due[i])
					if wait := time.Until(from); wait > 0 {
						sleepPrecisely(wait)
						c.lagUS = append(c.lagUS, float64(time.Since(from))/1e3)
					} else {
						depth, now := 1, time.Since(start)
						for j := i + 1; j < len(due) && due[j] <= now; j++ {
							depth++
						}
						c.queueMax = max(c.queueMax, depth)
					}
				}
				o, _ := d.src.take()
				if rate == 0 {
					// Closed loop times Dial→Close only; waiting for the
					// epoch step inside take is the generator's business.
					from = time.Now()
				}
				err := d.h.login(o, levelSSHD, nil, 0)
				c.finish(from, time.Now(), err)
				completed.Add(1)
				d.src.done()
			}
		}(&tallies[c])
	}
	wg.Wait()

	if len(snaps) < 2 {
		return loadResult{}, fmt.Errorf("%s measured held no complete pass over the %d users; run longer", dur, d.sc.users)
	}
	res := loadResult{segs: make([]segment, len(snaps)-1)}
	for k := range res.segs {
		res.segs[k] = segment{from: snaps[k], to: snaps[k+1]}
	}
	for i := range tallies {
		c := &tallies[i]
		res.attempted += len(c.recs)
		res.add(c.tally)
		for _, r := range c.recs {
			// Logins of the soak and of the unfinished last pass are
			// verified and counted, but belong to no segment.
			if !r.end.After(snaps[0].at) {
				continue
			}
			for k := range res.segs {
				if !r.end.After(res.segs[k].to.at) {
					res.segs[k].lats = append(res.segs[k].lats, r.us)
					break
				}
			}
		}
	}
	res.walBytes = dirBytes(d.storeDir()) - walBefore
	return res, nil
}

// sleepPrecisely blocks for d in the kernel. time.Sleep is not good enough
// for an arrival schedule: when the whole process is idle the Go runtime
// waits in epoll with millisecond granularity, so sub-millisecond sleeps
// come back up to a millisecond late.
func sleepPrecisely(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil)
}
