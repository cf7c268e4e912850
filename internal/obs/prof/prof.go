// Package prof is the daemons' black box: a continuous profiler plus an
// incident engine that explains *why* an SLO burned.
//
// The continuous half is a background sampler that periodically captures
// a short delta CPU profile and heap/goroutine/mutex/block snapshots
// into a bounded in-memory ring. The sampler's overhead budget is
// structural: the CPU profile window is clamped to at most a tenth of
// the sampling period, so profiling is active ≤10% of wall time at the
// runtime's default 100 Hz sample rate (and the shipped defaults —
// 250ms every 30s — keep it under 1%). TestProfOverheadGate in
// internal/otpd holds the measured cost on otpd.Check within 5%.
//
// The incident half subscribes triggers to existing signals (SLO
// fast-burn, authwatch alerts, latency spikes, sticky store errors, a
// manual endpoint). When one fires, the profile ring is frozen together
// with a fresh capture, a goroutine dump, a metrics snapshot, runtime
// stats, and recent flight-recorder trace IDs into an incident bundle
// persisted crash-safe through internal/seglog — the same length-prefix
// + CRC + commit-marker framing the flight recorder uses, with rotated
// size-capped segments and torn-tail truncation on recovery. Trigger
// debounce guarantees a flapping alert cannot fill the disk.
//
// Bundles are served over /debug/prof (see Mount) and readable offline
// with loganalyze -format incident (see ReadDir), which never mutates
// the directory it scans.
package prof

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"openmfa/internal/clock"
	"openmfa/internal/obs"
)

// SegPrefix names incident segment files: incident-NNNNNN.seg.
const SegPrefix = "incident-"

// snapshotKinds are the runtime/pprof profiles captured on every sample
// in addition to the delta CPU profile.
var snapshotKinds = []string{"heap", "goroutine", "mutex", "block"}

// Config parameterises New. Zero values get conservative defaults; only
// Dir changes the storage mode (empty keeps incidents in memory only).
type Config struct {
	// Dir persists incident bundles as rotated segments. Empty means
	// memory-only: incidents survive until process exit, not across it.
	Dir string
	// Obs receives the prof_* metrics (optional).
	Obs *obs.Registry
	// Clock stamps captures and incidents and drives debounce. The CPU
	// profile window always uses real time (the runtime's sampler does).
	// Defaults to clock.Real.
	Clock clock.Clock
	// Period is the continuous sampling interval (default 30s).
	Period time.Duration
	// CPUDuration is the delta CPU profile window per capture (default
	// 250ms). Clamped to Period/10 so the sampler cannot spend more than
	// a tenth of wall time profiling — the structural overhead budget.
	CPUDuration time.Duration
	// Retention bounds the in-memory capture ring (default 8).
	Retention int
	// Debounce suppresses trigger-fired incidents arriving within this
	// window of the previous one (default 10m). Manual fires bypass the
	// check but still arm it.
	Debounce time.Duration
	// MaxSegmentSize rotates incident segments (default 64 MiB).
	MaxSegmentSize int64
	// MaxSegments bounds retained incident segments (default 4).
	MaxSegments int
	// MaxDumpBytes caps the goroutine dump embedded in a bundle
	// (default 1 MiB); longer dumps are truncated and flagged.
	MaxDumpBytes int
	// TraceIDs, when set, is asked for up to n recent flight-recorder
	// trace IDs to embed in each incident (wire to flightrec TraceIDs).
	TraceIDs func(n int) []string
	// MutexFraction, when > 0, is passed to
	// runtime.SetMutexProfileFraction so mutex snapshots have data. The
	// setting is process-wide; Stop puts the previous fraction back.
	MutexFraction int
}

// Capture is one continuous-profiler sample: a delta CPU profile plus
// point-in-time snapshots, all raw pprof protobuf (gzip) bytes.
type Capture struct {
	Time time.Time `json:"time"`
	// CPUSeconds is the CPU profile window length (0 when the CPU
	// profiler was unavailable, e.g. another profile was running).
	CPUSeconds float64 `json:"cpu_seconds,omitempty"`
	// Profiles maps kind ("cpu", "heap", "goroutine", "mutex", "block")
	// to raw profile bytes.
	Profiles map[string][]byte `json:"profiles"`
	// Bytes totals the profile payloads.
	Bytes int `json:"bytes"`
	// Err notes a partial capture (some kinds may still be present).
	Err string `json:"err,omitempty"`
}

// RuntimeStats is the point-in-time runtime block embedded in a bundle.
type RuntimeStats struct {
	GoVersion    string `json:"go_version"`
	NumCPU       int    `json:"num_cpu"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NumGoroutine int    `json:"num_goroutine"`
	HeapAlloc    uint64 `json:"heap_alloc"`
	HeapSys      uint64 `json:"heap_sys"`
	HeapObjects  uint64 `json:"heap_objects"`
	NumGC        uint32 `json:"num_gc"`
	PauseTotalNs uint64 `json:"pause_total_ns"`
}

func readRuntimeStats() RuntimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return RuntimeStats{
		GoVersion:    runtime.Version(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumGoroutine: runtime.NumGoroutine(),
		HeapAlloc:    ms.HeapAlloc,
		HeapSys:      ms.HeapSys,
		HeapObjects:  ms.HeapObjects,
		NumGC:        ms.NumGC,
		PauseTotalNs: ms.PauseTotalNs,
	}
}

// cpuBusy is process-wide: runtime/pprof allows one CPU profile at a
// time across the whole process (including /debug/pprof/profile), so
// every Engine shares the guard.
var cpuBusy atomic.Bool

// Engine is the continuous profiler + incident engine. Create with New,
// register triggers with AddTrigger, then either Start the background
// sampler (daemons) or drive CaptureOnce/Evaluate manually (tests).
type Engine struct {
	cfg    Config
	clk    clock.Clock
	cpuDur time.Duration

	captures   *obs.Counter
	capErrs    *obs.Counter
	capBytes   *obs.Counter
	capDur     *obs.Histogram
	ringG      *obs.Gauge
	incidentsG *obs.Gauge
	suppressed *obs.Counter
	recovered  *obs.Counter
	tornC      *obs.Counter

	mu        sync.Mutex
	ring      []*Capture
	triggers  []trigger
	lastFire  time.Time
	haveFired bool
	store     incidentStore
	// prevMutex is the process-wide mutex profile fraction New replaced;
	// restoreMutex is cleared once Stop has put it back.
	prevMutex    int
	restoreMutex bool

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// New builds an engine and, when cfg.Dir is set, recovers previously
// persisted incidents (truncating torn tails left by a crash).
func New(cfg Config) (*Engine, error) {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.Period <= 0 {
		cfg.Period = 30 * time.Second
	}
	if cfg.CPUDuration <= 0 {
		cfg.CPUDuration = 250 * time.Millisecond
	}
	if cfg.Retention <= 0 {
		cfg.Retention = 8
	}
	if cfg.Debounce <= 0 {
		cfg.Debounce = 10 * time.Minute
	}
	if cfg.MaxSegmentSize <= 0 {
		cfg.MaxSegmentSize = 64 << 20
	}
	if cfg.MaxSegments <= 0 {
		cfg.MaxSegments = 4
	}
	if cfg.MaxDumpBytes <= 0 {
		cfg.MaxDumpBytes = 1 << 20
	}
	e := &Engine{
		cfg:    cfg,
		clk:    cfg.Clock,
		cpuDur: cfg.CPUDuration,

		captures:   cfg.Obs.Counter("prof_captures_total"),
		capErrs:    cfg.Obs.Counter("prof_capture_errors_total"),
		capBytes:   cfg.Obs.Counter("prof_capture_bytes_total"),
		capDur:     cfg.Obs.Histogram("prof_capture_duration_seconds", obs.DefBuckets()),
		ringG:      cfg.Obs.Gauge("prof_ring_captures"),
		incidentsG: cfg.Obs.Gauge("prof_incidents"),
		suppressed: cfg.Obs.Counter("prof_incidents_suppressed_total"),
		recovered:  cfg.Obs.Counter("prof_incidents_recovered_total"),
		tornC:      cfg.Obs.Counter("prof_torn_segments_total"),
	}
	// The overhead budget is structural: never profile CPU for more than
	// a tenth of the sampling period.
	if max := cfg.Period / 10; e.cpuDur > max && max > 0 {
		e.cpuDur = max
	}
	if err := e.openStore(); err != nil {
		return nil, err
	}
	if cfg.MutexFraction > 0 {
		e.prevMutex = runtime.SetMutexProfileFraction(cfg.MutexFraction)
		e.restoreMutex = true
	}
	e.incidentsG.Set(float64(e.store.len()))
	return e, nil
}

// CaptureOnce takes one continuous-profiler sample and pushes it into
// the ring. The CPU profile window sleeps in real time, outside the
// engine lock. Safe for concurrent use; concurrent CPU profiling is
// resolved by one caller winning the window and the rest capturing
// snapshots only.
func (e *Engine) CaptureOnce() *Capture {
	realStart := time.Now()
	c := &Capture{Time: e.clk.Now(), Profiles: make(map[string][]byte, 1+len(snapshotKinds))}
	if cpuBusy.CompareAndSwap(false, true) {
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			// Something outside the guard (e.g. a live /debug/pprof/profile
			// scrape) owns the profiler; degrade to snapshots.
			c.Err = err.Error()
			e.capErrs.Inc()
		} else {
			time.Sleep(e.cpuDur)
			pprof.StopCPUProfile()
			c.Profiles["cpu"] = buf.Bytes()
			c.CPUSeconds = e.cpuDur.Seconds()
		}
		cpuBusy.Store(false)
	} else {
		c.Err = "cpu profiler busy"
		e.capErrs.Inc()
	}
	for _, kind := range snapshotKinds {
		p := pprof.Lookup(kind)
		if p == nil {
			continue
		}
		var buf bytes.Buffer
		if err := p.WriteTo(&buf, 0); err != nil {
			c.Err = fmt.Sprintf("%s: %v", kind, err)
			e.capErrs.Inc()
			continue
		}
		c.Profiles[kind] = buf.Bytes()
	}
	for _, b := range c.Profiles {
		c.Bytes += len(b)
	}
	e.captures.Inc()
	e.capBytes.Add(int64(c.Bytes))
	e.capDur.Observe(time.Since(realStart).Seconds())

	e.mu.Lock()
	e.ring = append(e.ring, c)
	if len(e.ring) > e.cfg.Retention {
		e.ring = append(e.ring[:0:0], e.ring[len(e.ring)-e.cfg.Retention:]...)
	}
	e.ringG.Set(float64(len(e.ring)))
	e.mu.Unlock()
	return c
}

// Ring returns a snapshot of the capture ring, oldest first.
func (e *Engine) Ring() []*Capture {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]*Capture(nil), e.ring...)
}

// Start launches the background sampler: every Period it takes a
// capture and evaluates the registered triggers. Returns immediately;
// Stop shuts it down synchronously. Nil-safe and idempotent.
func (e *Engine) Start() {
	if e == nil || e.stop != nil {
		return
	}
	e.stop = make(chan struct{})
	e.done = make(chan struct{})
	go func() {
		defer close(e.done)
		t := time.NewTicker(e.cfg.Period)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				e.CaptureOnce()
				e.Evaluate()
			case <-e.stop:
				return
			}
		}
	}()
}

// Stop halts the sampler (waiting for it to exit), closes the incident
// log, and restores the mutex profile fraction New replaced. Further
// persisted fires fail; List/Get keep working. Safe when Start was never
// called, and idempotent.
func (e *Engine) Stop() {
	if e == nil {
		return
	}
	if e.stop != nil {
		e.stopOnce.Do(func() { close(e.stop) })
		<-e.done
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.store.close()
	if e.restoreMutex {
		runtime.SetMutexProfileFraction(e.prevMutex)
		e.restoreMutex = false
	}
}
