// Package ops is the one composition root for the daemons' operational
// surface. otpd, radiusd and portald all run the same chain — registry,
// runtime sampler, rate-limited logger, SLO engine, span store, event
// bus, authwatch, flight recorder, continuous profiler — and the pieces
// only fit together in one order (authwatch's health includes the SLO
// engine's, the recorder's alert class asks authwatch, the profiler's
// bundles ask the recorder for trace IDs). This package builds it once;
// a daemon passes only what genuinely differs (Config) and keeps its
// own listeners, stores and handlers.
package ops

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"openmfa/internal/authwatch"
	"openmfa/internal/eventstream"
	"openmfa/internal/flightrec"
	"openmfa/internal/obs"
	"openmfa/internal/obs/prof"
	"openmfa/internal/obs/slo"
)

// The kit's fixed operating points. Each used to be a flag on every
// daemon that nothing ever set away from its default; library callers
// who need another value set the prof.Config / flightrec.Policy field.
const (
	LogRate       = 200                    // identical log lines per second before the rest are sampled out
	FlightSample  = 0.01                   // share of unremarkable successful traces the flight recorder keeps
	SlowThreshold = 750 * time.Millisecond // the recorder's slow-trace class and the latency_spike bound
	ProfPeriod    = 30 * time.Second       // continuous profiler sampling period
	ProfCPU       = 250 * time.Millisecond // delta CPU profile per sample: under 1% of wall time
	ProfRetain    = 8                      // captures kept in the in-memory ring
	ProfDebounce  = 10 * time.Minute       // minimum spacing between trigger-fired incident bundles

	spikeMinSamples = 20              // requests between two profiler ticks before a slow majority is a spike
	mutexFraction   = 100             // 1 in 100 contention events sampled while the profiler runs
	shutdownGrace   = 5 * time.Second // how long Serve waits for in-flight requests
)

// Flags are the ops settings that vary per deployment.
type Flags struct {
	SLOs      slo.SpecList
	FlightDir string
	ProfDir   string
}

// RegisterFlags declares the ops flags on fs; this is the only place in
// the repository they are declared.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.Var(&f.SLOs, "slo", "objective over the daemon's request SLI, name:target%<threshold/window (e.g. checks:99.5%<750ms/30d); repeatable")
	fs.StringVar(&f.FlightDir, "flightrec-dir", "", "flight recorder segment directory (empty = disabled)")
	fs.StringVar(&f.ProfDir, "prof-dir", "", "incident bundle segment directory; enables the continuous profiler + incident engine (empty = disabled)")
	return f
}

// Config is what differs between daemons.
type Config struct {
	// Reg is the daemon's registry (required). The daemon creates it,
	// because the histograms and the store it hands over below are built
	// on it before the kit starts.
	Reg *obs.Registry
	// Latency are the daemon's request-duration histograms. The
	// latency_spike trigger watches them and, unless SLI is set, every
	// -slo spec counts the observations under its threshold as good (any
	// decision, accept or fail-closed reject, that is fast enough).
	Latency []*obs.Histogram
	// SLI, when set, is the source of every -slo objective in place of
	// Latency — portald's availability over its request counters. The
	// spec's threshold is then unused.
	SLI slo.Source
	// StoreErr, when set, is the daemon store's sticky-fault check; it
	// drives the store_error trigger.
	StoreErr func() error
	// CompleteOn lists the event types that complete a flight-recorder
	// trace (nil = a login decision, flightrec's default).
	CompleteOn []eventstream.Type
}

// Kit is the running chain. FlightRec is nil without -flightrec-dir and
// Prof is nil without -prof-dir; everything else is always on.
type Kit struct {
	Reg       *obs.Registry
	Logger    *obs.Logger
	Spans     *obs.SpanStore
	Bus       *eventstream.Bus
	SLO       *slo.Engine
	Watch     *authwatch.Watcher
	FlightRec *flightrec.Recorder
	Prof      *prof.Engine

	runtime *obs.RuntimeSampler
}

// Start builds the chain in its one valid order and starts every
// background worker. On error nothing is left running.
func Start(f *Flags, cfg Config) (*Kit, error) {
	reg := cfg.Reg
	k := &Kit{Reg: reg, runtime: obs.StartRuntimeSampler(reg, 0)}

	// With the recorder on, the log stream is teed so each trace's lines
	// ride along in its bundle.
	var sink io.Writer = os.Stderr
	var tee *flightrec.LogTee
	if f.FlightDir != "" {
		tee = flightrec.NewLogTee(os.Stderr, 0, 0)
		sink = tee
	}
	k.Logger = obs.NewLogger(sink, obs.LevelInfo).RateLimit(LogRate, time.Second, reg)

	// Everything that cannot fail comes up first. The SLO engine's
	// fast-burn check rides on the watcher's Health, so an error-budget
	// burn 503s /healthz exactly like an authwatch alert.
	k.SLO = slo.New(slo.Config{Obs: reg})
	k.Spans = obs.NewSpanStore(0)
	k.Bus = eventstream.NewBus(reg)
	k.Watch = authwatch.New(authwatch.Config{Obs: reg, ExtraHealth: []obs.HealthCheck{k.SLO.Health}})
	k.Watch.Attach(k.Bus, 0)

	for _, spec := range f.SLOs {
		obj := slo.Objective{Name: spec.Name, Target: spec.Target, Window: spec.Window, Source: cfg.SLI}
		if cfg.SLI == nil {
			var hs slo.MultiSource
			for _, h := range cfg.Latency {
				hs = append(hs, slo.HistogramSource{H: h, Threshold: spec.Threshold.Seconds()})
			}
			obj.Source = hs
			obj.Description = fmt.Sprintf("%.4g%% of requests decided in <%s", 100*spec.Target, spec.Threshold)
		}
		if err := k.SLO.Add(obj); err != nil {
			k.Stop()
			return nil, err
		}
	}
	k.SLO.Start(0)

	if f.FlightDir != "" {
		rec, err := flightrec.New(flightrec.Config{
			Dir: f.FlightDir, Bus: k.Bus, Spans: k.Spans, Logs: tee, Obs: reg,
			CompleteOn: cfg.CompleteOn,
			Policy: flightrec.Policy{
				SampleRate:    FlightSample,
				SlowThreshold: SlowThreshold,
				AlertActive:   func() bool { return k.Watch.Health() != nil },
			},
		})
		if err != nil {
			k.Stop()
			return nil, err
		}
		k.FlightRec = rec
	}

	if f.ProfDir != "" {
		eng, err := prof.New(prof.Config{
			Dir: f.ProfDir, Obs: reg,
			Period: ProfPeriod, CPUDuration: ProfCPU, Retention: ProfRetain, Debounce: ProfDebounce,
			MutexFraction: mutexFraction,
			TraceIDs:      k.recentTraces,
		})
		if err != nil {
			k.Stop()
			return nil, err
		}
		k.Prof = eng
		eng.AddTrigger("slo_fast_burn", prof.HealthTrigger(k.SLO.Health))
		eng.AddTrigger("authwatch_alert", prof.HealthTrigger(k.Watch.Health))
		if len(cfg.Latency) > 0 {
			eng.AddTrigger("latency_spike", prof.LatencySpikeTrigger(cfg.Latency, SlowThreshold.Seconds(), spikeMinSamples))
		}
		if cfg.StoreErr != nil {
			eng.AddTrigger("store_error", prof.HealthTrigger(cfg.StoreErr))
		}
		eng.Start()
	}
	return k, nil
}

// recentTraces feeds the newest flight-recorder trace IDs into incident
// bundles (none while the recorder is off).
func (k *Kit) recentTraces(n int) []string {
	var ids []string
	for _, s := range k.FlightRec.List(flightrec.Query{Limit: n}) {
		ids = append(ids, s.Trace)
	}
	return ids
}

// Mount registers /metrics, /healthz (degraded by any authwatch alert or
// SLO fast burn), /debug/pprof, /debug/authwatch, /debug/slo and — when
// they are on — /debug/flightrec and /debug/prof.
func (k *Kit) Mount(mux *http.ServeMux) {
	obs.Mount(mux, k.Reg, k.Watch.Health)
	k.Watch.Mount(mux)
	k.SLO.Mount(mux)
	if k.FlightRec != nil {
		k.FlightRec.Mount(mux)
	}
	k.Prof.Mount(mux)
}

// Stop tears the chain down in reverse order and waits for every worker
// to exit. Idempotent.
func (k *Kit) Stop() {
	k.Prof.Stop()
	k.FlightRec.Stop()
	k.Watch.Stop()
	k.SLO.Stop()
	k.runtime.Stop()
}

// Main is every daemon's main: parse the flags, run until SIGINT or
// SIGTERM cancels ctx, exit non-zero on error. run returns instead of
// exiting so that its deferred Stop and store Close always execute.
func Main(name string, run func(ctx context.Context) error) {
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx); err != nil {
		log.Fatalf("%s: %v", name, err)
	}
}

// Serve is the daemons' shared HTTP lifecycle: it serves h on addr until
// ctx is cancelled, then lets in-flight requests finish. An empty addr
// serves nothing and just waits for ctx.
func Serve(ctx context.Context, addr string, h http.Handler) error {
	if addr == "" {
		<-ctx.Done()
		return nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	grace, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	return srv.Shutdown(grace)
}
