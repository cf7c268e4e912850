package otpd

import (
	"testing"
	"time"

	"openmfa/internal/eventstream"
	"openmfa/internal/obs"
	"openmfa/internal/obs/prof"
	"openmfa/internal/store"
)

// newBenchServer builds an otpd with one paired soft token and whichever
// observability layers are non-nil. A huge lockout threshold keeps the
// deterministic-failure hot path open for the whole run (a five-digit code
// can never match a six-digit TOTP, so Check always takes the failure
// branch and never consumes a code).
func newBenchServer(tb testing.TB, reg *obs.Registry, spans *obs.SpanStore, bus *eventstream.Bus) *Server {
	tb.Helper()
	srv, err := New(Config{
		DB:               store.OpenMemory(),
		EncryptionKey:    make([]byte, 32),
		LockoutThreshold: 1 << 30,
		Obs:              reg,
		Spans:            spans,
		Events:           bus,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := srv.InitSoftToken("bench"); err != nil {
		tb.Fatal(err)
	}
	return srv
}

// drainBus subscribes and discards on a goroutine, returning a stop func:
// the shape a production otpd runs with authwatch attached.
func drainBus(bus *eventstream.Bus) func() {
	sub := bus.Subscribe(1 << 12)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range sub.Events() {
		}
	}()
	return func() { sub.Close(); <-done }
}

func benchCheck(b *testing.B, srv *Server) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, err := srv.Check("bench", "00000"); err != nil || res.OK {
			b.Fatalf("check = %+v, %v (want deterministic failure)", res, err)
		}
	}
}

// BenchmarkObsOverhead compares otpd.Check with and without the metrics
// registry attached. TestCheckObsAllocs gates the difference.
func BenchmarkObsOverhead(b *testing.B) {
	b.Run("uninstrumented", func(b *testing.B) { benchCheck(b, newBenchServer(b, nil, nil, nil)) })
	b.Run("instrumented", func(b *testing.B) { benchCheck(b, newBenchServer(b, obs.NewRegistry(), nil, nil)) })
}

// BenchmarkSpanEventOverhead compares otpd.Check with metrics only against
// the full observability pipeline (metrics + span store + event bus with a
// live subscriber). TestCheckObsAllocs gates the difference.
func BenchmarkSpanEventOverhead(b *testing.B) {
	b.Run("metrics-only", func(b *testing.B) { benchCheck(b, newBenchServer(b, obs.NewRegistry(), nil, nil)) })
	b.Run("spans-events", func(b *testing.B) {
		bus := eventstream.NewBus(nil)
		defer drainBus(bus)()
		benchCheck(b, newBenchServer(b, obs.NewRegistry(), obs.NewSpanStore(1<<14), bus))
	})
}

// BenchmarkCheckUnderProfiler measures otpd.Check with the continuous
// profiler sampling in the background at its structural ceiling: a 50ms
// CPU window every 500ms, the 10% clamp prof.New enforces
// (TestNewClampsCPUDuration), versus 250ms/30s ≈ 0.8% at the shipped
// defaults.
func BenchmarkCheckUnderProfiler(b *testing.B) {
	reg := obs.NewRegistry()
	e, err := prof.New(prof.Config{
		Obs:         reg,
		Period:      500 * time.Millisecond,
		CPUDuration: 50 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	benchCheck(b, newBenchServer(b, reg, nil, nil))
}

// TestCheckObsAllocs gates what each observability layer adds to the
// deterministic-failure Check, counted in allocations per call: the
// metrics registry adds none (pre-resolved handles, atomics only), and the
// span store plus the event bus with a drained subscriber add at most
// four (the span, its attributes and the published event). A layer that
// gains one allocation fails here; its time cost is the benchmark's
// obs.overhead_* row.
func TestCheckObsAllocs(t *testing.T) {
	skipUnderRace(t)
	allocs := func(srv *Server) float64 {
		check := func() {
			if res, err := srv.Check("bench", "00000"); err != nil || res.OK {
				t.Fatalf("check = %+v, %v (want deterministic failure)", res, err)
			}
		}
		check() // warm the secret cache
		return testing.AllocsPerRun(500, check)
	}
	bus := eventstream.NewBus(nil)
	defer drainBus(bus)()
	bare := allocs(newBenchServer(t, nil, nil, nil))
	metrics := allocs(newBenchServer(t, obs.NewRegistry(), nil, nil))
	full := allocs(newBenchServer(t, obs.NewRegistry(), obs.NewSpanStore(1<<14), bus))
	for _, c := range []struct {
		name      string
		base, arm float64
		budget    float64
	}{
		{"metrics over bare", bare, metrics, 0},
		{"spans+events over metrics", metrics, full, 4},
	} {
		if d := c.arm - c.base; d > c.budget {
			t.Errorf("%s: %.0f → %.0f allocs/op (+%.0f), budget +%.0f", c.name, c.base, c.arm, d, c.budget)
		}
	}
}
