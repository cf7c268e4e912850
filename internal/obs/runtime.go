package obs

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// RuntimeSampler exports Go runtime health on a Registry:
//
//	go_goroutines          current goroutine count
//	go_heap_inuse_bytes    bytes in in-use heap spans
//	go_gc_pause_p99_seconds  p99 stop-the-world GC pause (process lifetime)
//	go_gomaxprocs          current GOMAXPROCS
//
// A lightweight ticker goroutine refreshes the gauges; Stop shuts it down
// synchronously so tests stay leakcheck-clean. The readings come from
// runtime/metrics (plus runtime.NumGoroutine/GOMAXPROCS), which are cheap
// enough to sample every few seconds without perturbing the auth path.
type RuntimeSampler struct {
	goroutines *Gauge
	heapInuse  *Gauge
	gcPauseP99 *Gauge
	gomaxprocs *Gauge

	mu       sync.Mutex // guards samples (Sample may race the ticker)
	samples  []metrics.Sample
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// DefaultRuntimeSampleInterval is used when StartRuntimeSampler is given a
// non-positive interval.
const DefaultRuntimeSampleInterval = 10 * time.Second

// StartRuntimeSampler registers the runtime gauges on reg, takes one
// sample immediately, and refreshes them every interval until Stop.
// A nil registry returns a no-op sampler (Stop still safe).
func StartRuntimeSampler(reg *Registry, interval time.Duration) *RuntimeSampler {
	s := newRuntimeSampler(reg)
	if reg == nil {
		return s
	}
	if interval <= 0 {
		interval = DefaultRuntimeSampleInterval
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.Sample()
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

// newRuntimeSampler registers the gauges and samples once, without a
// background goroutine — callers drive Sample themselves (tests, or a
// scrape-time hook).
func newRuntimeSampler(reg *Registry) *RuntimeSampler {
	s := &RuntimeSampler{
		goroutines: reg.Gauge("go_goroutines"),
		heapInuse:  reg.Gauge("go_heap_inuse_bytes"),
		gcPauseP99: reg.Gauge("go_gc_pause_p99_seconds"),
		gomaxprocs: reg.Gauge("go_gomaxprocs"),
		samples: []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
			{Name: "/gc/pauses:seconds"},
		},
	}
	if reg != nil {
		s.Sample()
	}
	return s
}

// Sample refreshes the gauges once.
func (s *RuntimeSampler) Sample() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.goroutines.Set(float64(runtime.NumGoroutine()))
	s.gomaxprocs.Set(float64(runtime.GOMAXPROCS(0)))
	metrics.Read(s.samples)
	var heap float64
	for _, m := range s.samples[:2] {
		if m.Value.Kind() == metrics.KindUint64 {
			heap += float64(m.Value.Uint64())
		}
	}
	s.heapInuse.Set(heap)
	if h := s.samples[2].Value; h.Kind() == metrics.KindFloat64Histogram {
		s.gcPauseP99.Set(histQuantile(h.Float64Histogram(), 0.99))
	}
}

// histQuantile estimates a quantile from a runtime/metrics histogram.
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	if h == nil {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if float64(cum) >= rank {
			// Buckets[i] / Buckets[i+1] bound count i; the runtime pads
			// the ends with +-Inf, so clamp to a finite edge.
			ub := h.Buckets[i+1]
			if math.IsInf(ub, 0) || math.IsNaN(ub) {
				ub = h.Buckets[i]
			}
			return ub
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// Stop halts the ticker goroutine and waits for it to exit. Safe to call
// more than once and on a sampler without a goroutine.
func (s *RuntimeSampler) Stop() {
	if s == nil || s.stop == nil {
		return
	}
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
}
