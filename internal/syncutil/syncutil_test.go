package syncutil

import (
	"sync"
	"testing"
	"time"
)

func TestStripesRoundUpToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, DefaultStripes}, {-5, DefaultStripes},
		{1, 1}, {2, 2}, {3, 4}, {200, 256}, {256, 256}, {257, 512},
	} {
		if got := NewStriped(tc.n).Stripes(); got != tc.want {
			t.Errorf("NewStriped(%d).Stripes() = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestSameKeySameStripe(t *testing.T) {
	m := NewStriped(256)
	for _, key := range []string{"", "alice", "bob", "a-very-long-username-for-hashing"} {
		if m.index(key) != m.index(key) {
			t.Fatalf("index(%q) not stable", key)
		}
	}
}

// TestMutualExclusionPerKey hammers a set of counters, one per key, each
// guarded only by the striped lock. Under -race this fails loudly if two
// goroutines holding the same key's lock can run concurrently.
func TestMutualExclusionPerKey(t *testing.T) {
	m := NewStriped(8) // few stripes: force cross-key sharing too
	keys := []string{"u0", "u1", "u2", "u3", "u4", "u5", "u6", "u7", "u8", "u9"}
	counters := make(map[string]*int, len(keys))
	for _, k := range keys {
		counters[k] = new(int)
	}
	const perKey = 200
	var wg sync.WaitGroup
	for _, k := range keys {
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(k string) {
				defer wg.Done()
				for i := 0; i < perKey/4; i++ {
					m.Lock(k)
					*counters[k]++
					m.Unlock(k)
				}
			}(k)
		}
	}
	wg.Wait()
	for _, k := range keys {
		if *counters[k] != perKey {
			t.Errorf("counter[%s] = %d, want %d", k, *counters[k], perKey)
		}
	}
}

func BenchmarkStripedLockUnlock(b *testing.B) {
	m := NewStriped(256)
	b.RunParallel(func(pb *testing.PB) {
		key := "user-with-a-typical-length"
		for pb.Next() {
			m.Lock(key)
			m.Unlock(key)
		}
	})
}

// TestWorkersKeepOneWaitingAndBoundIdle: the last waiting worker to get
// work is told to start its replacement, so one always waits, and a worker
// that finishes while maxIdleWorkers others wait is told to exit.
func TestWorkersKeepOneWaitingAndBoundIdle(t *testing.T) {
	var w Workers[struct{}] // one worker waiting
	if !w.busy() {
		t.Fatal("the only waiting worker got work and was not told to start another")
	}
	// Its replacement waits; three more are busy beside the first.
	for i := 1; i <= 4; i++ {
		if !w.busy() {
			t.Fatalf("busy worker %d: the last waiter was not replaced", i)
		}
	}
	idle := 1 // the last replacement
	for i := 0; i < 5; i++ {
		stay := w.idle()
		if want := idle < maxIdleWorkers; stay != want {
			t.Fatalf("finished worker %d with %d waiting: stay = %v, want %v", i, idle, stay, want)
		}
		if stay {
			idle++
		}
	}
	if idle != maxIdleWorkers {
		t.Fatalf("%d waiting, want %d", idle, maxIdleWorkers)
	}
	if w.busy() {
		t.Fatal("a worker was told to start another while one more waits")
	}
}

// TestWorkersServeBurstAndExit: work parked in serve never holds up fresh
// work, so a burst is in serve all at once, and every worker exits once
// the source closes.
func TestWorkersServeBurstAndExit(t *testing.T) {
	const burst = 16
	src := make(chan int)
	release := make(chan struct{})
	var parked sync.WaitGroup
	parked.Add(burst)
	var w Workers[int]
	w.Start(func(v *int) bool {
		var ok bool
		*v, ok = <-src
		return ok
	}, func(*int) {
		parked.Done()
		<-release
	})
	all := make(chan struct{})
	go func() {
		for i := 0; i < burst; i++ {
			src <- i
		}
		parked.Wait()
		close(all)
	}()
	select {
	case <-all:
	case <-time.After(5 * time.Second):
		t.Fatal("a parked worker held up the burst")
	}
	close(release)
	close(src)
	w.Wait()
}
