package store

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"
)

// TestBatcherSequential checks the degenerate case: with no concurrency the
// batcher is a pass-through.
func TestBatcherSequential(t *testing.T) {
	s := OpenMemory()
	b := NewBatcher(s, 0)
	if err := b.Put("k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := b.Apply([]Op{{Key: "k2", Value: []byte("v2")}, {Key: "k3", Value: []byte("v3")}}); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete("k2"); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Get("k1"); string(v) != "v1" {
		t.Fatalf("k1 = %q", v)
	}
	if s.Has("k2") {
		t.Fatal("k2 survived delete")
	}
	if v, _ := s.Get("k3"); string(v) != "v3" {
		t.Fatalf("k3 = %q", v)
	}
	if err := b.Apply(nil); err != nil {
		t.Fatal(err)
	}
}

// TestBatcherConcurrentDurable hammers a durable store through the batcher
// and verifies every write lands and survives reopen (coalesced frames must
// stay crash-atomic).
func TestBatcherConcurrentDurable(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Sync: true, GroupCommit: true, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(s, 8)
	const writers, each = 16, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				key := fmt.Sprintf("w%02d/%03d", w, i)
				if err := b.Put(key, []byte(key)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := s.Len(); got != writers*each {
		t.Fatalf("Len = %d, want %d", got, writers*each)
	}
	frames := s.WALRecords()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Options{Sync: true, GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Len(); got != writers*each {
		t.Fatalf("reopened Len = %d, want %d (from %d frames)", got, writers*each, frames)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < each; i++ {
			key := fmt.Sprintf("w%02d/%03d", w, i)
			if v, err := re.Get(key); err != nil || string(v) != key {
				t.Fatalf("Get(%s) = %q, %v", key, v, err)
			}
		}
	}
}

// TestBatcherCoalesces pins the point of the type: writes issued while a
// leader is stalled in fsync share WAL frames. The syncDelay hook parks the
// leader until the followers have queued, so the grouping is deterministic.
func TestBatcherCoalesces(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Sync: true, GroupCommit: true, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	b := NewBatcher(s, 0)

	const followers = 7
	release := make(chan struct{})
	var once sync.Once
	s.syncDelay = func() {
		once.Do(func() { <-release }) // stall only the first (leader's) fsync
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // leader
		defer wg.Done()
		if err := b.Put("leader", []byte("x")); err != nil {
			t.Error(err)
		}
	}()
	// Wait for the leader to claim the sync slot, then launch followers.
	waitFor(t, func() bool { b.mu.Lock(); defer b.mu.Unlock(); return b.leading })
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := b.Put(fmt.Sprintf("f%d", i), []byte("y")); err != nil {
				t.Error(err)
			}
		}(i)
	}
	waitFor(t, func() bool { return b.queuedOps() == followers })
	close(release)
	wg.Wait()

	if got := s.Len(); got != followers+1 {
		t.Fatalf("Len = %d, want %d", got, followers+1)
	}
	walPath := s.walPath(0)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// One frame for the leader's own batch, one for the coalesced group.
	if frames := countWALFrames(t, walPath); frames != 2 {
		t.Errorf("WAL frames = %d, want 2 (1 leader + 1 coalesced group)", frames)
	}
}

// countWALFrames walks a shard WAL and counts checksummed batch frames.
func countWALFrames(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frames := 0
	valid, err := scanBatches(data, func(walBatch, int, int) { frames++ })
	if err := requireIntact("segment", data, valid, err); err != nil {
		t.Fatalf("after %d frames: %v", frames, err)
	}
	return frames
}

// TestBatcherMaxOps checks that an over-full group splits rather than
// growing without bound.
func TestBatcherMaxOps(t *testing.T) {
	b := NewBatcher(OpenMemory(), 2)
	b.mu.Lock()
	b.leading = true // simulate an in-flight leader
	g1 := b.lastOpenGroup()
	g1.ops = append(g1.ops, Op{Key: "a"}, Op{Key: "b"})
	g2 := b.lastOpenGroup()
	if g1 == g2 {
		t.Fatal("full group reused")
	}
	if len(b.queue) != 2 {
		t.Fatalf("queue len = %d, want 2", len(b.queue))
	}
	b.mu.Unlock()
}

// TestBatcherClosedStore checks error propagation on both the leader and
// follower paths: a closed store fails every caller instead of hanging.
func TestBatcherClosedStore(t *testing.T) {
	s := OpenMemory()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(s, 0)
	if err := b.Put("k", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("leader path err = %v, want ErrClosed", err)
	}
	// Follower path: fake an in-flight leader, enqueue, then drain as the
	// leader would.
	b.mu.Lock()
	b.leading = true
	b.mu.Unlock()
	done := make(chan error, 1)
	go func() {
		done <- b.Put("k2", nil)
	}()
	waitFor(t, func() bool { return b.queuedOps() == 1 })
	b.mu.Lock()
	g := b.queue[0]
	b.queue = nil
	b.leading = false
	b.mu.Unlock()
	g.err = s.Apply(g.ops)
	close(g.done)
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("follower path err = %v, want ErrClosed", err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// BenchmarkBatcherParallel measures coalesced single-op commits against the
// direct Apply path (BenchmarkApplyParallel) on a durable group-commit
// store — the shape of per-login record saves under load.
func BenchmarkBatcherParallel(b *testing.B) {
	s, err := Open(b.TempDir(), Options{Sync: true, GroupCommit: true})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	bt := NewBatcher(s, 0)
	val := []byte("token-record-sized-payload-0123456789abcdef")
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if err := bt.Put(fmt.Sprintf("k%d", i%1024), val); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}
