package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"openmfa/internal/obs"
)

func TestMemoryPutGetDelete(t *testing.T) {
	s := OpenMemory()
	if err := s.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	v, err := s.Get("a")
	if err != nil || string(v) != "1" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("a"); err != ErrNotFound {
		t.Fatalf("after delete, err = %v, want ErrNotFound", err)
	}
	// Deleting absent key is fine.
	if err := s.Delete("never"); err != nil {
		t.Fatal(err)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := OpenMemory()
	s.Put("k", []byte("orig"))
	v, _ := s.Get("k")
	v[0] = 'X'
	v2, _ := s.Get("k")
	if string(v2) != "orig" {
		t.Fatal("mutating returned slice corrupted stored value")
	}
	// Put must also copy its input.
	in := []byte("abc")
	s.Put("k2", in)
	in[0] = 'Z'
	v3, _ := s.Get("k2")
	if string(v3) != "abc" {
		t.Fatal("mutating input slice corrupted stored value")
	}
}

func TestScanPrefixSortedAcrossShards(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := OpenMemoryShards(shards)
			var want []string
			for i := 0; i < 50; i++ {
				k := fmt.Sprintf("tok/%03d", i)
				want = append(want, k)
				s.Put(k, []byte(k))
			}
			s.Put("acct/x", []byte("x"))
			got, err := s.Scan("tok/")
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("Scan returned %d items, want %d", len(got), len(want))
			}
			for i, kv := range got {
				if kv.Key != want[i] {
					t.Errorf("Scan[%d].Key = %q, want %q", i, kv.Key, want[i])
				}
			}
			if s.Count("tok/") != 50 || s.Count("acct/") != 1 || s.Count("zzz") != 0 {
				t.Fatal("Count wrong")
			}
			if s.Len() != 51 {
				t.Fatalf("Len = %d", s.Len())
			}
		})
	}
}

func TestShardCountNormalization(t *testing.T) {
	cases := []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {16, 16}, {250, 256}, {1 << 20, MaxShards},
	}
	for _, c := range cases {
		if got := normalizeShards(c.in); got != c.want {
			t.Errorf("normalizeShards(%d) = %d, want %d", c.in, got, c.want)
		}
	}
	if n := normalizeShards(0); n < 1 || n&(n-1) != 0 {
		t.Errorf("default shard count %d not a power of two", n)
	}
	if got := OpenMemoryShards(5).NumShards(); got != 8 {
		t.Errorf("NumShards = %d, want 8", got)
	}
}

func TestShardForIsStable(t *testing.T) {
	s := OpenMemoryShards(8)
	for _, k := range []string{"", "a", "token/alice", "acct/bob"} {
		i := s.ShardFor(k)
		if i < 0 || i >= 8 {
			t.Fatalf("ShardFor(%q) = %d out of range", k, i)
		}
		if j := s.ShardFor(k); j != i {
			t.Fatalf("ShardFor(%q) unstable: %d then %d", k, i, j)
		}
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.Put("user/storm", []byte("sms"))
	s.Put("user/proctor", []byte("soft"))
	s.Delete("user/storm")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.NumShards(); got != 4 {
		t.Fatalf("shard count not persisted: NumShards = %d, want 4", got)
	}
	if _, err := s2.Get("user/storm"); err != ErrNotFound {
		t.Fatal("deleted key resurrected after reopen")
	}
	v, err := s2.Get("user/proctor")
	if err != nil || string(v) != "soft" {
		t.Fatalf("Get after reopen = %q, %v", v, err)
	}
}

func TestCompactionPreservesStateAndTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		s.Put(fmt.Sprintf("k%03d", i), []byte{byte(i)})
	}
	for i := 0; i < 50; i++ {
		s.Delete(fmt.Sprintf("k%03d", i))
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if s.WALRecords() != 0 {
		t.Fatalf("WALRecords after compact = %d", s.WALRecords())
	}
	for _, p := range s.WALPaths() {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != 0 {
			t.Fatalf("wal segment %s size after compact = %d", p, fi.Size())
		}
	}
	s.Put("post", []byte("compact"))
	if s.WALRecords() != 1 {
		t.Fatalf("WALRecords after post-compact put = %d", s.WALRecords())
	}
	s.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 51 {
		t.Fatalf("Len after reopen = %d, want 51", s2.Len())
	}
	if _, err := s2.Get("k000"); err != ErrNotFound {
		t.Fatal("deleted key present after compact+reopen")
	}
	if v, _ := s2.Get("post"); string(v) != "compact" {
		t.Fatal("post-compact write lost")
	}
}

func TestTornWALTailTruncatedToLastBatch(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, Options{Shards: 1})
	s.Put("good", []byte("val"))
	s.Close()
	wal := s.WALPaths()[0]
	// Simulate a crash mid-append: a partial frame at the end.
	whole := EncodeFrame(99, []Op{{Key: "torn", Value: []byte("partial")}})
	f, err := os.OpenFile(wal, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(whole[:len(whole)-3])
	f.Close()
	before, _ := os.Stat(wal)

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen with torn frame failed: %v", err)
	}
	defer s2.Close()
	if v, err := s2.Get("good"); err != nil || string(v) != "val" {
		t.Fatalf("good record lost: %q, %v", v, err)
	}
	if _, err := s2.Get("torn"); err != ErrNotFound {
		t.Fatal("torn batch partially replayed")
	}
	// The torn tail must be physically truncated away so the next append
	// starts at a frame boundary.
	after, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("torn tail not truncated: %d -> %d bytes", before.Size(), after.Size())
	}
}

func TestBinaryKeysAndValues(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, Options{})
	key := string([]byte{0, 1, 2, ' ', '\n', 255})
	val := []byte{0, 10, 13, 32, 255}
	s.Put(key, val)
	s.Close()
	s2, _ := Open(dir, Options{})
	defer s2.Close()
	got, err := s2.Get(key)
	if err != nil || !bytes.Equal(got, val) {
		t.Fatalf("binary round trip failed: %v %v", got, err)
	}
}

func TestApplyBatchAtomicVisibility(t *testing.T) {
	s := OpenMemory()
	err := s.Apply([]Op{
		{Key: "a", Value: []byte("1")},
		{Key: "b", Value: []byte("2")},
		{Key: "a", Delete: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("a"); err != ErrNotFound {
		t.Fatal("later delete in batch did not win")
	}
	if v, _ := s.Get("b"); string(v) != "2" {
		t.Fatal("batch put lost")
	}
	if err := s.Apply(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// TestCrossShardBatchPersists covers batches spanning shards: the whole
// batch lands in one segment and survives reopen.
func TestCrossShardBatchPersists(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	var batch []Op
	seen := map[int]bool{}
	for i := 0; len(seen) < 3; i++ {
		k := fmt.Sprintf("x/%d", i)
		if sh := s.ShardFor(k); !seen[sh] {
			seen[sh] = true
			batch = append(batch, Op{Key: k, Value: []byte{byte(i)}})
		}
	}
	if err := s.Apply(batch); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for _, op := range batch {
		if _, err := s2.Get(op.Key); err != nil {
			t.Fatalf("cross-shard op %q lost: %v", op.Key, err)
		}
	}
}

// Regression test for the use-after-close bug: Scan, Count, Len, Has, and
// WALRecords used to ignore s.closed and read freed state.
func TestUseAfterCloseConsistent(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, Options{Shards: 2})
	s.Put("k", []byte("v"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", nil); err != ErrClosed {
		t.Fatalf("Put after close: %v", err)
	}
	if _, err := s.Get("k"); err != ErrClosed {
		t.Fatalf("Get after close: %v", err)
	}
	if _, err := s.Scan(""); err != ErrClosed {
		t.Fatalf("Scan after close: %v", err)
	}
	if s.Count("") != 0 {
		t.Fatal("Count after close != 0")
	}
	if s.Len() != 0 {
		t.Fatal("Len after close != 0")
	}
	if s.WALRecords() != 0 {
		t.Fatal("WALRecords after close != 0")
	}
	if s.Has("k") {
		t.Fatal("Has after close = true")
	}
	if err := s.Compact(); err != ErrClosed {
		t.Fatalf("Compact after close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestSyncModeWrites(t *testing.T) {
	for _, group := range []bool{false, true} {
		t.Run(fmt.Sprintf("group=%v", group), func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, Options{Sync: true, GroupCommit: group, Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.Put("k", []byte("v")); err != nil {
				t.Fatal(err)
			}
			// The record must be on disk without Close.
			total := int64(0)
			for _, p := range s.WALPaths() {
				if fi, err := os.Stat(p); err == nil {
					total += fi.Size()
				}
			}
			if total == 0 {
				t.Fatal("sync mode left WAL empty")
			}
		})
	}
}

func TestCorruptMetaRejected(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, Options{})
	s.Close()
	if err := os.WriteFile(metaPath(dir), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("corrupt meta accepted")
	}
	if err := os.WriteFile(metaPath(dir), []byte(metaHeader+"\nshards 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("non-power-of-two shard count accepted")
	}
}

func TestCorruptSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, Options{Shards: 1})
	s.Put("k", []byte("v"))
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Snapshots are written atomically, so damage is an error, not a
	// silent truncation.
	b, err := os.ReadFile(s.snapshotPath(0))
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xFF
	if err := os.WriteFile(s.snapshotPath(0), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}

// TestWALWriteFaultPoisonsShard proves fail-stop behaviour: once a WAL
// append fails, the shard keeps returning the fault instead of silently
// diverging from disk.
func TestWALWriteFaultPoisonsShard(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Put("before", []byte("ok"))
	// Yank the file out from under the buffered writer, then overflow
	// the buffer so Flush must hit the dead file.
	s.shards[0].wal.Close()
	big := make([]byte, 128*1024)
	if err := s.Put("after", big); err == nil {
		t.Fatal("write to closed WAL succeeded")
	}
	if err := s.Put("again", []byte("x")); err == nil {
		t.Fatal("poisoned shard accepted another write")
	}
	if err := s.Compact(); err == nil {
		t.Fatal("poisoned shard compacted")
	}
	s.shards[0].wal, _ = os.Create(s.walPath(0)) // let Close run cleanly
	s.Close()
}

func TestCompactFailsWithoutDirectory(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Put("k", []byte("v"))
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err == nil {
		t.Fatal("Compact with missing directory succeeded")
	}
}

func TestOpenOnFileFails(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/notadir"
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); err == nil {
		t.Fatal("Open on a regular file succeeded")
	}
}

// TestGroupCommitCoalesces drives concurrent committers through Sync mode
// and checks (a) durability — everything lands on disk — and (b) that the
// fsync count is below one per batch, i.e. committers genuinely shared
// fsyncs. The leader hook holds the first fsync until every committer has
// flushed, so the coalescing is deterministic even on one CPU.
func TestGroupCommitCoalesces(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s, err := Open(dir, Options{Sync: true, GroupCommit: true, Shards: 1, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 8
	s.syncDelay = func() {
		deadline := time.Now().Add(2 * time.Second)
		for s.shards[0].seq.Load() < writers && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := s.Put(fmt.Sprintf("w%d", w), []byte("v")); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	if got := reg.Counter("store_fsync_total").Value(); got >= writers {
		t.Fatalf("fsyncs = %d for %d batches: group commit did not coalesce", got, writers)
	}
	if got := reg.Counter("store_apply_total").Value(); got != writers {
		t.Fatalf("store_apply_total = %d, want %d", got, writers)
	}
	if s.Len() != writers {
		t.Fatalf("Len = %d, want %d", s.Len(), writers)
	}
	s.Close()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != writers {
		t.Fatalf("after reopen Len = %d, want %d", s2.Len(), writers)
	}
}

// TestShardsDoNotSerialise is the functional non-serialisation proof (this
// container may have 1 CPU, so wall-clock scaling cannot manifest): with
// one shard's write lock held, operations on other shards still complete.
func TestShardsDoNotSerialise(t *testing.T) {
	s := OpenMemoryShards(8)
	blocked := s.ShardFor("victim")
	other := ""
	for i := 0; ; i++ {
		k := fmt.Sprintf("free%d", i)
		if s.ShardFor(k) != blocked {
			other = k
			break
		}
	}
	s.shards[blocked].mu.Lock()
	done := make(chan error, 1)
	go func() {
		if err := s.Put(other, []byte("v")); err != nil {
			done <- err
			return
		}
		_, err := s.Get(other)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("operation on a free shard blocked behind an unrelated shard lock")
	}
	// And the blocked shard really is blocked.
	blockedDone := make(chan struct{})
	go func() {
		s.Put("victim", []byte("v"))
		close(blockedDone)
	}()
	select {
	case <-blockedDone:
		t.Fatal("write to a locked shard did not block")
	case <-time.After(50 * time.Millisecond):
	}
	s.shards[blocked].mu.Unlock()
	<-blockedDone
}

// Property: a sequence of random puts/deletes replayed through persistence
// equals the in-memory result, across shard counts.
func TestPersistenceEquivalenceProperty(t *testing.T) {
	type step struct {
		Key    string
		Value  []byte
		Delete bool
	}
	for _, shards := range []int{1, 4} {
		f := func(steps []step) bool {
			dir, err := os.MkdirTemp("", "storeprop")
			if err != nil {
				return false
			}
			defer os.RemoveAll(dir)
			mem := map[string][]byte{}
			s, err := Open(dir, Options{Shards: shards})
			if err != nil {
				return false
			}
			for _, st := range steps {
				if st.Delete {
					s.Delete(st.Key)
					delete(mem, st.Key)
				} else {
					s.Put(st.Key, st.Value)
					v := make([]byte, len(st.Value))
					copy(v, st.Value)
					mem[st.Key] = v
				}
			}
			s.Close()
			s2, err := Open(dir, Options{})
			if err != nil {
				return false
			}
			defer s2.Close()
			if s2.Len() != len(mem) {
				return false
			}
			for k, v := range mem {
				got, err := s2.Get(k)
				if err != nil || !bytes.Equal(got, v) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
	}
}

func TestScanDuringCloseReturnsErrClosed(t *testing.T) {
	s := OpenMemoryShards(4)
	for i := 0; i < 100; i++ {
		s.Put(fmt.Sprintf("k%d", i), []byte("v"))
	}
	s.Close()
	if _, err := s.Scan(""); !errors.Is(err, ErrClosed) {
		t.Fatalf("Scan after close: %v", err)
	}
}
