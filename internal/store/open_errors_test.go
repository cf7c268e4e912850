package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOpenRejectsCorruptMeta covers the meta-file validation: a damaged or
// hand-edited shard count must fail Open loudly rather than silently
// rehash keys into the wrong segments.
func TestOpenRejectsCorruptMeta(t *testing.T) {
	cases := map[string]string{
		"wrong header":    "not-a-store v9\nshards 4\n",
		"missing shards":  metaHeader + "\n",
		"bad count":       metaHeader + "\nshards zero\n",
		"not power of 2":  metaHeader + "\nshards 3\n",
		"count too large": metaHeader + "\nshards 1024\n",
		"count too small": metaHeader + "\nshards 0\n",
	}
	for name, body := range cases {
		dir := t.TempDir()
		if err := os.WriteFile(metaPath(dir), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, Options{}); err == nil {
			t.Errorf("%s: Open accepted corrupt meta %q", name, body)
		}
	}
}

// TestOpenRejectsCorruptSnapshot: snapshots are written atomically, so any
// damage is an integrity failure, not a torn tail to tolerate.
func TestOpenRejectsCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Put("k", []byte("v"))
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, "shard-000.kv"))
	if err != nil {
		t.Fatal(err)
	}
	snap[len(snap)/2] ^= 0xFF
	if err := os.WriteFile(filepath.Join(dir, "shard-000.kv"), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a corrupt snapshot")
	}
}

// TestOpenSurfacesUnreadableFiles: a WAL or snapshot path that exists but
// cannot be read as a file (here: a directory) is a hard error.
func TestOpenSurfacesUnreadableFiles(t *testing.T) {
	for _, name := range []string{"shard-000.wal", "shard-000.kv"} {
		dir := t.TempDir()
		if err := os.Mkdir(filepath.Join(dir, name), 0o755); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, Options{Shards: 1}); err == nil {
			t.Errorf("Open succeeded with %s as a directory", name)
		}
	}
}

// TestOpenClosesFilesOnPartialFailure drives the Open error path after
// some WAL files are already open: shard 1's segment is a dangling symlink
// into a missing directory, so recovery tolerates it (ENOENT) but the
// append-mode open fails, and shard 0's already-open file must be closed.
func TestOpenClosesFilesOnPartialFailure(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "missing-subdir", "wal")
	if err := os.Symlink(target, filepath.Join(dir, "shard-001.wal")); err != nil {
		t.Skipf("symlink unavailable: %v", err)
	}
	if _, err := Open(dir, Options{Shards: 2}); err == nil {
		t.Fatal("Open succeeded over a dangling WAL symlink")
	}
}

// TestWALPathsInMemory: volatile stores have no segments to report.
func TestWALPathsInMemory(t *testing.T) {
	if paths := OpenMemory().WALPaths(); paths != nil {
		t.Fatalf("in-memory WALPaths = %v, want nil", paths)
	}
}

// TestApplyDeduplicatesShardLocks: a batch touching the same key (and so
// the same shard) twice must lock that shard once and still apply in
// order.
func TestApplyDeduplicatesShardLocks(t *testing.T) {
	s := OpenMemoryShards(4)
	err := s.Apply([]Op{
		{Key: "k", Value: []byte("first")},
		{Key: "k", Value: []byte("second")},
		{Key: "k2", Value: []byte("other")},
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.Get("k")
	if err != nil || string(v) != "second" {
		t.Fatalf("Get(k) = %q, %v; want last write", v, err)
	}
}

// TestCloseReportsFlushError: bytes still buffered when the file under
// the WAL writer is gone must surface from Close, not vanish.
func TestCloseReportsFlushError(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Leave data sitting in the bufio layer, then sabotage the fd.
	sh := s.shards[0]
	if _, err := sh.walBuf.Write(EncodeFrame(1, []Op{{Key: "k", Value: []byte("v")}})); err != nil {
		t.Fatal(err)
	}
	if err := sh.wal.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err == nil {
		t.Fatal("Close swallowed the flush failure")
	}
}

// TestScanPrefixAcrossShards spot-checks the sorted multi-shard merge with
// a non-empty prefix.
func TestScanPrefixAcrossShards(t *testing.T) {
	s := OpenMemoryShards(8)
	for _, k := range []string{"acct/carol", "acct/alice", "acct/bob", "token/alice"} {
		if err := s.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	kvs, err := s.Scan("acct/")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, kv := range kvs {
		got = append(got, kv.Key)
	}
	want := "acct/alice,acct/bob,acct/carol"
	if strings.Join(got, ",") != want {
		t.Fatalf("Scan = %v, want %s", got, want)
	}
}
