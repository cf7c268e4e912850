package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"openmfa/internal/seglog"
)

// oversizeBatch encodes to just over seglog.MaxPayloadSize while holding
// a single 1 MiB value, which every op shares.
func oversizeBatch() []Op {
	val := make([]byte, 1<<20)
	ops := make([]Op, seglog.MaxPayloadSize/len(val)+1)
	for i := range ops {
		ops[i] = Op{Key: fmt.Sprintf("big/%04d", i), Value: val}
	}
	return ops
}

// TestApplyRefusesOversizeFrame: a batch whose frame the decoder would
// reject is refused before it consumes an LSN. Written anyway, it would
// read back as a torn tail and truncate every later commit in its segment
// at the next Open.
func TestApplyRefusesOversizeFrame(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("before", []byte("v")); err != nil {
		t.Fatal(err)
	}
	lsn := s.LSN()
	if err := s.Apply(oversizeBatch()); err == nil {
		t.Fatal("oversize batch accepted")
	}
	if s.LSN() != lsn || s.Has("big/0000") {
		t.Fatalf("refused batch left a trace: LSN %d (was %d), applied=%v", s.LSN(), lsn, s.Has("big/0000"))
	}
	if err := s.Put("after", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !s2.Has("before") || !s2.Has("after") || s2.LSN() != lsn+1 {
		t.Fatalf("after reopen: before=%v after=%v LSN=%d, want both and %d", s2.Has("before"), s2.Has("after"), s2.LSN(), lsn+1)
	}

	// In memory the frame only exists for the replicator, which must not
	// be handed one its followers would reject.
	m := OpenMemoryShards(2)
	defer m.Close()
	c := &captureRepl{}
	m.SetReplicator(c)
	if err := m.Apply(oversizeBatch()); err == nil || m.LSN() != 0 || len(c.frames) != 0 {
		t.Fatalf("in-memory oversize Apply: err=%v LSN=%d shipped=%d", err, m.LSN(), len(c.frames))
	}
}

// TestCompactChunksSnapshotByBytes: snapshot frames split by encoded size,
// not op count, so large values cannot add up to a frame parseSnapshot
// rejects — which would leave the store unopenable after Compact.
func TestCompactChunksSnapshotByBytes(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, snapshotChunkBytes/2+1) // no two fit one chunk
	for i := 0; i < 3; i++ {
		val[0] = byte(i)
		if err := s.Put(fmt.Sprintf("k%d", i), val); err != nil {
			t.Fatal(err)
		}
	}
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
	frames := 0
	if valid, _ := seglog.Scan(snap, func([]byte, int, int) error { frames++; return nil }); valid != len(snap) || frames != 4 {
		t.Fatalf("snapshot: %d frames over %d of %d bytes, want header + 3 chunks", frames, valid, len(snap))
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i := 0; i < 3; i++ {
		val[0] = byte(i)
		if got, err := s2.Get(fmt.Sprintf("k%d", i)); err != nil || !bytes.Equal(got, val) {
			t.Fatalf("k%d after compact+reopen: %d bytes, %v", i, len(got), err)
		}
	}
}
