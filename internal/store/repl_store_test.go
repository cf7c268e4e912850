package store

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
)

// TestLSNMonotonicAcrossCompactReopen is the regression test for the LSN
// durability bug: writeSnapshot used to encode every snapshot frame with
// LSN 0 and Compact truncated the segments, so a reopen computed maxLSN=0
// and the store reissued LSNs from 1 — fatal for replication, where a
// follower keys everything on strictly increasing LSNs.
func TestLSNMonotonicAcrossCompactReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("user/%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	before := s.LSN()
	if before == 0 {
		t.Fatal("no LSNs issued")
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := s.SnapshotLSN(); got != before {
		t.Fatalf("snapshot floor = %d, want %d", got, before)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.LSN(); got != before {
		t.Fatalf("LSN after compact+reopen = %d, want %d", got, before)
	}
	if got := s2.SnapshotLSN(); got != before {
		t.Fatalf("snapshot floor after reopen = %d, want %d", got, before)
	}
	if err := s2.Put("user/new", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got := s2.LSN(); got != before+1 {
		t.Fatalf("LSN after post-compact Apply = %d, want %d (strictly larger, no reuse)", got, before+1)
	}
}

// TestCompactSyncsDirBeforeTruncate pins the crash-ordering fix: the data
// directory must be fsynced after the snapshot renames and before any
// segment truncation, and a directory-sync failure must abort compaction
// with every WAL record still in place.
func TestCompactSyncsDirBeforeTruncate(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 8; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	recsBefore := s.WALRecords()
	if recsBefore == 0 {
		t.Fatal("expected WAL records before compaction")
	}

	// First: observe ordering. When the dir sync runs, every segment must
	// still hold its pre-compaction bytes (nothing truncated yet).
	called := false
	s.dirSync = func(d string) error {
		called = true
		if d != dir {
			t.Errorf("dir sync called on %q, want %q", d, dir)
		}
		total := int64(0)
		for _, p := range s.WALPaths() {
			fi, err := os.Stat(p)
			if err != nil {
				t.Errorf("stat %s during dir sync: %v", p, err)
				continue
			}
			total += fi.Size()
		}
		if total == 0 {
			t.Error("WAL segments already truncated when the directory sync ran")
		}
		return syncDir(d)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("compaction never fsynced the data directory")
	}

	// Second: a failing dir sync aborts before any truncate.
	for i := 0; i < 8; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), []byte("v2")); err != nil {
			t.Fatal(err)
		}
	}
	recsBefore = s.WALRecords()
	boom := errors.New("injected dir sync failure")
	s.dirSync = func(string) error { return boom }
	if err := s.Compact(); !errors.Is(err, boom) {
		t.Fatalf("Compact with failing dir sync: err = %v, want %v", err, boom)
	}
	if got := s.WALRecords(); got != recsBefore {
		t.Fatalf("WAL records after aborted compaction = %d, want %d (nothing truncated)", got, recsBefore)
	}
	// The store is still healthy: the failure happened before the
	// destructive phase, so nothing is half-reset.
	s.dirSync = nil
	if err := s.Put("after", []byte("v")); err != nil {
		t.Fatalf("Apply after aborted compaction: %v", err)
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("retried compaction: %v", err)
	}
}

// TestCompactTruncateFaultIsFailStop pins the sticky-error fix: a failure
// in the truncate phase leaves the segment in an unknown half-reset state,
// so the shard must refuse all later appends, exactly like an append or
// fsync fault.
func TestCompactTruncateFaultIsFailStop(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put("a", []byte("v")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected truncate failure")
	s.compactFault = func(shard int) error { return boom }
	if err := s.Compact(); !errors.Is(err, boom) {
		t.Fatalf("Compact = %v, want %v", err, boom)
	}
	// The fault is sticky: both a retried compaction and a later Apply
	// must refuse to touch the poisoned segment.
	if err := s.Compact(); !errors.Is(err, boom) {
		t.Fatalf("second Compact = %v, want sticky %v", err, boom)
	}
	if err := s.Put("b", []byte("v")); !errors.Is(err, boom) {
		t.Fatalf("Apply after compact fault = %v, want sticky %v", err, boom)
	}
	// Reads still work (fail-stop, not fail-dead).
	if _, err := s.Get("a"); err != nil {
		t.Fatalf("Get after compact fault: %v", err)
	}
}

// TestEpochPersistsAcrossReopen covers the fencing epoch: monotonic
// in-process, durable across restarts, and backward compatible with meta
// files written before the epoch line existed.
func TestEpochPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Epoch(); got != 0 {
		t.Fatalf("fresh epoch = %d, want 0", got)
	}
	if err := s.SetEpoch(3); err != nil {
		t.Fatal(err)
	}
	if err := s.SetEpoch(3); err != nil {
		t.Fatalf("re-asserting current epoch: %v", err)
	}
	if err := s.SetEpoch(2); err == nil {
		t.Fatal("lowering the epoch must fail")
	}
	if got := s.Epoch(); got != 3 {
		t.Fatalf("epoch = %d, want 3", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Epoch(); got != 3 {
		t.Fatalf("epoch after reopen = %d, want 3", got)
	}
	s2.Close()
}

func TestLegacyMetaWithoutEpochLine(t *testing.T) {
	dir := t.TempDir()
	// A v2 meta file from before this PR: header + shard count only.
	if err := os.WriteFile(metaPath(dir), []byte(metaHeader+"\nshards 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.NumShards(); got != 2 {
		t.Fatalf("shards = %d, want persisted 2", got)
	}
	if got := s.Epoch(); got != 0 {
		t.Fatalf("legacy epoch = %d, want 0", got)
	}
	if err := s.SetEpoch(1); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(metaPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	want := metaHeader + "\nshards 2\nepoch 1\n"
	if string(b) != want {
		t.Fatalf("meta after SetEpoch = %q, want %q", b, want)
	}
}

func TestCorruptEpochLineRejected(t *testing.T) {
	for _, body := range []string{
		metaHeader + "\nshards 2\nepoch x\n",
		metaHeader + "\nshards 2\nepch 1\n",
		metaHeader + "\nshards 2\nepoch 1\nextra\n",
	} {
		dir := t.TempDir()
		if err := os.WriteFile(metaPath(dir), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, Options{}); err == nil {
			t.Fatalf("Open accepted corrupt meta %q", body)
		}
	}
}

func TestFollowerModeBlocksLocalApply(t *testing.T) {
	s := OpenMemoryShards(2)
	defer s.Close()
	s.SetFollowerMode(true)
	if !s.FollowerMode() {
		t.Fatal("FollowerMode not set")
	}
	if err := s.Put("k", []byte("v")); !errors.Is(err, ErrFollower) {
		t.Fatalf("Put in follower mode = %v, want ErrFollower", err)
	}
	if err := s.Apply([]Op{{Key: "k", Value: []byte("v")}}); !errors.Is(err, ErrFollower) {
		t.Fatalf("Apply in follower mode = %v, want ErrFollower", err)
	}
	// Replicated frames still land.
	if ok, err := s.ApplyReplicated(EncodeFrame(1, []Op{{Key: "k", Value: []byte("v")}})); err != nil || !ok {
		t.Fatalf("ApplyReplicated in follower mode = (%v, %v), want (true, nil)", ok, err)
	}
	s.SetFollowerMode(false)
	if err := s.Put("k2", []byte("v")); err != nil {
		t.Fatalf("Put after leaving follower mode: %v", err)
	}
}

// captureRepl records OnCommit frames and optionally fails WaitCommitted.
type captureRepl struct {
	mu      sync.Mutex
	lsns    []uint64
	frames  [][]byte
	waitErr error
}

func (c *captureRepl) OnCommit(lsn uint64, shard int, frame []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lsns = append(c.lsns, lsn)
	c.frames = append(c.frames, frame)
}

func (c *captureRepl) WaitCommitted(lsn uint64) error { return c.waitErr }

func TestReplicatorHookAndWaitGate(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cap := &captureRepl{}
	s.SetReplicator(cap)
	for i := 0; i < 5; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	cap.mu.Lock()
	if len(cap.lsns) != 5 {
		t.Fatalf("OnCommit fired %d times, want 5", len(cap.lsns))
	}
	for i := 1; i < len(cap.lsns); i++ {
		if cap.lsns[i] <= cap.lsns[i-1] {
			t.Fatalf("per-segment OnCommit order not ascending: %v", cap.lsns)
		}
	}
	cap.mu.Unlock()

	// A WaitCommitted failure surfaces from Apply: the batch is applied
	// locally but the caller must fail closed.
	cap.waitErr = errors.New("no follower ack")
	if err := s.Put("gated", []byte("v")); !errors.Is(err, cap.waitErr) {
		t.Fatalf("Apply with failing WaitCommitted = %v, want %v", err, cap.waitErr)
	}
	if _, err := s.Get("gated"); err != nil {
		t.Fatalf("batch should still be applied locally: %v", err)
	}
	s.SetReplicator(nil)
	if err := s.Put("ungated", []byte("v")); err != nil {
		t.Fatalf("Apply after removing replicator: %v", err)
	}
}

func TestApplyReplicatedIdempotentAndGapChecked(t *testing.T) {
	// A leader store generates real frames through the OnCommit hook; a
	// follower consumes them.
	leader := OpenMemoryShards(4)
	defer leader.Close()
	cap := &captureRepl{}
	leader.SetReplicator(cap)
	for i := 0; i < 6; i++ {
		if err := leader.Put(fmt.Sprintf("user/%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}

	follower := OpenMemoryShards(2) // shard count independence: follower rehashes
	defer follower.Close()
	follower.SetFollowerMode(true)
	for _, f := range cap.frames {
		if ok, err := follower.ApplyReplicated(f); err != nil || !ok {
			t.Fatalf("ApplyReplicated = (%v, %v), want (true, nil)", ok, err)
		}
	}
	if got, want := follower.LSN(), leader.LSN(); got != want {
		t.Fatalf("follower LSN = %d, want %d", got, want)
	}

	// Duplicates (reconnect replay) are skipped, not errors.
	for _, f := range cap.frames {
		if ok, err := follower.ApplyReplicated(f); err != nil || ok {
			t.Fatalf("duplicate ApplyReplicated = (%v, %v), want (false, nil)", ok, err)
		}
	}
	if got, want := follower.LSN(), leader.LSN(); got != want {
		t.Fatalf("follower LSN after duplicates = %d, want %d", got, want)
	}
	for i := 0; i < 6; i++ {
		v, err := follower.Get(fmt.Sprintf("user/%d", i))
		if err != nil || len(v) != 1 || v[0] != byte(i) {
			t.Fatalf("follower Get(user/%d) = (%v, %v)", i, v, err)
		}
	}

	// A frame that skips ahead is a gap: the follower must resync, not
	// apply a log with a hole.
	gap := EncodeFrame(follower.LSN()+2, []Op{{Key: "x", Value: []byte("v")}})
	if _, err := follower.ApplyReplicated(gap); !errors.Is(err, ErrReplGap) {
		t.Fatalf("gap frame = %v, want ErrReplGap", err)
	}

	// Garbage and empty frames are rejected outright.
	if _, err := follower.ApplyReplicated([]byte("junk")); err == nil {
		t.Fatal("garbage frame accepted")
	}
	if _, err := follower.ApplyReplicated(EncodeFrame(follower.LSN()+1, nil)); err == nil {
		t.Fatal("zero-op frame accepted")
	}
}

func TestApplyReplicatedDurableOnFollowerDisk(t *testing.T) {
	leaderCap := &captureRepl{}
	leader := OpenMemoryShards(4)
	defer leader.Close()
	leader.SetReplicator(leaderCap)
	for i := 0; i < 4; i++ {
		if err := leader.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	dir := t.TempDir()
	f, err := Open(dir, Options{Shards: 2, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	f.SetFollowerMode(true)
	for _, fr := range leaderCap.frames {
		if _, err := f.ApplyReplicated(fr); err != nil {
			t.Fatal(err)
		}
	}
	lsn := f.LSN()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// The replicated frames were appended to the follower's own WAL: a
	// restart recovers state and LSN clock exactly.
	f2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if got := f2.LSN(); got != lsn {
		t.Fatalf("follower LSN after restart = %d, want %d", got, lsn)
	}
	for i := 0; i < 4; i++ {
		if _, err := f2.Get(fmt.Sprintf("k%d", i)); err != nil {
			t.Fatalf("Get(k%d) after restart: %v", i, err)
		}
	}
}

func TestReplicationSnapshotInstallRoundTrip(t *testing.T) {
	dir := t.TempDir()
	leader, err := Open(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	for i := 0; i < 50; i++ {
		if err := leader.Put(fmt.Sprintf("user/%03d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.Delete("user/007"); err != nil {
		t.Fatal(err)
	}
	lsn, kvs, err := leader.ReplicationSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if lsn != leader.LSN() {
		t.Fatalf("snapshot lsn = %d, want %d", lsn, leader.LSN())
	}
	if len(kvs) != 49 {
		t.Fatalf("snapshot kvs = %d, want 49", len(kvs))
	}

	fdir := t.TempDir()
	follower, err := Open(fdir, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	follower.SetFollowerMode(true)
	if err := follower.InstallReplicaSnapshot(lsn, kvs); err != nil {
		t.Fatal(err)
	}
	if got := follower.LSN(); got != lsn {
		t.Fatalf("follower LSN = %d, want %d", got, lsn)
	}
	if got := follower.SnapshotLSN(); got != lsn {
		t.Fatalf("follower snapshot floor = %d, want %d", got, lsn)
	}
	want, err := leader.Scan("")
	if err != nil {
		t.Fatal(err)
	}
	got, err := follower.Scan("")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("follower has %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key || string(got[i].Value) != string(want[i].Value) {
			t.Fatalf("mismatch at %d: %q vs %q", i, got[i], want[i])
		}
	}

	// Installed state survives a restart (snapshot write + truncate ran).
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	f2, err := Open(fdir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if got := f2.LSN(); got != lsn {
		t.Fatalf("follower LSN after restart = %d, want %d", got, lsn)
	}

	// A stale (older) snapshot is refused.
	if err := f2.InstallReplicaSnapshot(lsn-1, nil); !errors.Is(err, ErrStaleSnapshot) {
		t.Fatalf("stale install = %v, want ErrStaleSnapshot", err)
	}
}

func TestSegmentFramesCatchUp(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	frames, err := s.SegmentFrames(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 10 {
		t.Fatalf("frames since 0 = %d, want 10", len(frames))
	}
	for i, f := range frames {
		if f.LSN != uint64(i+1) {
			t.Fatalf("frame %d has LSN %d, want %d (sorted, contiguous)", i, f.LSN, i+1)
		}
	}
	mid := uint64(6)
	tail, err := s.SegmentFrames(mid)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 4 || tail[0].LSN != mid+1 {
		t.Fatalf("frames since %d = %d starting %d, want 4 starting %d", mid, len(tail), tail[0].LSN, mid+1)
	}

	// Frames feed a follower to an identical state.
	follower := OpenMemoryShards(1)
	defer follower.Close()
	follower.SetFollowerMode(true)
	for _, f := range frames {
		if _, err := follower.ApplyReplicated(f.Frame); err != nil {
			t.Fatal(err)
		}
	}
	if follower.LSN() != s.LSN() {
		t.Fatalf("follower LSN = %d, want %d", follower.LSN(), s.LSN())
	}

	// After compaction the segments are empty: everything at or below the
	// floor must come from a full snapshot instead.
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	frames, err = s.SegmentFrames(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 0 {
		t.Fatalf("frames after compact = %d, want 0", len(frames))
	}
	if err := s.Put("post", []byte("v")); err != nil {
		t.Fatal(err)
	}
	frames, err = s.SegmentFrames(s.SnapshotLSN())
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 1 || frames[0].LSN != s.LSN() {
		t.Fatalf("frames above floor = %v, want the one post-compact frame", frames)
	}

	// In-memory stores have no segments.
	if fr, err := follower.SegmentFrames(0); err != nil || fr != nil {
		t.Fatalf("in-memory SegmentFrames = (%v, %v), want (nil, nil)", fr, err)
	}
}

func TestEncodeDecodeFrameRoundTrip(t *testing.T) {
	ops := []Op{
		{Key: "put", Value: []byte("value")},
		{Key: "del", Delete: true},
	}
	frame := EncodeFrame(7, ops)
	lsn, got, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 7 || len(got) != 2 {
		t.Fatalf("decoded lsn=%d nops=%d", lsn, len(got))
	}
	if got[0].Key != "put" || string(got[0].Value) != "value" || got[0].Delete {
		t.Fatalf("op 0 = %+v", got[0])
	}
	if got[1].Key != "del" || !got[1].Delete {
		t.Fatalf("op 1 = %+v", got[1])
	}
	if _, _, err := DecodeFrame(append(frame, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if _, _, err := DecodeFrame(frame[:len(frame)-1]); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestApplyReplicatedRejectsDamagedFrames(t *testing.T) {
	s := OpenMemoryShards(2)
	defer s.Close()
	s.SetFollowerMode(true)
	good := EncodeFrame(1, []Op{{Key: "a", Value: []byte("1")}})

	bad := append([]byte(nil), good...)
	bad[4] ^= 0xFF // checksum byte
	if _, err := s.ApplyReplicated(bad); err == nil {
		t.Fatal("checksum-damaged frame accepted")
	}
	if _, err := s.ApplyReplicated(append(append([]byte(nil), good...), 0xC3)); err == nil {
		t.Fatal("frame with trailing bytes accepted")
	}
	if applied, err := s.ApplyReplicated(good); err != nil || !applied {
		t.Fatalf("clean frame after rejects: applied=%v err=%v", applied, err)
	}
}

func TestApplyReplicatedSyncAndGroupCommitPaths(t *testing.T) {
	for _, group := range []bool{false, true} {
		dir := t.TempDir()
		s, err := Open(dir, Options{Shards: 2, Sync: true, GroupCommit: group})
		if err != nil {
			t.Fatal(err)
		}
		s.SetFollowerMode(true)
		for i := uint64(1); i <= 3; i++ {
			frame := EncodeFrame(i, []Op{{Key: fmt.Sprintf("k%d", i), Value: []byte("v")}})
			if applied, err := s.ApplyReplicated(frame); err != nil || !applied {
				t.Fatalf("group=%v lsn=%d: applied=%v err=%v", group, i, applied, err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := s2.LSN(); got != 3 {
			t.Fatalf("group=%v: LSN after reopen = %d, want 3", group, got)
		}
		s2.Close()
	}
}

func TestApplyReplicatedChainsToDownstreamReplicator(t *testing.T) {
	s := OpenMemoryShards(2)
	defer s.Close()
	s.SetFollowerMode(true)
	chain := &captureRepl{}
	s.SetReplicator(chain)

	frame := EncodeFrame(1, []Op{{Key: "a", Value: []byte("1")}})
	if applied, err := s.ApplyReplicated(frame); err != nil || !applied {
		t.Fatalf("applied=%v err=%v", applied, err)
	}
	// A duplicate redelivery must not be re-shipped downstream.
	if applied, err := s.ApplyReplicated(frame); err != nil || applied {
		t.Fatalf("duplicate: applied=%v err=%v", applied, err)
	}
	if len(chain.frames) != 1 || len(chain.lsns) != 1 || chain.lsns[0] != 1 {
		t.Fatalf("downstream saw lsns=%v (%d frames), want exactly lsn 1", chain.lsns, len(chain.frames))
	}
	// The chained frame is a copy: mutating the wire buffer afterwards
	// must not corrupt what the downstream follower will receive.
	frame[0] ^= 0xFF
	if _, _, err := DecodeFrame(chain.frames[0]); err != nil {
		t.Fatalf("downstream frame aliases the wire buffer: %v", err)
	}
}

func TestApplyReplicatedFailStopOnStickyWALError(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put("seed", []byte("v")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected truncate fault")
	s.compactFault = func(int) error { return boom }
	if err := s.Compact(); err == nil {
		t.Fatal("Compact survived injected fault")
	}
	s.SetFollowerMode(true)
	frame := EncodeFrame(s.LSN()+1, []Op{{Key: "next", Value: []byte("v")}})
	if _, err := s.ApplyReplicated(frame); !errors.Is(err, boom) {
		t.Fatalf("ApplyReplicated on fail-stopped shard: %v, want sticky %v", err, boom)
	}
}

func TestClosedStoreReplicationSurface(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := s.Len(); n != 0 {
		t.Fatalf("Len after Close = %d", n)
	}
	if n := s.Count(""); n != 0 {
		t.Fatalf("Count after Close = %d", n)
	}
	if n := s.WALRecords(); n != 0 {
		t.Fatalf("WALRecords after Close = %d", n)
	}
	if _, err := s.ApplyReplicated(EncodeFrame(2, []Op{{Key: "x", Value: nil}})); !errors.Is(err, ErrClosed) {
		t.Fatalf("ApplyReplicated after Close: %v", err)
	}
	if _, _, err := s.ReplicationSnapshot(); !errors.Is(err, ErrClosed) {
		t.Fatalf("ReplicationSnapshot after Close: %v", err)
	}
	if _, err := s.SegmentFrames(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("SegmentFrames after Close: %v", err)
	}
	if err := s.InstallReplicaSnapshot(9, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("InstallReplicaSnapshot after Close: %v", err)
	}
}
