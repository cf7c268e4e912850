package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// The history behind testdata/v2compat, a 4-shard data directory written
// by the store at commit 013e593 — the last one with its own frame codec,
// before the WAL moved onto seglog's. compatPre runs first (LSNs 1–5; its
// third batch spans shards 0 and 3), then Compact (snapshots with an LSN-5
// header frame), then compatPost (LSNs 6–8; its second batch spans shards
// 2 and 3); finally compatTorn's frame at LSN 9 was cut three bytes short
// onto its segment, as a crash mid-append would leave it.
var (
	compatPre = [][]Op{
		{{Key: "token/alice", Value: []byte("a1")}},
		{{Key: "token/bob", Value: []byte("b1")}},
		{{Key: "token/carol", Value: []byte("c1")}, {Key: "acct/carol", Value: []byte("x")}, {Key: "audit/head", Value: []byte("h1")}},
		{{Key: "token/bob", Delete: true}},
		{{Key: "token/alice", Value: []byte("a2")}},
	}
	compatPost = [][]Op{
		{{Key: "token/dave", Value: []byte("d1")}},
		{{Key: "token/erin", Value: []byte("e1")}, {Key: "token/bob", Value: []byte("b2")}},
		{{Key: "acct/carol", Delete: true}},
	}
	compatTorn = []Op{{Key: "token/frank", Value: []byte("f1")}}
)

// TestOnDiskFormatCompat: a directory the previous codec wrote opens with
// the exact recorded state, and today's encoder reproduces its segment
// and snapshot bytes exactly.
func TestOnDiskFormatCompat(t *testing.T) {
	src := filepath.Join("testdata", "v2compat")
	files := map[string][]byte{}
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if files[e.Name()], err = os.ReadFile(filepath.Join(src, e.Name())); err != nil {
			t.Fatal(err)
		}
	}

	// Same bytes: rebuild every file from the recorded history.
	m := OpenMemoryShards(4)
	for _, b := range compatPre {
		if err := m.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string][]byte{"meta": []byte(metaHeader + "\nshards 4\nepoch 0\n")}
	for i, sh := range m.shards {
		var ops []Op
		for k, v := range sh.data {
			ops = append(ops, Op{Key: k, Value: v})
		}
		sort.Slice(ops, func(a, b int) bool { return ops[a].Key < ops[b].Key })
		snap := EncodeFrame(5, nil)
		if len(ops) > 0 {
			snap = append(snap, EncodeFrame(0, ops)...)
		}
		want[fmt.Sprintf("shard-%03d.kv", i)] = snap
		want[fmt.Sprintf("shard-%03d.wal", i)] = []byte{}
	}
	logsTo := func(b []Op) string {
		var idxBuf [8]int
		idxs, _ := m.lockShards(b, idxBuf[:0])
		m.unlockShards(idxs)
		return fmt.Sprintf("shard-%03d.wal", idxs[0])
	}
	for j, b := range compatPost {
		seg := logsTo(b)
		want[seg] = append(want[seg], EncodeFrame(uint64(6+j), b)...)
	}
	torn := EncodeFrame(9, compatTorn)
	tornSeg := logsTo(compatTorn)
	committed := len(want[tornSeg])
	want[tornSeg] = append(want[tornSeg], torn[:len(torn)-3]...)
	if len(files) != len(want) {
		t.Fatalf("fixture holds %d files, history explains %d", len(files), len(want))
	}
	for name, w := range want {
		if !bytes.Equal(files[name], w) {
			t.Errorf("%s: fixture %x\n re-encoded %x", name, files[name], w)
		}
	}

	// Same state: Open (on a copy — it truncates the torn tail).
	dir := t.TempDir()
	for name, b := range files {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	kvs, err := s.Scan("")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, kv := range kvs {
		got[kv.Key] = string(kv.Value)
	}
	wantKVs := map[string]string{
		"audit/head": "h1", "token/alice": "a2", "token/bob": "b2",
		"token/carol": "c1", "token/dave": "d1", "token/erin": "e1",
	}
	if !reflect.DeepEqual(got, wantKVs) {
		t.Errorf("state = %v, want %v", got, wantKVs)
	}
	if s.NumShards() != 4 || s.LSN() != 8 || s.SnapshotLSN() != 5 {
		t.Errorf("shards %d, LSN %d, SnapshotLSN %d; want 4, 8, 5", s.NumShards(), s.LSN(), s.SnapshotLSN())
	}
	if fi, err := os.Stat(filepath.Join(dir, tornSeg)); err != nil || fi.Size() != int64(committed) {
		t.Errorf("torn segment not truncated to its %d committed bytes: %v, %v", committed, fi, err)
	}
}
