package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"openmfa/internal/seglog"
)

// fuzzSeedFrames returns representative valid frames for the fuzz corpora.
func fuzzSeedFrames() [][]byte {
	return [][]byte{
		EncodeFrame(1, []Op{{Key: "token/alice", Value: []byte("sealed-secret")}}),
		EncodeFrame(2, []Op{{Key: "acct/bob", Delete: true}}),
		EncodeFrame(3, []Op{
			{Key: "a", Value: nil},
			{Key: string([]byte{0, 255, '\n'}), Value: []byte{0, 1, 2}},
			{Key: "a", Delete: true},
		}),
		EncodeFrame(0, nil),
	}
}

// FuzzDecodeRecord throws arbitrary bytes at the batch codec, both behind
// the shared seglog scanner and bare: it must never panic, and whatever it
// accepts must be canonical — re-encoding every decoded batch reproduces
// the scanned bytes exactly, and a bare payload re-encodes to itself.
func FuzzDecodeRecord(f *testing.F) {
	for _, rec := range fuzzSeedFrames() {
		f.Add(rec)
		// Corrupted variants seed the interesting failure paths.
		for _, i := range []int{0, 4, len(rec) / 2, len(rec) - 1} {
			mut := append([]byte(nil), rec...)
			mut[i] ^= 0xFF
			f.Add(mut)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var canon []byte
		valid, _ := scanBatches(data, func(b walBatch, off, n int) {
			re := EncodeFrame(b.lsn, b.ops)
			if !bytes.Equal(re, data[off:off+n]) {
				t.Fatalf("decode→encode not canonical:\n in  %x\n out %x", data[off:off+n], re)
			}
			canon = append(canon, re...)
		})
		if valid < 0 || valid > len(data) || !bytes.Equal(canon, data[:valid]) {
			t.Fatalf("scan accepted %d of %d bytes but re-encodes to %d", valid, len(data), len(canon))
		}
		// The payload codec alone: random bytes reach it without first
		// having to pass a checksum.
		if lsn, ops, err := decodeBatchPayload(data); err == nil {
			re := EncodeFrame(lsn, ops)
			if !bytes.Equal(re[seglog.FrameHeaderSize:len(re)-1], data) {
				t.Fatalf("payload decode→encode not canonical:\n in  %x\n out %x", data, re)
			}
		}
	})
}

// FuzzRecoverWAL feeds arbitrary bytes in as a WAL segment: the scan must
// stop at a frame boundary within the input and be idempotent over its own
// valid prefix, and a real store must open over the segment, replay
// exactly the committed batches and truncate the file to them.
func FuzzRecoverWAL(f *testing.F) {
	var seg []byte
	for _, rec := range fuzzSeedFrames() {
		seg = append(seg, rec...)
	}
	f.Add(seg)
	f.Add(seg[:len(seg)-5])
	f.Add([]byte{})
	mut := append([]byte(nil), seg...)
	mut[10] ^= 0xFF
	f.Add(mut)
	f.Fuzz(func(t *testing.T, data []byte) {
		var batches []walBatch
		valid, _ := scanBatches(data, func(b walBatch, _, _ int) { batches = append(batches, b) })
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid offset %d out of range", valid)
		}
		again := 0
		validAgain, err := scanBatches(data[:valid], func(walBatch, int, int) { again++ })
		if err != nil || validAgain != valid || again != len(batches) {
			t.Fatalf("recovery not idempotent: %d/%d then %d/%d (%v)",
				len(batches), valid, again, validAgain, err)
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "shard-000.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{Shards: 1})
		if err != nil {
			t.Fatalf("open over fuzzed segment: %v", err)
		}
		defer s.Close()
		if fi, err := os.Stat(path); err != nil || fi.Size() != int64(valid) {
			t.Fatalf("segment left at %v, want %d bytes (err %v)", fi, valid, err)
		}
		want := map[string][]byte{}
		for _, b := range batches {
			// Keys hash into shard 0 by construction (one shard).
			for _, op := range b.ops {
				if op.Delete {
					delete(want, op.Key)
				} else {
					want[op.Key] = op.Value
				}
			}
		}
		if s.Len() != len(want) {
			t.Fatalf("replayed %d keys, want %d", s.Len(), len(want))
		}
		for k, v := range want {
			if got, err := s.Get(k); err != nil || !bytes.Equal(got, v) {
				t.Fatalf("Get(%q) = %q, %v; want %q", k, got, err, v)
			}
		}
	})
}
