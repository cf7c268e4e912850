package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"openmfa/internal/seglog"
)

func randomBatch(rng *rand.Rand) []Op {
	n := 1 + rng.Intn(6)
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		op := Op{Key: fmt.Sprintf("k%d/%d", rng.Intn(16), rng.Intn(1000))}
		if rng.Intn(4) == 0 {
			op.Delete = true
		} else {
			op.Value = make([]byte, rng.Intn(64))
			rng.Read(op.Value)
		}
		ops = append(ops, op)
	}
	return ops
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		ops := randomBatch(rng)
		lsn := rng.Uint64()
		rec := EncodeFrame(lsn, ops)
		gotLSN, gotOps, err := DecodeFrame(rec)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if gotLSN != lsn {
			t.Fatalf("lsn = %d, want %d", gotLSN, lsn)
		}
		// Normalise nil vs empty values for comparison; the codec
		// preserves emptiness but not nil-ness.
		norm := func(ops []Op) []Op {
			out := append([]Op(nil), ops...)
			for j := range out {
				if !out[j].Delete && out[j].Value == nil {
					out[j].Value = []byte{}
				}
			}
			return out
		}
		if got, want := norm(gotOps), norm(ops); !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
		}
		// Canonical: re-encoding the decode reproduces the bytes.
		if !bytes.Equal(EncodeFrame(gotLSN, gotOps), rec) {
			t.Fatal("re-encode differs from original bytes")
		}
	}
}

// TestDecodeRejectsCorruption flips every byte of a store frame: each
// corruption must be rejected (wrong CRC, marker, length, or structure),
// never accepted or panicking. Truncation at every byte is seglog's
// TestTornTailEveryByte.
func TestDecodeRejectsCorruption(t *testing.T) {
	rec := EncodeFrame(42, []Op{
		{Key: "alice", Value: []byte("secret")},
		{Key: "bob", Delete: true},
	})
	for i := range rec {
		mut := append([]byte(nil), rec...)
		mut[i] ^= 0xFF
		if _, _, err := DecodeFrame(mut); err == nil {
			t.Fatalf("corrupt byte %d accepted", i)
		}
	}
}

// TestDecodeRejectsOversizeClaims: an op count far larger than the payload
// could hold must be rejected before allocation. (An oversize frame length
// claim is seglog's TestFrameRoundTrip.)
func TestDecodeRejectsOversizeClaims(t *testing.T) {
	payload := make([]byte, minPayloadSize)
	binary.LittleEndian.PutUint32(payload[8:12], 1<<30)
	if _, _, err := DecodeFrame(seglog.EncodeFrame(payload)); err == nil {
		t.Fatal("absurd op count accepted")
	}
}

func TestDecodeRejectsBadPayloadStructure(t *testing.T) {
	cases := map[string][]byte{
		"below minimum size": make([]byte, minPayloadSize-1),
		"trailing garbage":   make([]byte, minPayloadSize+3), // nops = 0 but 3 extra bytes
		"bad op kind": func() []byte {
			p := make([]byte, minPayloadSize+5)
			binary.LittleEndian.PutUint32(p[8:12], 1)
			p[12] = 7
			return p
		}(),
		"key overruns payload": func() []byte {
			p := make([]byte, minPayloadSize+5)
			binary.LittleEndian.PutUint32(p[8:12], 1)
			p[12] = opDelete
			binary.LittleEndian.PutUint32(p[13:], 100)
			return p
		}(),
		"put missing value length": func() []byte {
			// A put whose key consumes the payload exactly, leaving no
			// room for the 4-byte value length.
			p := make([]byte, minPayloadSize+5+2)
			binary.LittleEndian.PutUint32(p[8:12], 1)
			p[12] = opPut
			binary.LittleEndian.PutUint32(p[13:], 2)
			return p
		}(),
		"value overruns payload": func() []byte {
			p := make([]byte, minPayloadSize+5+4)
			binary.LittleEndian.PutUint32(p[8:12], 1)
			p[12] = opPut
			binary.LittleEndian.PutUint32(p[13:], 0) // empty key
			binary.LittleEndian.PutUint32(p[17:], 100)
			return p
		}(),
	}
	for name, payload := range cases {
		if _, _, err := DecodeFrame(seglog.EncodeFrame(payload)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestRecoverSegmentTruncatesAtFirstDamage: recovery keeps exactly the
// frames before the first damaged one — a checksum failure, or a frame
// that checksums but whose payload does not decode.
func TestRecoverSegmentTruncatesAtFirstDamage(t *testing.T) {
	var buf []byte
	var ends []int
	for i := 0; i < 5; i++ {
		buf = append(buf, EncodeFrame(uint64(i+1), []Op{{Key: fmt.Sprintf("k%d", i), Value: []byte{byte(i)}}})...)
		ends = append(ends, len(buf))
	}
	recoverSegment := func(data []byte) (n, valid int) {
		valid, _ = scanBatches(data, func(walBatch, int, int) { n++ })
		return n, valid
	}
	if n, valid := recoverSegment(buf); n != 5 || valid != len(buf) {
		t.Fatalf("full segment: %d batches, valid %d", n, valid)
	}
	mut := append([]byte(nil), buf...)
	mut[ends[2]+10] ^= 0xFF
	if n, valid := recoverSegment(mut); n != 3 || valid != ends[2] {
		t.Fatalf("after corruption: %d batches, valid %d (want 3, %d)", n, valid, ends[2])
	}
	// A well-framed payload the batch codec rejects is damage too.
	bad := append(append(append([]byte(nil), buf[:ends[1]]...), seglog.EncodeFrame([]byte("not a batch payload"))...), buf[ends[1]:]...)
	if n, valid := recoverSegment(bad); n != 2 || valid != ends[1] {
		t.Fatalf("after undecodable payload: %d batches, valid %d (want 2, %d)", n, valid, ends[1])
	}
}

func TestParseSnapshotStrict(t *testing.T) {
	rec := EncodeFrame(0, []Op{{Key: "k", Value: []byte("v")}})
	if _, err := parseSnapshot(rec); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	if _, err := parseSnapshot(rec[:len(rec)-1]); err == nil {
		t.Fatal("torn snapshot accepted")
	}
	if _, err := parseSnapshot(append(rec, seglog.EncodeFrame([]byte("not a batch payload"))...)); err == nil {
		t.Fatal("snapshot with an undecodable payload accepted")
	}
	if batches, err := parseSnapshot(nil); err != nil || len(batches) != 0 {
		t.Fatalf("empty snapshot: %v, %d batches", err, len(batches))
	}
}

// TestChunkOps pins the snapshot chunk boundary: runs stay within the
// byte budget, an op over budget travels alone, nothing is lost or
// reordered.
func TestChunkOps(t *testing.T) {
	var ops []Op
	for i := 0; i < 10; i++ {
		ops = append(ops, Op{Key: fmt.Sprintf("k%d", i), Value: make([]byte, 10)})
	}
	const each = 1 + 4 + 2 + 4 + 10 // kind, klen, key, vlen, value
	for _, tc := range []struct {
		budget int
		sizes  []int
	}{
		{minPayloadSize + 3*each, []int{3, 3, 3, 1}},
		{minPayloadSize + 3*each - 1, []int{2, 2, 2, 2, 2}},
		{minPayloadSize + 10*each, []int{10}},
		{1, []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}}, // every op over budget
	} {
		chunks := chunkOps(ops, tc.budget)
		var sizes []int
		var joined []Op
		for _, c := range chunks {
			sizes = append(sizes, len(c))
			joined = append(joined, c...)
			if len(c) > 1 && payloadLen(c) > tc.budget {
				t.Errorf("budget %d: %d-op chunk encodes to %d bytes", tc.budget, len(c), payloadLen(c))
			}
		}
		if !reflect.DeepEqual(sizes, tc.sizes) || !reflect.DeepEqual(joined, ops) {
			t.Errorf("budget %d: chunk sizes %v, want %v (ops preserved: %v)", tc.budget, sizes, tc.sizes, reflect.DeepEqual(joined, ops))
		}
	}
	big := Op{Key: "big", Value: make([]byte, 100)}
	mixed := []Op{ops[0], big, ops[1]}
	if got := chunkOps(mixed, minPayloadSize+3*each); len(got) != 3 || got[1][0].Key != "big" {
		t.Errorf("oversize op not isolated: %v", got)
	}
	if got := chunkOps(nil, 100); len(got) != 0 {
		t.Errorf("empty input: %d chunks", len(got))
	}
}
