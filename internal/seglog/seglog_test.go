package seglog

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

const testPrefix = "test-"

func openTest(t *testing.T, dir string, replay func([]byte, Ref) error) (*Log, int) {
	t.Helper()
	l, torn, err := Open(Options{
		Dir: dir, Prefix: testPrefix, MaxSegmentSize: 1 << 20, MaxSegments: 8,
	}, replay)
	if err != nil {
		t.Fatal(err)
	}
	return l, torn
}

func TestAppendReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, dir, nil)
	defer l.Close()
	var refs []Ref
	for i := 0; i < 5; i++ {
		res, err := l.Append([]byte(fmt.Sprintf("payload-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, res.Ref)
	}
	for i, ref := range refs {
		got, err := l.Read(ref)
		if err != nil || string(got) != fmt.Sprintf("payload-%d", i) {
			t.Fatalf("Read(%+v) = %q, %v", ref, got, err)
		}
	}
	if _, err := l.Append(nil); err == nil {
		t.Error("empty payload framed; DecodeFrame would reject length 0")
	}
}

// TestTornTailEveryByte is the crash-recovery exhaustiveness sweep at the
// seglog layer: a segment holding several frames is truncated at EVERY
// byte offset; recovery must replay exactly the frames committed before
// the cut, truncate the file back to the last committed frame, and leave
// the log appendable.
func TestTornTailEveryByte(t *testing.T) {
	src := t.TempDir()
	l, _ := openTest(t, src, nil)
	for i := 0; i < 4; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("frame-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	data, err := os.ReadFile(filepath.Join(src, SegName(testPrefix, 1)))
	if err != nil {
		t.Fatal(err)
	}

	boundaries := []int{0}
	for off := 0; off < len(data); {
		_, frameLen, err := DecodeFrame(data[off:])
		if err != nil {
			t.Fatalf("intact segment has bad frame at %d: %v", off, err)
		}
		off += frameLen
		boundaries = append(boundaries, off)
	}

	for cut := len(data); cut >= 0; cut-- {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, SegName(testPrefix, 1)), data[:cut], 0o600); err != nil {
			t.Fatal(err)
		}
		var replayed []string
		l, torn := openTest(t, dir, func(p []byte, _ Ref) error {
			replayed = append(replayed, string(p))
			return nil
		})
		want, validEnd := 0, 0
		for _, b := range boundaries[1:] {
			if b <= cut {
				want++
				validEnd = b
			}
		}
		if len(replayed) != want {
			t.Fatalf("cut=%d: replayed %d frames, want %d", cut, len(replayed), want)
		}
		for i, p := range replayed {
			if p != fmt.Sprintf("frame-%d", i) {
				t.Fatalf("cut=%d: frame %d = %q", cut, i, p)
			}
		}
		if (cut != validEnd) != (torn == 1) {
			t.Fatalf("cut=%d: torn=%d with validEnd=%d", cut, torn, validEnd)
		}
		if fi, err := os.Stat(filepath.Join(dir, SegName(testPrefix, 1))); err != nil || fi.Size() != int64(validEnd) {
			t.Fatalf("cut=%d: segment left at %v bytes, want %d (err %v)", cut, fi.Size(), validEnd, err)
		}
		if res, err := l.Append([]byte("post-recovery")); err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		} else if got, err := l.Read(res.Ref); err != nil || string(got) != "post-recovery" {
			t.Fatalf("cut=%d: post-recovery frame unreadable: %q, %v", cut, got, err)
		}
		l.Close()
	}
}

func TestRotationAndEviction(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{
		Dir: dir, Prefix: testPrefix, MaxSegmentSize: 64, MaxSegments: 2,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payload := bytes.Repeat([]byte("x"), 40) // one frame per segment
	var rotations, evictions int
	for i := 0; i < 5; i++ {
		res, err := l.Append(payload)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rotated {
			rotations++
		}
		evictions += len(res.Evicted)
	}
	if rotations != 4 || evictions != 3 {
		t.Errorf("rotations=%d evictions=%d, want 4 and 3", rotations, evictions)
	}
	seqs, err := ListSegments(dir, testPrefix)
	if err != nil || len(seqs) != 2 {
		t.Fatalf("segments on disk = %v, want 2 (err %v)", seqs, err)
	}
}

func TestScanDirIsReadOnly(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, dir, nil)
	l.Append([]byte("committed"))
	l.Close()
	seg := filepath.Join(dir, SegName(testPrefix, 1))
	data, _ := os.ReadFile(seg)
	torn := append(append([]byte{}, data...), EncodeFrame([]byte("half"))[:5]...)
	if err := os.WriteFile(seg, torn, 0o600); err != nil {
		t.Fatal(err)
	}
	var got []string
	if err := ScanDir(dir, testPrefix, func(p []byte, _ Ref) error {
		got = append(got, string(p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "committed" {
		t.Fatalf("ScanDir = %v", got)
	}
	if fi, _ := os.Stat(seg); fi.Size() != int64(len(torn)) {
		t.Error("read-only scan modified the segment file")
	}
}

func TestForeignAndClosed(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("hi"), 0o600); err != nil {
		t.Fatal(err)
	}
	// A different prefix's segment is foreign too.
	if err := os.WriteFile(filepath.Join(dir, "other-000001.seg"), EncodeFrame([]byte("x")), 0o600); err != nil {
		t.Fatal(err)
	}
	n := 0
	l, _ := openTest(t, dir, func([]byte, Ref) error { n++; return nil })
	if n != 0 {
		t.Errorf("replayed %d frames from foreign files", n)
	}
	l.Close()
	if _, err := os.Stat(filepath.Join(dir, "README")); err != nil {
		t.Error("foreign file disturbed")
	}
	if _, err := l.Append([]byte("late")); err != ErrClosed {
		t.Errorf("append after close = %v, want ErrClosed", err)
	}
}

// TestFrameRoundTrip pins the frame layout against the store WAL
// discipline: length, CRC, payload, commit marker.
func TestFrameRoundTrip(t *testing.T) {
	payload := []byte(`{"trace":"x","reason":"failed"}`)
	frame := EncodeFrame(payload)
	if frame[len(frame)-1] != CommitMarker {
		t.Fatal("frame missing trailing commit marker")
	}
	got, n, err := DecodeFrame(frame)
	if err != nil || n != len(frame) || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: %q, %d, %v", got, n, err)
	}
	for _, mutate := range []func([]byte){
		func(b []byte) { b[len(b)-1] = 0 },            // marker
		func(b []byte) { b[FrameHeaderSize] ^= 1 },    // payload -> CRC mismatch
		func(b []byte) { b[3] = 0xFF },                // length claim over MaxPayloadSize
		func(b []byte) { b[0], b[1], b[2] = 0, 0, 0 }, // zero length
	} {
		c := append([]byte(nil), frame...)
		mutate(c)
		if _, _, err := DecodeFrame(c); err == nil {
			t.Fatal("mutated frame decoded cleanly")
		}
	}
}

// TestScanStopsAtTornOrRejectedFrame pins Scan's contract: valid is the
// offset past the last committed frame, and a frame fn rejects stops the
// scan at its own offset with fn's error.
func TestScanStopsAtTornOrRejectedFrame(t *testing.T) {
	seg := fuzzSegment()
	_, first, _ := DecodeFrame(seg)
	_, second, _ := DecodeFrame(seg[first:])
	var offs []int
	valid, err := Scan(seg[:len(seg)-1], func(_ []byte, off, _ int) error {
		offs = append(offs, off)
		return nil
	})
	if err != nil || len(offs) != 2 || offs[1] != first || valid != first+second {
		t.Fatalf("torn tail: valid=%d offsets=%v err=%v", valid, offs, err)
	}
	stop := errors.New("stop")
	valid, err = Scan(seg, func(_ []byte, off, _ int) error {
		if off > 0 {
			return stop
		}
		return nil
	})
	if err != stop || valid != first {
		t.Fatalf("rejected frame: valid=%d err=%v, want %d and fn's error", valid, err, first)
	}
}

// TestCorruptFrameStopsRecovery flips a payload byte mid-segment:
// everything before the corruption recovers, everything after is
// discarded (frame streams have no resync point — mirroring the store
// WAL's prefix rule).
func TestCorruptFrameStopsRecovery(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, dir, nil)
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("frame-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	seg := filepath.Join(dir, SegName(testPrefix, 1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	_, first, err := DecodeFrame(data)
	if err != nil {
		t.Fatal(err)
	}
	data[first+FrameHeaderSize+4] ^= 0xFF // corrupt frame 2's payload
	if err := os.WriteFile(seg, data, 0o600); err != nil {
		t.Fatal(err)
	}
	var replayed []string
	l, torn := openTest(t, dir, func(p []byte, _ Ref) error {
		replayed = append(replayed, string(p))
		return nil
	})
	defer l.Close()
	if len(replayed) != 1 || replayed[0] != "frame-0" || torn != 1 {
		t.Fatalf("replayed %v past corruption (torn=%d), want [frame-0] and one torn tail", replayed, torn)
	}
}

// fuzzSegment is three committed frames back to back.
func fuzzSegment() []byte {
	var seg []byte
	for _, p := range []string{"a", `{"trace":"tr-01","user":"alice"}`, string(bytes.Repeat([]byte{0xC3}, 40))} {
		seg = append(seg, EncodeFrame([]byte(p))...)
	}
	return seg
}

// FuzzDecodeFrame: the decoder never panics, never reads past its input,
// and accepts exactly what EncodeFrame would have written.
func FuzzDecodeFrame(f *testing.F) {
	seg := fuzzSegment()
	f.Add(seg)
	f.Add(seg[:len(seg)-1])
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0xC3})
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, n, err := DecodeFrame(data)
		if err != nil {
			if payload != nil || n != 0 {
				t.Fatalf("error %v with payload %q, n=%d", err, payload, n)
			}
			return
		}
		if n != FrameHeaderSize+len(payload)+1 || n > len(data) {
			t.Fatalf("frame length %d for a %d-byte payload in %d bytes", n, len(payload), len(data))
		}
		if !bytes.Equal(EncodeFrame(payload), data[:n]) {
			t.Fatal("accepted frame is not what EncodeFrame writes for its payload")
		}
	})
}

// FuzzRecover: Open over an arbitrary segment never fails, replays exactly
// the committed prefix a read-only scan sees, truncates the file to it,
// stays appendable, and recovers the same frames plus the new one when
// opened again.
func FuzzRecover(f *testing.F) {
	seg := fuzzSegment()
	f.Add(seg)
	f.Add(seg[:len(seg)-5])
	f.Add([]byte{})
	mut := append([]byte(nil), seg...)
	mut[12] ^= 0xFF
	f.Add(mut)
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, SegName(testPrefix, 1))
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		var scanned [][]byte
		validEnd, err := ScanSegment(dir, testPrefix, 1, func(p []byte, ref Ref) error {
			if int(ref.Offset)+ref.Length > len(data) {
				t.Fatalf("frame ref %+v outside %d bytes", ref, len(data))
			}
			scanned = append(scanned, append([]byte(nil), p...))
			return nil
		})
		if err != nil || validEnd < 0 || validEnd > int64(len(data)) {
			t.Fatalf("scan: validEnd=%d of %d, err=%v", validEnd, len(data), err)
		}

		recoverAll := func() (*Log, [][]byte, int) {
			var got [][]byte
			l, torn, err := Open(Options{Dir: dir, Prefix: testPrefix, MaxSegmentSize: 1 << 20, MaxSegments: 8},
				func(p []byte, _ Ref) error {
					got = append(got, append([]byte(nil), p...))
					return nil
				})
			if err != nil {
				t.Fatalf("open over fuzzed segment: %v", err)
			}
			return l, got, torn
		}
		l, got, torn := recoverAll()
		if len(got) != len(scanned) || (torn == 1) != (validEnd < int64(len(data))) {
			t.Fatalf("recovered %d frames (torn=%d), scan saw %d up to %d of %d", len(got), torn, len(scanned), validEnd, len(data))
		}
		for i := range got {
			if !bytes.Equal(got[i], scanned[i]) {
				t.Fatalf("frame %d: recovered %q, scanned %q", i, got[i], scanned[i])
			}
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() != validEnd {
			t.Fatalf("segment left at %d bytes, want %d (err %v)", fi.Size(), validEnd, err)
		}
		if _, err := l.Append([]byte("post-recovery")); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		l.Close()

		l, again, torn := recoverAll()
		l.Close()
		if torn != 0 || len(again) != len(got)+1 || string(again[len(again)-1]) != "post-recovery" {
			t.Fatalf("second open: %d frames (torn=%d), want %d ending in the appended one", len(again), torn, len(got)+1)
		}
	})
}
