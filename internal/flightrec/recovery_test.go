package flightrec

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"openmfa/internal/seglog"
)

func writeBundles(t *testing.T, dir string, n int) []string {
	t.Helper()
	rec, err := New(Config{Dir: dir, Policy: Policy{}})
	if err != nil {
		t.Fatal(err)
	}
	var traces []string
	rec.mu.Lock()
	for i := 0; i < n; i++ {
		trace := fmt.Sprintf("tr-%02d", i)
		traces = append(traces, trace)
		if err := rec.persistLocked(&Bundle{
			Trace: trace, Time: testT0.Add(time.Duration(i) * time.Second),
			User: "alice", Result: "reject", Reason: ReasonFailed,
		}); err != nil {
			rec.mu.Unlock()
			t.Fatal(err)
		}
	}
	rec.mu.Unlock()
	rec.Stop()
	return traces
}

// TestTornTailSweep is the crash-recovery exhaustiveness test at the bundle
// level (the frame codec's own cases live in internal/seglog): a segment
// holding several bundles is truncated at EVERY byte offset, and recovery
// must (a) never error, (b) recover exactly the bundles whose frames lie
// entirely before the cut, (c) never produce a half-bundle, and (d) leave
// the directory appendable.
func TestTornTailSweep(t *testing.T) {
	src := t.TempDir()
	traces := writeBundles(t, src, 4)
	segPath := filepath.Join(src, seglog.SegName(segPrefix, 1))
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}

	// Frame boundaries: recovery at a boundary keeps every frame before it.
	boundaries := []int{0}
	for off := 0; off < len(data); {
		_, frameLen, err := seglog.DecodeFrame(data[off:])
		if err != nil {
			t.Fatalf("intact segment has bad frame at %d: %v", off, err)
		}
		off += frameLen
		boundaries = append(boundaries, off)
	}
	wholeFramesBefore := func(cut int) int {
		n := 0
		for _, b := range boundaries[1:] {
			if b <= cut {
				n++
			}
		}
		return n
	}

	for cut := len(data); cut >= 0; cut-- {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, seglog.SegName(segPrefix, 1)), data[:cut], 0o600); err != nil {
			t.Fatal(err)
		}
		rec, err := New(Config{Dir: dir, Policy: Policy{}})
		if err != nil {
			t.Fatalf("cut=%d: recovery failed: %v", cut, err)
		}
		want := wholeFramesBefore(cut)
		if got := rec.Len(); got != want {
			t.Fatalf("cut=%d: recovered %d bundles, want %d", cut, got, want)
		}
		for i := 0; i < want; i++ {
			b, err := rec.Get(traces[i])
			if err != nil || b == nil || b.User != "alice" {
				t.Fatalf("cut=%d: bundle %s unreadable: %+v, %v", cut, traces[i], b, err)
			}
		}
		// The torn segment must have been truncated back to its last
		// committed frame.
		fi, err := os.Stat(filepath.Join(dir, seglog.SegName(segPrefix, 1)))
		if err != nil {
			t.Fatal(err)
		}
		validEnd := 0
		for _, b := range boundaries[1:] {
			if b <= cut {
				validEnd = b
			}
		}
		if fi.Size() != int64(validEnd) {
			t.Fatalf("cut=%d: segment left at %d bytes, want %d", cut, fi.Size(), validEnd)
		}
		// And the recorder must still accept new bundles.
		rec.mu.Lock()
		err = rec.persistLocked(&Bundle{Trace: "tr-new", Reason: ReasonFailed})
		rec.mu.Unlock()
		if err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		if b, err := rec.Get("tr-new"); err != nil || b == nil {
			t.Fatalf("cut=%d: new bundle unreadable after recovery", cut)
		}
		rec.Stop()
	}
}

// TestForeignFilesIgnored: non-segment files in the directory are left
// alone by recovery and rotation.
func TestForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("hi"), 0o600); err != nil {
		t.Fatal(err)
	}
	rec, err := New(Config{Dir: dir, Policy: Policy{}})
	if err != nil {
		t.Fatal(err)
	}
	rec.Stop()
	if _, err := os.Stat(filepath.Join(dir, "README")); err != nil {
		t.Fatal("foreign file disturbed")
	}
}
