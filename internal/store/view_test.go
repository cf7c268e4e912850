package store

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"

	"openmfa/internal/racecheck"
)

// decodeString is a View decoder: the value's bytes as a string.
func decodeString(b []byte) (any, error) { return string(b), nil }

// viewString reads key's decoded form through decodeString.
func viewString(t *testing.T, s *Store, key string) (string, error) {
	t.Helper()
	v, err := s.View(key, decodeString)
	if err != nil {
		return "", err
	}
	return v.(string), nil
}

// TestViewNeverStale: each write path replaces a key's decoded form
// together with its bytes, so a View after the write never returns the
// form decoded, or handed in, before it. A write path that left the slot
// alone would serve "stale" here.
func TestViewNeverStale(t *testing.T) {
	const key = "token/u"
	for _, c := range []struct {
		name  string
		write func(t *testing.T, s *Store, dir string) *Store // returns the store to read
		want  string                                          // "" = key absent
	}{
		{"Apply", func(t *testing.T, s *Store, _ string) *Store {
			must(t, s.Apply([]Op{{Key: key, Value: []byte("v2")}}))
			return s
		}, "v2"},
		{"Apply handing in the decoded form", func(t *testing.T, s *Store, _ string) *Store {
			must(t, s.Apply([]Op{{Key: key, Value: []byte("v2"), Decoded: "v2 handed in"}}))
			return s
		}, "v2 handed in"},
		{"Delete", func(t *testing.T, s *Store, _ string) *Store {
			must(t, s.Delete(key))
			return s
		}, ""},
		{"Batcher", func(t *testing.T, s *Store, _ string) *Store {
			must(t, NewBatcher(s, 0).Put(key, []byte("v2")))
			return s
		}, "v2"},
		{"ApplyReplicated", func(t *testing.T, s *Store, _ string) *Store {
			if _, err := s.ApplyReplicated(EncodeFrame(s.LSN()+1, []Op{{Key: key, Value: []byte("v2")}})); err != nil {
				t.Fatal(err)
			}
			return s
		}, "v2"},
		{"ApplyReplicated delete", func(t *testing.T, s *Store, _ string) *Store {
			if _, err := s.ApplyReplicated(EncodeFrame(s.LSN()+1, []Op{{Key: key, Delete: true}})); err != nil {
				t.Fatal(err)
			}
			return s
		}, ""},
		{"InstallReplicaSnapshot", func(t *testing.T, s *Store, _ string) *Store {
			must(t, s.InstallReplicaSnapshot(s.LSN()+5, []KV{{Key: key, Value: []byte("v2")}}))
			return s
		}, "v2"},
		{"InstallReplicaSnapshot without the key", func(t *testing.T, s *Store, _ string) *Store {
			must(t, s.InstallReplicaSnapshot(s.LSN()+5, []KV{{Key: "other", Value: []byte("x")}}))
			return s
		}, ""},
		{"reopen", func(t *testing.T, s *Store, dir string) *Store {
			must(t, s.Close())
			r, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Close() })
			return r
		}, "v1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			// The slot holds a form no decode of any value makes, so a
			// View that returns it after the write returned a stale slot
			// (after reopen: a handed-in form that was logged).
			must(t, s.Apply([]Op{{Key: key, Value: []byte("v1"), Decoded: "stale"}}))
			if got, _ := viewString(t, s, key); got != "stale" {
				t.Fatalf("View before the write = %q, want the handed-in form", got)
			}
			r := c.write(t, s, dir)
			got, err := viewString(t, r, key)
			switch {
			case c.want == "" && !errors.Is(err, ErrNotFound):
				t.Fatalf("View after the write = %q, %v; want ErrNotFound", got, err)
			case c.want != "" && (err != nil || got != c.want):
				t.Fatalf("View after the write = %q, %v; want %q", got, err, c.want)
			}
		})
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestViewDecodesOncePerWrite: decode runs on the first View after each
// write and not again until the next; a handed-in form is returned without
// decoding; a decode error is returned and nothing is kept; a missing key
// and a closed store report ErrNotFound and ErrClosed.
func TestViewDecodesOncePerWrite(t *testing.T) {
	s := OpenMemory()
	decodes := 0
	decode := func(b []byte) (any, error) {
		decodes++
		if string(b) == "bad" {
			return nil, errors.New("undecodable")
		}
		return string(b), nil
	}
	view := func() (any, error) { return s.View("k", decode) }
	must(t, s.Put("k", []byte("a")))
	for i := 0; i < 3; i++ {
		if v, err := view(); err != nil || v != "a" {
			t.Fatalf("View = %v, %v", v, err)
		}
	}
	if decodes != 1 {
		t.Fatalf("%d decodes for one write, want 1", decodes)
	}
	must(t, s.Put("k", []byte("b")))
	if v, _ := view(); v != "b" || decodes != 2 {
		t.Fatalf("after a rewrite: View = %v with %d decodes, want b with 2", v, decodes)
	}
	must(t, s.Apply([]Op{{Key: "k", Value: []byte("c"), Decoded: "c"}}))
	if v, _ := view(); v != "c" || decodes != 2 {
		t.Fatalf("handed-in form: View = %v with %d decodes, want c with 2", v, decodes)
	}
	must(t, s.Put("k", []byte("bad")))
	for i := 0; i < 2; i++ {
		if _, err := view(); err == nil || err.Error() != "undecodable" {
			t.Fatalf("View of undecodable bytes: err = %v", err)
		}
	}
	if decodes != 4 {
		t.Fatalf("%d decodes, want a failed decode retried (4)", decodes)
	}
	if _, err := s.View("missing", decode); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: err = %v", err)
	}
	must(t, s.Close())
	if _, err := view(); !errors.Is(err, ErrClosed) {
		t.Fatalf("after Close: err = %v", err)
	}
}

// TestViewHitZeroAlloc gates the read path every login takes twice (the
// idm account and the otpd token record): a View that finds the decoded
// form allocates nothing, not even for a key the caller builds on its
// stack.
func TestViewHitZeroAlloc(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("alloc-count assertions are meaningless under -race")
	}
	s := OpenMemory()
	user := "alice"
	must(t, s.Put("acct/"+user, []byte("record")))
	if _, err := s.View("acct/"+user, decodeString); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(500, func() {
		if v, err := s.View("acct/"+user, decodeString); err != nil || v != "record" {
			t.Fatalf("View = %v, %v", v, err)
		}
	})
	if got != 0 {
		t.Errorf("View hit: %.1f allocs/op, want 0", got)
	}
}

// TestViewConcurrentWithWriters runs Views against writers of the same
// keys (under -race in make verify). Each key has one writer counting up,
// its odd writes handing in the decoded form; a reader must never see a
// key's count go backwards, and once the writers are done every key must
// read its last count, which a decoded form left behind by an earlier
// write would hide.
func TestViewConcurrentWithWriters(t *testing.T) {
	const keys, writes, readers = 4, 300, 3
	s := OpenMemoryShards(2)
	decode := func(b []byte) (any, error) {
		var n int
		_, err := fmt.Sscan(string(b), &n)
		return n, err
	}
	for k := 0; k < keys; k++ {
		must(t, s.Put(fmt.Sprint("k", k), []byte("0")))
	}
	var wg sync.WaitGroup
	errs := make(chan error, keys+readers)
	for k := 0; k < keys; k++ {
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			for n := 1; n <= writes; n++ {
				op := Op{Key: key, Value: []byte(fmt.Sprint(n))}
				if n%2 == 1 { // the last write hands in nothing
					op.Decoded = n
				}
				if err := s.Apply([]Op{op}); err != nil {
					errs <- err
					return
				}
			}
		}(fmt.Sprint("k", k))
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := make([]int, keys)
			for i := 0; i < writes; i++ {
				for k := range last {
					v, err := s.View(fmt.Sprint("k", k), decode)
					if err != nil {
						errs <- err
						return
					}
					n := v.(int)
					if n < last[k] {
						errs <- fmt.Errorf("k%d went back from %d to %d", k, last[k], n)
						return
					}
					last[k] = n
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for k := 0; k < keys; k++ {
		if v, err := s.View(fmt.Sprint("k", k), decode); err != nil || v != writes {
			t.Errorf("k%d after the writers: %v, %v; want %d", k, v, err, writes)
		}
	}
}

// TestStoredValuesOwnTheirBytes: Apply keeps the Op.Value it is handed,
// which is sound only because the other write paths hand the shard maps
// slices of their own. Overwriting the buffer a value was decoded from (a
// replicated frame after ApplyReplicated, a segment's read buffer after
// recovery replays it) must not change what Get and View return. It fails
// if the WAL payload decoder ever views its input.
func TestStoredValuesOwnTheirBytes(t *testing.T) {
	const key, want = "token/u", "original"
	scribbleThenRead := func(t *testing.T, s *Store, buf []byte) {
		t.Helper()
		for i := range buf {
			buf[i] = 'X'
		}
		if got, err := s.Get(key); err != nil || string(got) != want {
			t.Errorf("Get = %q, %v; want %q", got, err, want)
		}
		if got, err := viewString(t, s, key); err != nil || got != want {
			t.Errorf("View = %q, %v; want %q", got, err, want)
		}
	}
	t.Run("ApplyReplicated", func(t *testing.T) {
		s := OpenMemory()
		frame := EncodeFrame(1, []Op{{Key: key, Value: []byte(want)}})
		if _, err := s.ApplyReplicated(frame); err != nil {
			t.Fatal(err)
		}
		scribbleThenRead(t, s, frame)
	})
	t.Run("recovery", func(t *testing.T) {
		dir := t.TempDir()
		s, err := Open(dir, Options{Shards: 1})
		must(t, err)
		must(t, s.Apply([]Op{{Key: key, Value: []byte(want)}}))
		must(t, s.Close())
		seg, err := os.ReadFile(s.walPath(0))
		must(t, err)
		// Replay the segment as Open's recovery does (scanBatches, then
		// applyOps), from a read buffer the test holds.
		r := OpenMemoryShards(1)
		if _, err := scanBatches(seg, func(b walBatch, _, _ int) { r.applyOps(b.ops) }); err != nil {
			t.Fatal(err)
		}
		scribbleThenRead(t, r, seg)
	})
}
