package seglog

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

type jrec struct {
	K string `json:"k"`
	V int    `json:"v"`
}

type jsum struct {
	K    string
	Size int
}

// openJournal opens a journal over tiny segments so a handful of records
// rotate and evict.
func openJournal(t *testing.T, dir string) (*Journal[jrec, jsum], int) {
	t.Helper()
	j, torn, err := OpenJournal(Options{Dir: dir, Prefix: testPrefix, MaxSegmentSize: 64, MaxSegments: 2},
		func(r *jrec) string { return r.K },
		func(r *jrec, size int) jsum { return jsum{K: r.K, Size: size} })
	if err != nil {
		t.Fatal(err)
	}
	return j, torn
}

func keys(sums []jsum) []string {
	var out []string
	for _, s := range sums {
		out = append(out, s.K)
	}
	return out
}

func appendRecs(t *testing.T, j *Journal[jrec, jsum], from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if _, err := j.Append(&jrec{K: fmt.Sprintf("k%02d", i), V: i}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestJournalEvictionDropsEntries(t *testing.T) {
	j, _ := openJournal(t, t.TempDir())
	defer j.Close()
	evicted := false
	for i := 0; !evicted; i++ {
		if i > 100 {
			t.Fatal("no segment evicted at 64-byte segments")
		}
		res, err := j.Append(&jrec{K: fmt.Sprintf("k%02d", i), V: i})
		if err != nil {
			t.Fatal(err)
		}
		evicted = len(res.Evicted) > 0
	}
	if r, err := j.Get("k00"); r != nil || err != nil {
		t.Fatalf("Get(evicted k00) = %+v, %v; want nil, nil", r, err)
	}
	sums := j.Summaries(0, nil)
	for _, s := range sums {
		if s.K == "k00" {
			t.Fatal("evicted k00 still in the summaries")
		}
	}
	if len(sums) != j.Len() || j.Has("k00") {
		t.Fatalf("index disagrees: %d summaries, Len %d, Has(k00) %v", len(sums), j.Len(), j.Has("k00"))
	}
	if r, err := j.Get(sums[0].K); err != nil || r == nil || r.K != sums[0].K {
		t.Fatalf("newest record %s unreadable: %+v, %v", sums[0].K, r, err)
	}
}

func TestJournalReopenRebuildsIndex(t *testing.T) {
	dir := t.TempDir()
	j, _ := openJournal(t, dir)
	appendRecs(t, j, 0, 10)
	before := j.Summaries(0, nil)
	j.Close()

	j2, torn := openJournal(t, dir)
	defer j2.Close()
	if torn != 0 {
		t.Errorf("clean reopen reported %d torn tails", torn)
	}
	if after := j2.Summaries(0, nil); !reflect.DeepEqual(before, after) {
		t.Fatalf("reopened index %v, want %v", keys(after), keys(before))
	}
	for _, s := range before {
		if r, err := j2.Get(s.K); err != nil || r == nil || r.K != s.K {
			t.Fatalf("Get(%s) after reopen = %+v, %v", s.K, r, err)
		}
	}
	if got := keys(j2.Summaries(2, func(s jsum) bool { return s.K != "k09" })); !reflect.DeepEqual(got, []string{"k08", "k07"}) {
		t.Errorf("filtered, limited summaries = %v, want [k08 k07]", got)
	}
}

func TestJournalDuplicateKeyKeepsFirst(t *testing.T) {
	dir := t.TempDir()
	j, _ := openJournal(t, dir)
	for _, v := range []int{1, 2} {
		if _, err := j.Append(&jrec{K: "dup", V: v}); err != nil {
			t.Fatal(err)
		}
	}
	check := func(j *Journal[jrec, jsum], when string) {
		t.Helper()
		if r, err := j.Get("dup"); err != nil || r == nil || r.V != 1 {
			t.Fatalf("%s: Get(dup) = %+v, %v; want the first record", when, r, err)
		}
		if j.Len() != 1 {
			t.Fatalf("%s: %d entries indexed for one key", when, j.Len())
		}
	}
	check(j, "live")
	j.Close()
	j2, _ := openJournal(t, dir)
	defer j2.Close()
	check(j2, "reopened")
}

// TestReadJournal: the offline reader takes a directory or one segment,
// rejects any other file, skips foreign frames and a torn tail, and
// leaves every byte of the directory as it found it.
func TestReadJournal(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, dir, nil)
	if _, err := l.Append([]byte(`{"k":"a","v":1}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("not json")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte(`{"k":"b","v":2}`)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	seg := filepath.Join(dir, SegName(testPrefix, 1))
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(EncodeFrame([]byte(`{"k":"torn"}`))[:10])
	f.Close()
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("hi"), 0o600); err != nil {
		t.Fatal(err)
	}
	snapshot := func() map[string][]byte {
		ents, _ := os.ReadDir(dir)
		m := map[string][]byte{}
		for _, e := range ents {
			m[e.Name()], _ = os.ReadFile(filepath.Join(dir, e.Name()))
		}
		return m
	}
	before := snapshot()

	want := []jrec{{"a", 1}, {"b", 2}}
	for _, path := range []string{dir, seg} {
		got, err := ReadJournal[jrec](path, testPrefix)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("ReadJournal(%s) = %v, %v; want %v", path, got, err, want)
		}
	}
	if _, err := ReadJournal[jrec](filepath.Join(dir, "README"), testPrefix); err == nil {
		t.Error("a non-segment file was accepted")
	}
	after := snapshot()
	if len(after) != len(before) {
		t.Fatalf("directory went from %d to %d files", len(before), len(after))
	}
	for name, b := range before {
		if !bytes.Equal(after[name], b) {
			t.Errorf("%s changed under the read-only reader", name)
		}
	}
}
