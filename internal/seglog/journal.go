package seglog

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Journal is a keyed index of JSON records over a Log: the layer the
// flight recorder (bundles by trace ID) and the incident profiler
// (incidents by ID) share. Opening it replays every committed frame into
// the index, skipping frames that do not decode as a T (foreign data);
// Append drops the entries of the segments retention evicted; Get reads
// one record back off disk by key. A key is indexed once: a later record
// under the same key is persisted but not indexed, so the first wins.
// The index holds only a summary S and a Ref per record. Methods are
// safe for concurrent use.
type Journal[T, S any] struct {
	log     *Log
	key     func(*T) string
	summary func(rec *T, size int) S

	mu    sync.Mutex
	byKey map[string]*journalEntry[S]
	order []*journalEntry[S] // persistence order, so ascending Ref.Seg
}

type journalEntry[S any] struct {
	key string
	sum S
	ref Ref
}

// OpenJournal opens (and recovers, as Open does) the Log opts names and
// rebuilds the index from its committed frames. key names a record;
// summary builds its index entry from the record and its payload size.
// torn counts the tails recovery truncated.
func OpenJournal[T, S any](opts Options, key func(*T) string, summary func(rec *T, size int) S) (j *Journal[T, S], torn int, err error) {
	j = &Journal[T, S]{key: key, summary: summary, byKey: map[string]*journalEntry[S]{}}
	j.log, torn, err = Open(opts, func(payload []byte, ref Ref) error {
		var rec T
		if json.Unmarshal(payload, &rec) == nil {
			j.index(&rec, len(payload), ref)
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return j, torn, nil
}

func (j *Journal[T, S]) index(rec *T, size int, ref Ref) {
	k := j.key(rec)
	if _, dup := j.byKey[k]; dup {
		return
	}
	e := &journalEntry[S]{key: k, sum: j.summary(rec, size), ref: ref}
	j.byKey[k] = e
	j.order = append(j.order, e)
}

// Append persists rec as one frame and indexes it. The result is the
// Log's: it reports rotation, and the evicted segments' entries are
// already gone from the index.
func (j *Journal[T, S]) Append(rec *T) (AppendResult, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return AppendResult{}, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	res, err := j.log.Append(payload)
	if err != nil {
		return res, err
	}
	// Retention evicts the oldest segments, so their entries are a prefix.
	if n := len(res.Evicted); n > 0 {
		for last := res.Evicted[n-1]; len(j.order) > 0 && j.order[0].ref.Seg <= last; j.order = j.order[1:] {
			delete(j.byKey, j.order[0].key)
		}
	}
	j.index(rec, len(payload), res.Ref)
	return res, nil
}

// Get reads the record indexed under key back off disk, re-verifying its
// checksum: nil, nil when the key is not indexed. Works after Close.
func (j *Journal[T, S]) Get(key string) (*T, error) {
	j.mu.Lock()
	e, ok := j.byKey[key]
	j.mu.Unlock()
	if !ok {
		return nil, nil
	}
	payload, err := j.log.Read(e.ref)
	if err != nil {
		return nil, err
	}
	rec := new(T)
	if err := json.Unmarshal(payload, rec); err != nil {
		return nil, fmt.Errorf("seglog: decode record %s: %w", key, err)
	}
	return rec, nil
}

// Has reports whether key is indexed.
func (j *Journal[T, S]) Has(key string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	_, ok := j.byKey[key]
	return ok
}

// Summaries returns the index entries keep accepts (every one when keep
// is nil), newest first, at most limit of them (0 means no bound).
func (j *Journal[T, S]) Summaries(limit int, keep func(S) bool) []S {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []S
	for i := len(j.order) - 1; i >= 0 && (limit <= 0 || len(out) < limit); i-- {
		if s := j.order[i].sum; keep == nil || keep(s) {
			out = append(out, s)
		}
	}
	return out
}

// Len reports how many records are indexed.
func (j *Journal[T, S]) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.order)
}

// Close closes the Log: Append fails with ErrClosed afterwards, Get and
// Summaries keep working.
func (j *Journal[T, S]) Close() error { return j.log.Close() }

// ReadJournal reads every committed record under path, a directory of
// prefix segments or one such segment file, in persistence order. It is
// read-only: torn tails are skipped, not truncated, so it is safe against
// a live journal's directory or segments copied off a crashed host.
// Frames that do not decode as a T are skipped as foreign.
func ReadJournal[T any](path, prefix string) ([]T, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	var out []T
	collect := func(payload []byte, _ Ref) error {
		var rec T
		if json.Unmarshal(payload, &rec) == nil {
			out = append(out, rec)
		}
		return nil
	}
	if fi.IsDir() {
		err = ScanDir(path, prefix, collect)
	} else if seq, ok := SegSeq(prefix, filepath.Base(path)); !ok {
		return nil, fmt.Errorf("%s is not a %sNNNNNN%s segment", path, prefix, SegSuffix)
	} else {
		_, err = ScanSegment(filepath.Dir(path), prefix, seq, collect)
	}
	return out, err
}
