// Package seglog owns the crash-atomic frame format and the segment-log
// layer built on it. Every persisted record — a store WAL batch or
// snapshot chunk, a flight-recorder bundle, an incident bundle — is
// exactly one frame,
//
//	[u32 payload length][u32 CRC32-IEEE of payload][payload][0xC3]
//
// little-endian, committed only when all four pieces are present and
// consistent. Scan walks frame bytes and stops at the first incomplete or
// corrupt frame, so a crash mid-append can lose at most the record being
// written — a torn tail never yields a half record to a reader. The store
// keeps its own per-shard segment files and uses only the codec and Scan;
// the flight recorder and the incident profiler use the rotated,
// size-capped Log below.
//
// Segments are named <prefix>NNNNNN.seg and rotate by size: when the
// active segment would exceed MaxSegmentSize a new one is opened, and
// when the directory holds more than MaxSegments the oldest is deleted
// (Append reports the evicted sequence numbers so owners can drop index
// entries). Reads go back to disk and re-verify the checksum, so the
// owner's memory footprint is just its index.
//
// Two access modes:
//
//   - Open: read-write recovery — replays committed frames, physically
//     truncates torn tails, opens a fresh active segment for Append.
//   - ScanDir / ScanSegment: read-only — torn tails are skipped, not
//     truncated, safe against a live directory or segments copied off a
//     crashed host (the offline loganalyze readers).
package seglog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Frame-format constants, shared with the historical store WAL and
// flightrec layouts (existing segments and snapshots read back unchanged).
const (
	// CommitMarker is the single byte terminating every committed frame.
	CommitMarker = 0xC3
	// FrameHeaderSize is the length + CRC prefix in bytes.
	FrameHeaderSize = 8
	// MaxPayloadSize bounds one frame's payload (1 GiB). Writers must
	// refuse larger payloads: DecodeFrame rejects them, so such a frame
	// would read back as a torn tail.
	MaxPayloadSize = 1 << 30
	// SegSuffix is the segment filename extension.
	SegSuffix = ".seg"
)

var (
	errShortFrame  = errors.New("seglog: incomplete segment frame")
	errBadLength   = errors.New("seglog: segment frame length out of range")
	errBadChecksum = errors.New("seglog: segment frame checksum mismatch")
	errBadMarker   = errors.New("seglog: segment frame missing commit marker")

	// ErrClosed is returned by Append after Close.
	ErrClosed = errors.New("seglog: log closed")
)

// EncodeFrame renders one complete frame around payload.
func EncodeFrame(payload []byte) []byte {
	frame := make([]byte, FrameHeaderSize+len(payload)+1)
	copy(frame[FrameHeaderSize:], payload)
	SealFrame(frame)
	return frame
}

// SealFrame completes a frame whose payload was written in place, so a
// caller that encodes straight into its frame buffer allocates once:
// frame is FrameHeaderSize bytes of header room, the payload, and one
// byte for the marker. It fills in the length, checksum and marker. The
// payload must be 1..MaxPayloadSize bytes.
func SealFrame(frame []byte) {
	payload := frame[FrameHeaderSize : len(frame)-1]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	frame[len(frame)-1] = CommitMarker
}

// DecodeFrame parses the frame at the start of b, returning the payload
// and the total frame size consumed. Any defect (short data, bad length,
// checksum mismatch, missing commit marker) is an error; callers treat it
// as the torn tail and stop.
func DecodeFrame(b []byte) (payload []byte, frameLen int, err error) {
	if len(b) < FrameHeaderSize {
		return nil, 0, errShortFrame
	}
	plen := int(binary.LittleEndian.Uint32(b[0:4]))
	if plen <= 0 || plen > MaxPayloadSize {
		return nil, 0, errBadLength
	}
	total := FrameHeaderSize + plen + 1
	if len(b) < total {
		return nil, 0, errShortFrame
	}
	payload = b[FrameHeaderSize : FrameHeaderSize+plen]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[4:8]) {
		return nil, 0, errBadChecksum
	}
	if b[FrameHeaderSize+plen] != CommitMarker {
		return nil, 0, errBadMarker
	}
	return payload, total, nil
}

// Scan walks the committed frames at the head of data, calling fn with
// each payload, its offset and its frame length. It returns the offset
// just past the last committed frame: len(data) for clean input, the
// torn-tail offset otherwise. If fn rejects a frame, Scan stops there and
// returns that frame's offset with fn's error. Scan is the one loop that
// walks frame bytes: tolerant readers truncate or skip at valid, strict
// ones require valid == len(data).
func Scan(data []byte, fn func(payload []byte, off, frameLen int) error) (valid int, err error) {
	for valid < len(data) {
		payload, frameLen, derr := DecodeFrame(data[valid:])
		if derr != nil {
			return valid, nil
		}
		if err := fn(payload, valid, frameLen); err != nil {
			return valid, err
		}
		valid += frameLen
	}
	return valid, nil
}

// SegName renders the segment filename for seq under prefix.
func SegName(prefix string, seq uint64) string {
	return fmt.Sprintf("%s%06d%s", prefix, seq, SegSuffix)
}

// SegSeq parses a segment filename, reporting ok=false for foreign files
// (wrong prefix, wrong suffix, non-numeric middle).
func SegSeq(prefix, name string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, SegSuffix) {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, prefix), SegSuffix)
	n, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// ListSegments returns the segment sequence numbers present in dir for
// prefix, ascending. Foreign files are ignored.
func ListSegments(dir, prefix string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, ent := range ents {
		if seq, ok := SegSeq(prefix, ent.Name()); ok && !ent.IsDir() {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// Ref locates one committed frame on disk.
type Ref struct {
	Seg    uint64
	Offset int64
	Length int // full frame length including header and marker
}

// ScanSegment walks every committed frame in one segment file, invoking
// fn with each payload and its location. It returns the byte offset of
// the first torn or corrupt frame (== file size when the segment is
// clean), which Open uses to truncate the recovered tail. The file is
// never modified.
func ScanSegment(dir, prefix string, seq uint64, fn func(payload []byte, ref Ref) error) (validEnd int64, err error) {
	data, err := os.ReadFile(filepath.Join(dir, SegName(prefix, seq)))
	if err != nil {
		return 0, err
	}
	valid, err := Scan(data, func(payload []byte, off, frameLen int) error {
		if fn == nil {
			return nil
		}
		return fn(payload, Ref{Seg: seq, Offset: int64(off), Length: frameLen})
	})
	return int64(valid), err
}

// ScanDir walks every committed frame across all of dir's prefix
// segments in persistence order, read-only: torn tails are skipped, not
// truncated, so it is safe against a live log's directory or against
// segments copied off a crashed host.
func ScanDir(dir, prefix string, fn func(payload []byte, ref Ref) error) error {
	seqs, err := ListSegments(dir, prefix)
	if err != nil {
		return err
	}
	for _, seq := range seqs {
		if _, err := ScanSegment(dir, prefix, seq, fn); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrame fetches one frame's payload back off disk by reference,
// re-verifying the checksum so a post-write disk corruption surfaces as
// an error rather than bad data.
func ReadFrame(dir, prefix string, ref Ref) ([]byte, error) {
	f, err := os.Open(filepath.Join(dir, SegName(prefix, ref.Seg)))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, ref.Length)
	if _, err := io.ReadFull(io.NewSectionReader(f, ref.Offset, int64(ref.Length)), buf); err != nil {
		return nil, fmt.Errorf("seglog: read frame: %w", err)
	}
	payload, _, err := DecodeFrame(buf)
	if err != nil {
		return nil, err
	}
	return payload, nil
}

// Options parameterises Open.
type Options struct {
	// Dir holds the segment files (required; created if missing).
	Dir string
	// Prefix names the segments: <prefix>NNNNNN.seg (required).
	Prefix string
	// MaxSegmentSize rotates the active segment once appending would push
	// it past this many bytes (required > 0).
	MaxSegmentSize int64
	// MaxSegments bounds the retained segment count (required > 0); the
	// oldest segment is deleted on rotation past it.
	MaxSegments int
}

// AppendResult reports what one Append did beyond writing the frame.
type AppendResult struct {
	// Ref locates the appended frame.
	Ref Ref
	// Rotated reports that a new active segment was opened first.
	Rotated bool
	// Evicted lists segment sequence numbers deleted by retention; the
	// owner must drop any index entries referencing them.
	Evicted []uint64
}

// Log is an append-only rotated segment log. Methods are safe for
// concurrent use.
type Log struct {
	opts Options

	mu      sync.Mutex
	active  *os.File
	actSeq  uint64
	actSize int64
	segs    []uint64 // live segment seqs, ascending
}

// Open recovers dir: it replays every committed frame (ascending segment
// order) through replay, physically truncates torn tails — any segment,
// not just the last, can have one if a crash raced rotation — and opens
// a fresh active segment after the highest recovered one. torn counts
// the truncated tails. A replay error aborts the open.
func Open(opts Options, replay func(payload []byte, ref Ref) error) (l *Log, torn int, err error) {
	if opts.Dir == "" || opts.Prefix == "" {
		return nil, 0, fmt.Errorf("seglog: Dir and Prefix required")
	}
	if opts.MaxSegmentSize <= 0 || opts.MaxSegments <= 0 {
		return nil, 0, fmt.Errorf("seglog: MaxSegmentSize and MaxSegments must be positive")
	}
	if err := os.MkdirAll(opts.Dir, 0o700); err != nil {
		return nil, 0, fmt.Errorf("seglog: %w", err)
	}
	l = &Log{opts: opts}
	seqs, err := ListSegments(opts.Dir, opts.Prefix)
	if err != nil {
		return nil, 0, fmt.Errorf("seglog: %w", err)
	}
	for _, seq := range seqs {
		validEnd, err := ScanSegment(opts.Dir, opts.Prefix, seq, replay)
		if err != nil {
			return nil, 0, fmt.Errorf("seglog: recover segment %d: %w", seq, err)
		}
		path := filepath.Join(opts.Dir, SegName(opts.Prefix, seq))
		if fi, err := os.Stat(path); err == nil && fi.Size() > validEnd {
			if err := os.Truncate(path, validEnd); err != nil {
				return nil, 0, fmt.Errorf("seglog: truncate torn tail: %w", err)
			}
			torn++
		}
		l.segs = append(l.segs, seq)
	}
	if err := l.openActiveLocked(); err != nil {
		return nil, 0, err
	}
	return l, torn, nil
}

// openActiveLocked opens a fresh segment after the highest known one.
func (l *Log) openActiveLocked() error {
	next := uint64(1)
	if n := len(l.segs); n > 0 {
		next = l.segs[n-1] + 1
	}
	f, err := os.OpenFile(filepath.Join(l.opts.Dir, SegName(l.opts.Prefix, next)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return fmt.Errorf("seglog: %w", err)
	}
	l.active, l.actSeq, l.actSize = f, next, 0
	l.segs = append(l.segs, next)
	return nil
}

// Append frames payload and writes it to the active segment, rotating
// first when the segment is full and evicting the oldest segments past
// MaxSegments.
func (l *Log) Append(payload []byte) (AppendResult, error) {
	if len(payload) == 0 || len(payload) > MaxPayloadSize {
		// DecodeFrame rejects these lengths, so a frame written around one
		// would read back as a torn tail and poison the rest of its segment.
		return AppendResult{}, errBadLength
	}
	frame := EncodeFrame(payload)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active == nil {
		return AppendResult{}, ErrClosed
	}
	var res AppendResult
	if l.actSize > 0 && l.actSize+int64(len(frame)) > l.opts.MaxSegmentSize {
		l.active.Close()
		if err := l.openActiveLocked(); err != nil {
			return AppendResult{}, err
		}
		res.Rotated = true
		for len(l.segs) > l.opts.MaxSegments {
			old := l.segs[0]
			l.segs = l.segs[1:]
			os.Remove(filepath.Join(l.opts.Dir, SegName(l.opts.Prefix, old)))
			res.Evicted = append(res.Evicted, old)
		}
	}
	if _, err := l.active.Write(frame); err != nil {
		return AppendResult{}, err
	}
	res.Ref = Ref{Seg: l.actSeq, Offset: l.actSize, Length: len(frame)}
	l.actSize += int64(len(frame))
	return res, nil
}

// Read fetches one payload back off disk by reference, re-verifying its
// checksum. Works after Close.
func (l *Log) Read(ref Ref) ([]byte, error) {
	return ReadFrame(l.opts.Dir, l.opts.Prefix, ref)
}

// Dir reports the segment directory.
func (l *Log) Dir() string { return l.opts.Dir }

// Close closes the active segment. Appends fail afterwards; Read keeps
// working. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active == nil {
		return nil
	}
	err := l.active.Close()
	l.active = nil
	return err
}
