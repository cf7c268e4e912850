package store

import (
	"encoding/binary"
	"errors"
	"fmt"

	"openmfa/internal/seglog"
)

// WAL batch payload (format v2). Every Apply appends exactly one
// seglog frame (length, CRC32, payload, commit marker — see package
// seglog) to one shard segment, carrying:
//
//	[u64 LSN][u32 nops] then per op:
//	  [u8 kind (0 put, 1 delete)][u32 klen][key] (+ [u32 vlen][value] for puts)
//
// All integers are little-endian. Recovery truncates a segment at the
// first frame that is torn, fails its checksum, or whose payload does not
// decode, so a crash mid-Apply either replays the whole batch or none of
// it; the v1 text WAL replayed a prefix of the batch, breaking Apply's
// atomicity promise.
const (
	minPayloadSize = 12 // LSN + op count

	opPut    = 0
	opDelete = 1
)

var errOpOverrun = errors.New("store: wal op overruns its payload")

// walBatch is one decoded batch record.
type walBatch struct {
	lsn uint64
	ops []Op
}

// payloadLen returns the encoded payload size for batch.
func payloadLen(batch []Op) int {
	n := minPayloadSize
	for _, op := range batch {
		n += opLen(op)
	}
	return n
}

// opLen returns one op's encoded size.
func opLen(op Op) int {
	if op.Delete {
		return 1 + 4 + len(op.Key)
	}
	return 1 + 4 + len(op.Key) + 4 + len(op.Value)
}

// EncodeFrame renders one complete WAL frame — the exact bytes Apply logs
// for this batch at this LSN — in a single allocation. Replication tests
// and tooling use it to synthesise leader streams. The payload must be
// within seglog.MaxPayloadSize (Apply checks before encoding).
func EncodeFrame(lsn uint64, batch []Op) []byte {
	plen := payloadLen(batch)
	frame := make([]byte, seglog.FrameHeaderSize+plen+1)
	p := frame[seglog.FrameHeaderSize : seglog.FrameHeaderSize+plen]
	binary.LittleEndian.PutUint64(p[0:8], lsn)
	binary.LittleEndian.PutUint32(p[8:12], uint32(len(batch)))
	off := 12
	for _, op := range batch {
		if op.Delete {
			p[off] = opDelete
		} else {
			p[off] = opPut
		}
		off++
		binary.LittleEndian.PutUint32(p[off:], uint32(len(op.Key)))
		off += 4
		off += copy(p[off:], op.Key)
		if !op.Delete {
			binary.LittleEndian.PutUint32(p[off:], uint32(len(op.Value)))
			off += 4
			off += copy(p[off:], op.Value)
		}
	}
	seglog.SealFrame(frame)
	return frame
}

// DecodeFrame parses one complete WAL frame (strict: no trailing bytes).
func DecodeFrame(frame []byte) (lsn uint64, ops []Op, err error) {
	p, n, err := seglog.DecodeFrame(frame)
	if err != nil {
		return 0, nil, err
	}
	if n != len(frame) {
		return 0, nil, fmt.Errorf("store: %d trailing bytes after frame", len(frame)-n)
	}
	return decodeBatchPayload(p)
}

// decodeBatchPayload parses a checksummed payload into its ops. It is
// strict: every byte must be consumed, so encode→decode→encode is
// byte-identical. Decoded keys and values are copies; they do not alias p.
func decodeBatchPayload(p []byte) (lsn uint64, ops []Op, err error) {
	if len(p) < minPayloadSize {
		return 0, nil, fmt.Errorf("store: %d-byte wal payload below the %d-byte minimum", len(p), minPayloadSize)
	}
	lsn = binary.LittleEndian.Uint64(p[0:8])
	nops := binary.LittleEndian.Uint32(p[8:12])
	// Each op needs at least kind+klen (5 bytes); reject counts the
	// payload cannot hold before allocating.
	if int64(nops)*5 > int64(len(p)-minPayloadSize) {
		return 0, nil, fmt.Errorf("store: wal op count %d exceeds payload", nops)
	}
	ops = make([]Op, 0, nops)
	off := 12
	for i := uint32(0); i < nops; i++ {
		if off+5 > len(p) {
			return 0, nil, errOpOverrun
		}
		kind := p[off]
		if kind != opPut && kind != opDelete {
			return 0, nil, fmt.Errorf("store: wal op kind %d unknown", kind)
		}
		klen := int(binary.LittleEndian.Uint32(p[off+1:]))
		off += 5
		if klen < 0 || off+klen > len(p) {
			return 0, nil, errOpOverrun
		}
		op := Op{Key: string(p[off : off+klen]), Delete: kind == opDelete}
		off += klen
		if kind == opPut {
			if off+4 > len(p) {
				return 0, nil, errOpOverrun
			}
			vlen := int(binary.LittleEndian.Uint32(p[off:]))
			off += 4
			if vlen < 0 || off+vlen > len(p) {
				return 0, nil, errOpOverrun
			}
			op.Value = append([]byte(nil), p[off:off+vlen]...)
			off += vlen
		}
		ops = append(ops, op)
	}
	if off != len(p) {
		return 0, nil, fmt.Errorf("store: %d trailing bytes in wal payload", len(p)-off)
	}
	return lsn, ops, nil
}

// scanBatches decodes the batch frames at the head of data with the
// shared seglog scanner, calling fn with each. valid is the offset just
// past the last good frame; a frame whose payload does not decode stops
// the scan there, with err saying why.
func scanBatches(data []byte, fn func(b walBatch, off, frameLen int)) (valid int, err error) {
	return seglog.Scan(data, func(p []byte, off, frameLen int) error {
		lsn, ops, err := decodeBatchPayload(p)
		if err == nil {
			fn(walBatch{lsn: lsn, ops: ops}, off, frameLen)
		}
		return err
	})
}

// requireIntact turns a scan of a file that must never be torn (a
// snapshot, or a segment read under its shard lock) into an error when
// the scan stopped short of the end.
func requireIntact(what string, data []byte, valid int, err error) error {
	if err == nil && valid < len(data) {
		_, _, err = seglog.DecodeFrame(data[valid:]) // the frame-level reason
	}
	if err != nil {
		return fmt.Errorf("store: %s corrupt at offset %d: %w", what, valid, err)
	}
	return nil
}

// parseSnapshot decodes a snapshot file, which uses the same framing but
// strictly: any damage is an error, because a snapshot is written with
// fsync+rename and must never be torn.
func parseSnapshot(data []byte) ([]walBatch, error) {
	var batches []walBatch
	valid, err := scanBatches(data, func(b walBatch, _, _ int) { batches = append(batches, b) })
	if err := requireIntact("snapshot", data, valid, err); err != nil {
		return nil, err
	}
	return batches, nil
}

// chunkOps splits ops into consecutive runs whose encoded payload stays
// within budget bytes, so a snapshot streams as modest frames rather than
// one giant allocation. An op too big to share a frame gets one alone;
// that frame is no larger than the single-op batch Apply accepted.
func chunkOps(ops []Op, budget int) [][]Op {
	var chunks [][]Op
	start, plen := 0, minPayloadSize
	for i, op := range ops {
		if n := opLen(op); i > start && plen+n > budget {
			chunks = append(chunks, ops[start:i])
			start, plen = i, minPayloadSize+n
		} else {
			plen += n
		}
	}
	if start < len(ops) {
		chunks = append(chunks, ops[start:])
	}
	return chunks
}
