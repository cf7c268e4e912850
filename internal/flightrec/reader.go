package flightrec

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"openmfa/internal/seglog"
)

// ReadDir reads every committed bundle from a recorder directory (or a
// single .seg file) WITHOUT modifying anything: torn tails are skipped,
// not truncated, so it is safe to point at a live recorder's directory or
// at segments copied off a crashed host. Bundles are returned in
// persistence order. It is the offline reader behind
// `loganalyze -format flightrec`.
func ReadDir(path string) ([]Bundle, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("flightrec: %w", err)
	}
	if !fi.IsDir() {
		dir, name := filepath.Split(path)
		if dir == "" {
			dir = "."
		}
		seq, ok := seglog.SegSeq(segPrefix, name)
		if !ok {
			return nil, fmt.Errorf("flightrec: %s is not a %sNNNNNN%s segment", path, segPrefix, seglog.SegSuffix)
		}
		return readSegmentBundles(dir, seq)
	}
	seqs, err := seglog.ListSegments(path, segPrefix)
	if err != nil {
		return nil, fmt.Errorf("flightrec: %w", err)
	}
	var out []Bundle
	for _, seq := range seqs {
		bs, err := readSegmentBundles(path, seq)
		if err != nil {
			return nil, err
		}
		out = append(out, bs...)
	}
	return out, nil
}

func readSegmentBundles(dir string, seq uint64) ([]Bundle, error) {
	var out []Bundle
	_, err := seglog.ScanSegment(dir, segPrefix, seq, func(payload []byte, _ seglog.Ref) error {
		var b Bundle
		if err := json.Unmarshal(payload, &b); err != nil {
			return nil // foreign committed frame; skip
		}
		out = append(out, b)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("flightrec: read segment %d: %w", seq, err)
	}
	return out, nil
}
