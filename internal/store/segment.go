package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"tokenmagic/internal/chain"
)

// Segment files live directly in the data dir, next to the snapshots and
// LOCK, and are named by a monotonically increasing id: 00000001.seg,
// 00000002.seg, … Compaction deletes a prefix of ids once a snapshot covers
// them, so the first surviving id is usually > 1. Each file starts with an
// 8-byte magic and then holds framed records, each one JSON-encoded
// chain.Op. Op sequence numbers increase by one record to record and file to
// file, except across a gap the recovery snapshot covers (see Open).
const segMagic = "TMSEG\x01\x00\x00"

const segSuffix = ".seg"

func segName(id int) string { return fmt.Sprintf("%08d%s", id, segSuffix) }

// sealedSeg is a segment no longer written, remembered for compaction: the
// segment is deletable once a snapshot covers maxSeq.
type sealedSeg struct {
	id     int
	maxSeq uint64
}

// resume positions the log for appending after recovery: the newest segment
// (already cut back to a clean record boundary) becomes the active one and
// every older one is sealed. With no segment on disk it creates the first.
func (s *Log) resume(ids []int, recs []segRecord) error {
	if len(ids) == 0 {
		return s.rotate(1)
	}
	last := ids[len(ids)-1]
	maxSeq := make(map[int]uint64, len(ids))
	s.activeSize = int64(len(segMagic))
	for _, r := range recs {
		maxSeq[r.segID] = r.op.Seq
		if r.segID == last {
			s.activeCount++
			s.activeSize = r.end
		}
	}
	for _, id := range ids[:len(ids)-1] {
		s.sealed = append(s.sealed, sealedSeg{id: id, maxSeq: maxSeq[id]})
	}
	f, err := os.OpenFile(filepath.Join(s.dir, segName(last)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: reopen segment: %w", err)
	}
	s.active, s.activeID, s.activeMax = f, last, maxSeq[last]
	return nil
}

// rotate seals the active segment (if any) and starts segment id next.
func (s *Log) rotate(next int) error {
	if s.active != nil {
		if s.activeCount > 0 {
			s.sealed = append(s.sealed, sealedSeg{id: s.activeID, maxSeq: s.activeMax})
		}
		if err := s.active.Close(); err != nil {
			return fmt.Errorf("store: close segment: %w", err)
		}
	}
	f, err := os.OpenFile(filepath.Join(s.dir, segName(next)), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: create segment: %w", err)
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		closeErr := f.Close()
		_ = closeErr
		return fmt.Errorf("store: write segment magic: %w", err)
	}
	s.active = f
	s.activeID = next
	s.activeSize = int64(len(segMagic))
	s.activeMax = 0
	s.activeCount = 0
	return nil
}

// writeRecord frames payload into the active segment, rotating first when
// the active segment is full. seq is the op's sequence number.
func (s *Log) writeRecord(payload []byte, seq uint64) (int, error) {
	if s.failed {
		return 0, errAppendFailed
	}
	if s.activeCount > 0 && s.activeSize >= s.opts.SegmentBytes {
		if err := s.rotate(s.activeID + 1); err != nil {
			return 0, err
		}
	}
	buf := appendRecord(nil, payload)
	if _, err := s.active.Write(buf); err != nil {
		// The write may have landed partially; a later successful append
		// would bury the torn bytes mid-segment, turning a recoverable
		// tail into ErrCorrupt. Seal the log and try to cut the file back
		// to the last good record boundary.
		s.seal()
		_ = s.active.Truncate(s.activeSize)
		return 0, fmt.Errorf("store: append record: %w", err)
	}
	if s.opts.Sync {
		if err := s.active.Sync(); err != nil {
			// After a failed fsync the kernel may drop the dirty pages, so
			// the record's durability is unknown; seal the log rather than
			// append after a possibly-lost record.
			s.seal()
			return 0, fmt.Errorf("store: sync segment: %w", err)
		}
	}
	s.activeSize += int64(len(buf))
	s.activeMax = seq
	s.activeCount++
	return len(buf), nil
}

// seal refuses every later append until a reopen repairs the log, and
// reports it in the store.sealed gauge.
func (s *Log) seal() {
	s.failed = true
	s.mSealed.Set(1)
}

// segRecord is one decoded record with its physical position, kept during
// recovery so the repair pass can truncate at exact byte offsets.
type segRecord struct {
	op    chain.Op
	segID int
	// end is the byte offset just past this record in its segment file.
	end int64
}

// listSegments returns the data dir's segment ids in ascending order.
func listSegments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: read data dir: %w", err)
	}
	var ids []int
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		id, err := strconv.Atoi(strings.TrimSuffix(name, segSuffix))
		if err != nil || id <= 0 {
			return nil, fmt.Errorf("%w: stray segment file %q", ErrCorrupt, name)
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids, nil
}

// readSegment decodes one segment file. tail is the number of undecodable
// bytes at the physical end (0 when the file parses completely); the caller
// decides whether that is a tolerated torn write (final segment of the
// log) or corruption. Damage that is provably not a torn tail — a bad
// checksum with more data after it, an impossible length, JSON that cannot
// be an op despite a valid checksum — is returned as ErrCorrupt.
func readSegment(path string, id int) (recs []segRecord, tail int64, err error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("store: read segment: %w", err)
	}
	if len(buf) < len(segMagic) {
		// Shorter than the magic: only plausible as a torn first write.
		if string(buf) == segMagic[:len(buf)] {
			return nil, int64(len(buf)), nil
		}
		return nil, 0, fmt.Errorf("%w: segment %s: bad magic", ErrCorrupt, path)
	}
	if string(buf[:len(segMagic)]) != segMagic {
		return nil, 0, fmt.Errorf("%w: segment %s: bad magic", ErrCorrupt, path)
	}
	off := len(segMagic)
	for off < len(buf) {
		payload, n, rerr := readRecord(buf[off:], maxRecordBytes)
		switch {
		case rerr == nil:
		case errors.Is(rerr, errTorn):
			return recs, int64(len(buf) - off), nil
		case errors.Is(rerr, errBadCRC):
			if off+n == len(buf) {
				// Checksum failure on the physically last record: a torn
				// write that flushed the header before the payload.
				return recs, int64(len(buf) - off), nil
			}
			return nil, 0, fmt.Errorf("%w: segment %s: checksum mismatch at offset %d", ErrCorrupt, path, off)
		default:
			return nil, 0, fmt.Errorf("segment %s: offset %d: %w", path, off, rerr)
		}
		var op chain.Op
		if uerr := json.Unmarshal(payload, &op); uerr != nil {
			return nil, 0, fmt.Errorf("%w: segment %s: offset %d: undecodable op: %v", ErrCorrupt, path, off, uerr)
		}
		if op.Kind != chain.OpBlock && op.Kind != chain.OpTx && op.Kind != chain.OpRS {
			return nil, 0, fmt.Errorf("%w: segment %s: offset %d: unknown op kind %q", ErrCorrupt, path, off, op.Kind)
		}
		off += n
		recs = append(recs, segRecord{op: op, segID: id, end: int64(off)})
	}
	return recs, 0, nil
}
