// Package store is the stdlib-only persistent storage layer: one append-only
// segment log of journaled chain ops per data directory, plus periodic
// snapshots of the full ledger state. It plugs into chain.Ledger through the
// Journal interface — the ledger journals every op write-ahead, the store
// makes it durable, and Open replays log + snapshot back into the exact
// committed state after a crash.
//
// Durability contract (what the fault-injection tests in recovery_test.go
// prove): after any crash, Open recovers the ledger to the longest
// committed prefix of ops. A torn write at the physical tail of the final
// segment is a crash artifact and is truncated away; corruption anywhere
// else, a sequence gap included, is an error, never silently skipped.
// Replay is idempotent — records the snapshot already covers are skipped by
// sequence number.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Record framing, following the length-then-payload convention of
// chain/encode.go but binary: u32 LE payload length, u32 LE CRC-32C of the
// payload, then the payload (one JSON-encoded chain.Op).
const (
	recordHeaderLen = 8
	// maxRecordBytes bounds a single op record so a corrupt length field
	// cannot drive a huge allocation. It applies to the segment log only:
	// Log.Append refuses to write an op over the limit, so the reader can
	// reject anything larger as corruption. Snapshot files hold the whole
	// ledger state as one record and are bounded by file size instead — a
	// large ledger must still snapshot and load back (see loadSnapshot).
	maxRecordBytes = 1 << 24
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Errors surfaced by the store. ErrCorrupt marks damage that recovery must
// not paper over (mid-log truncation, checksum failures away from the tail,
// non-monotonic sequences, sequence gaps); errTorn and errBadCRC are internal
// classifiers the segment reader turns into either a tolerated torn tail or
// ErrCorrupt depending on where the damage sits.
var (
	ErrCorrupt = errors.New("store: corrupt log")
	ErrClosed  = errors.New("store: log is closed")

	errTorn   = errors.New("store: record extends past end of data")
	errBadCRC = errors.New("store: record checksum mismatch")
	// errAppendFailed seals the log after a failed append: the active
	// segment may end in a partial record, and appending past it would bury
	// a torn tail mid-log — damage recovery refuses to repair. Reopening the
	// store truncates the file back to the last good boundary and clears the
	// condition.
	errAppendFailed = errors.New("store: log disabled by earlier failed append")
)

// appendRecord frames payload onto dst and returns the extended slice.
func appendRecord(dst, payload []byte) []byte {
	var hdr [recordHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// readRecord decodes the record at the start of buf, returning the payload
// and the total bytes the record occupies. limit bounds the declared payload
// length: segment readers pass maxRecordBytes (the same cap Log.Append
// enforces on writes), snapshot readers pass the file size, since a
// snapshot's state record is one arbitrarily large blob. Errors classify the
// damage:
//
//   - errTorn: buf ends before the record does (short header or short
//     payload). n is 0.
//   - errBadCRC: the record is fully present but its checksum fails. n is
//     the record's full extent so the caller can tell whether it sits at the
//     physical end of the data (torn write) or mid-log (corruption).
//   - ErrCorrupt: the length field is impossible; nothing here can be a
//     record.
func readRecord(buf []byte, limit int) (payload []byte, n int, err error) {
	if len(buf) < recordHeaderLen {
		return nil, 0, errTorn
	}
	size := binary.LittleEndian.Uint32(buf[0:4])
	if int64(size) > int64(limit) {
		return nil, 0, fmt.Errorf("%w: record length %d exceeds %d-byte limit", ErrCorrupt, size, limit)
	}
	end := recordHeaderLen + int(size)
	if len(buf) < end {
		return nil, 0, errTorn
	}
	payload = buf[recordHeaderLen:end]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(buf[4:8]) {
		return nil, end, errBadCRC
	}
	return payload, end, nil
}
