package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/obs"
)

// Options configure a persistent log.
type Options struct {
	// Shards and Lambda configured the old sharded layout, which spread ops
	// over shard-NN directories; a data dir now holds one segment log. They
	// remain only so callers that still set them keep compiling.
	//
	// Deprecated: ignored.
	Shards int
	// Deprecated: ignored.
	Lambda int
	// SegmentBytes rotates the active segment once it reaches this size.
	// Default 4 MiB.
	SegmentBytes int64
	// SnapshotEvery takes a snapshot each time the epoch reaches a multiple
	// of this value. Zero disables automatic snapshots (Snapshot can still
	// be called explicitly).
	SnapshotEvery uint64
	// NoCompact keeps segments that a snapshot already covers. Compaction is
	// on by default; the fault-injection tests disable it to exercise full
	// replay.
	NoCompact bool
	// Sync fsyncs after every append. Off by default: the tests exercise
	// logical crash windows (torn/truncated files), and the sim tolerates
	// losing the OS write-back tail.
	Sync bool
	// Metrics receives store telemetry; nil uses obs.Default().
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.Metrics == nil {
		o.Metrics = obs.Default()
	}
	return o
}

// Log is the persistent journal: it implements chain.Journal, appending each
// op to the active segment before the ledger applies it, and writes periodic
// snapshots keyed by epoch. One Log owns one data directory.
type Log struct {
	dir  string
	opts Options

	mu      sync.Mutex // guards nextSeq, closed and the segment state below
	nextSeq uint64
	closed  bool
	lock    *os.File // dir/LOCK flock; released on Close (or process exit)

	// The segment state: the active segment plus the sealed ones.
	active      *os.File
	activeID    int
	activeSize  int64
	activeMax   uint64
	activeCount int
	sealed      []sealedSeg
	// failed is set when an append did not complete (ENOSPC, I/O error):
	// the active segment may end in partial bytes, so the log refuses
	// further appends until a reopen repairs the file. store.sealed
	// reports it.
	failed bool

	snapMu  sync.Mutex    // serialises snapshot writes (committer vs snapshotter)
	snapSeq atomic.Uint64 // epoch of the newest durable snapshot

	mAppends   *obs.Counter
	mBytes     *obs.Counter
	mSegments  *obs.Gauge
	mEpoch     *obs.Gauge
	mSealed    *obs.Gauge
	mSnaps     *obs.Counter
	mSnapErrs  *obs.Counter
	mSnapLat   *obs.Histogram
	mSnapBytes *obs.Counter
}

func (s *Log) initMetrics() {
	r := s.opts.Metrics
	s.mAppends = r.Counter("store.appends")
	s.mBytes = r.Counter("store.append_bytes")
	s.mSegments = r.Gauge("store.segments")
	s.mEpoch = r.Gauge("store.epoch")
	s.mSealed = r.Gauge("store.sealed")
	s.mSealed.Set(0)
	s.mSnaps = r.Counter("store.snapshots")
	s.mSnapErrs = r.Counter("store.snapshot.errors")
	s.mSnapLat = r.Histogram("store.snapshot.latency_us", obs.LatencyBucketsUS)
	s.mSnapBytes = r.Counter("store.snapshot.bytes")
}

// Append implements chain.Journal: it makes the op durable before the ledger
// applies it. The ledger calls this under its mutation lock, write-ahead.
func (s *Log) Append(op chain.Op) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if op.Seq != s.nextSeq {
		return fmt.Errorf("store: append seq %d, log expects %d", op.Seq, s.nextSeq)
	}
	payload, err := json.Marshal(op)
	if err != nil {
		return fmt.Errorf("store: encode op: %w", err)
	}
	if len(payload) > maxRecordBytes {
		// The segment reader rejects records over maxRecordBytes as
		// ErrCorrupt; writing one would journal an op that can never be
		// replayed. Refuse it here, before the ledger applies it.
		return fmt.Errorf("store: op seq %d encodes to %d bytes, over the %d-byte record limit", op.Seq, len(payload), maxRecordBytes)
	}
	n, err := s.writeRecord(payload, op.Seq)
	if err != nil {
		return err
	}
	s.nextSeq++
	s.mAppends.Inc()
	s.mBytes.Add(int64(n))
	s.mSegments.Set(int64(len(s.sealed) + 1))
	return nil
}

// Committed implements chain.Journal: epoch telemetry plus automatic
// snapshots on the configured cadence. It runs under the ledger's mutation
// lock, so an automatic snapshot briefly blocks writers (readers keep their
// pinned views); deployments that care run a snapshotter goroutine calling
// Snapshot instead.
func (s *Log) Committed(v *chain.View) {
	s.mEpoch.Set(int64(v.Epoch()))
	if s.opts.SnapshotEvery > 0 && v.Epoch()%s.opts.SnapshotEvery == 0 {
		if err := s.Snapshot(v); err != nil {
			s.mSnapErrs.Inc()
		}
	}
}

// Epoch of the newest durable snapshot (0 when none has been taken).
func (s *Log) SnapshotSeq() uint64 { return s.snapSeq.Load() }

// snapMeta is the first record of a snapshot file.
type snapMeta struct {
	Version int    `json:"version"`
	Seq     uint64 `json:"seq"`
	Digest  string `json:"digest"` // sha256 of the state record's payload
}

const (
	snapMagic   = "TMSNAP\x01\x00"
	snapVersion = 1
	snapSuffix  = ".snap"
)

func snapName(seq uint64) string { return fmt.Sprintf("snap-%016d%s", seq, snapSuffix) }

// Snapshot persists the view's full state as snap-<epoch>, fsyncs it,
// renames it into place and fsyncs the directory, then compacts segments the
// snapshot covers. The directory fsync orders the rename before the
// compaction unlinks: without it a crash could durably delete the segments
// while the snapshot rename is still volatile, losing both. It is safe to
// call from a goroutine concurrent with appends: the view is immutable, and
// snapshot writes serialise among themselves. Snapshots at or behind the
// newest durable one are skipped.
func (s *Log) Snapshot(v *chain.View) error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if v.Epoch() <= s.snapSeq.Load() && v.Epoch() != 0 {
		return nil
	}
	start := time.Now()
	var state bytes.Buffer
	if _, err := v.WriteTo(&state); err != nil {
		return fmt.Errorf("store: serialise snapshot: %w", err)
	}
	if int64(state.Len()) > math.MaxUint32 {
		// The record header's length field is a u32; framing anything
		// larger would silently truncate the length and write an
		// unreadable snapshot.
		return fmt.Errorf("store: snapshot state %d bytes overflows the u32 record length", state.Len())
	}
	sum := sha256.Sum256(state.Bytes())
	meta, err := json.Marshal(snapMeta{Version: snapVersion, Seq: v.Epoch(), Digest: hex.EncodeToString(sum[:])})
	if err != nil {
		return fmt.Errorf("store: encode snapshot meta: %w", err)
	}
	buf := append([]byte(snapMagic), appendRecord(nil, meta)...)
	buf = appendRecord(buf, state.Bytes())

	final := filepath.Join(s.dir, snapName(v.Epoch()))
	tmp := final + ".tmp"
	if err := writeFileSync(tmp, buf); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("store: publish snapshot: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	s.snapSeq.Store(v.Epoch())
	s.mSnaps.Inc()
	s.mSnapBytes.Add(int64(len(buf)))
	s.mSnapLat.ObserveSince(start)
	if !s.opts.NoCompact {
		return s.Compact(v.Epoch())
	}
	return nil
}

// Compact deletes sealed segments whose every record is covered by a durable
// snapshot at snapSeq, plus snapshot files older than it.
func (s *Log) Compact(snapSeq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	// A snapshot at epoch S contains ops with seq < S.
	keep := s.sealed[:0]
	for _, sg := range s.sealed {
		if sg.maxSeq < snapSeq {
			if err := os.Remove(filepath.Join(s.dir, segName(sg.id))); err != nil {
				return fmt.Errorf("store: compact: %w", err)
			}
			continue
		}
		keep = append(keep, sg)
	}
	s.sealed = keep
	s.mSegments.Set(int64(len(s.sealed) + 1))
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: compact snapshots: %w", err)
	}
	for _, e := range entries {
		var seq uint64
		if _, serr := fmt.Sscanf(e.Name(), "snap-%016d.snap", &seq); serr != nil {
			continue
		}
		if seq < snapSeq {
			if rerr := os.Remove(filepath.Join(s.dir, e.Name())); rerr != nil {
				return fmt.Errorf("store: compact snapshots: %w", rerr)
			}
		}
	}
	return nil
}

// Close closes the active segment and releases the lock. The Log must not be
// used as a journal afterwards.
func (s *Log) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	if s.active != nil {
		if err := s.active.Close(); err != nil {
			first = fmt.Errorf("store: close segment: %w", err)
		}
	}
	if s.lock != nil {
		if err := s.lock.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: write %s: %w", path, err)
	}
	if _, err := f.Write(data); err != nil {
		cerr := f.Close()
		_ = cerr
		return fmt.Errorf("store: write %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		cerr := f.Close()
		_ = cerr
		return fmt.Errorf("store: sync %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: close %s: %w", path, err)
	}
	return nil
}

// syncDir fsyncs a directory, making a preceding rename durable before the
// caller deletes the files the renamed one supersedes.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: sync dir %s: %w", dir, err)
	}
	if err := d.Sync(); err != nil {
		_ = d.Close()
		return fmt.Errorf("store: sync dir %s: %w", dir, err)
	}
	if err := d.Close(); err != nil {
		return fmt.Errorf("store: sync dir %s: %w", dir, err)
	}
	return nil
}

// Digest returns the hex sha256 of the view's canonical serialisation — the
// equality check the recovery tests and the restart smoke use.
func Digest(v *chain.View) (string, error) {
	h := sha256.New()
	if _, err := v.WriteTo(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
