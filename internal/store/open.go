package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"tokenmagic/internal/chain"
)

// RecoveryInfo reports what Open found and did. The fault-injection tests
// assert on these counters; the recover subcommand prints them.
type RecoveryInfo struct {
	// Epoch the ledger recovered to: the longest contiguous committed
	// prefix of ops.
	Epoch uint64 `json:"epoch"`
	// SnapshotSeq is the epoch of the snapshot recovery started from
	// (0 = replayed from genesis).
	SnapshotSeq uint64 `json:"snapshot_seq"`
	// Replayed ops applied from segment logs on top of the snapshot.
	Replayed int `json:"replayed"`
	// Duplicates skipped: records whose seq the snapshot already covered.
	Duplicates int `json:"duplicates"`
	// TornBytes truncated from segment tails that did not decode.
	TornBytes int64 `json:"torn_bytes"`
	// SnapshotsSkipped counts corrupt or unreadable snapshot files that
	// recovery passed over for an older one.
	SnapshotsSkipped int `json:"snapshots_skipped"`
}

// Store couples a recovered ledger with the journal that keeps it durable.
type Store struct {
	Ledger *chain.Ledger
	Log    *Log
	Info   RecoveryInfo
}

// Close closes the underlying log.
func (s *Store) Close() error { return s.Log.Close() }

// Open recovers the persistent ledger under dir (creating it when absent)
// and wires the returned ledger to keep journaling there. Recovery loads the
// newest intact snapshot, replays the segment log in id order on top of it,
// truncates a torn tail off the final segment, and fails loudly (ErrCorrupt)
// on any other damage, changing no file when it does.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create data dir: %w", err)
	}
	// Refuse the old sharded layout before taking the lock, so not one byte
	// of such a dir changes: its records sit in shard-NN subdirectories this
	// reader never looks at, and repairing what it does see would lose them.
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: read data dir: %w", err)
	}
	for _, e := range entries {
		var idx int
		if _, serr := fmt.Sscanf(e.Name(), "shard-%02d", &idx); serr == nil {
			return nil, fmt.Errorf("store: %s holds %s: this data dir was written by the old sharded layout, which this version does not read", dir, e.Name())
		}
	}
	lock, err := acquireLock(dir)
	if err != nil {
		return nil, err
	}
	opened := false
	defer func() {
		if !opened {
			// Every error path below must drop the lock; closing the fd
			// releases the flock.
			_ = lock.Close()
		}
	}()

	var info RecoveryInfo
	led, snapSeq, skipped, err := loadNewestSnapshot(dir)
	if err != nil {
		return nil, err
	}
	info.SnapshotSeq = snapSeq
	info.SnapshotsSkipped = skipped

	// Read every segment. Only the final one may end in a torn write; its
	// repair waits until replay has succeeded.
	ids, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	var recs []segRecord
	tornPath, tornSize := "", int64(0)
	for k, id := range ids {
		path := filepath.Join(dir, segName(id))
		segRecs, tail, rerr := readSegment(path, id)
		if rerr != nil {
			return nil, rerr
		}
		if tail > 0 {
			if k != len(ids)-1 {
				return nil, fmt.Errorf("%w: segment %d truncated mid-log", ErrCorrupt, id)
			}
			fi, serr := os.Stat(path)
			if serr != nil {
				return nil, fmt.Errorf("store: stat segment: %w", serr)
			}
			info.TornBytes = tail
			tornPath, tornSize = path, fi.Size()-tail
		}
		recs = append(recs, segRecs...)
	}

	// Replay in log order. Records the snapshot covers are duplicates; every
	// other record must carry exactly the next sequence number. A gap the
	// snapshot covers is harmless (a durable snapshot can outlive the
	// unsynced log tail it covers), but a gap at or past the recovery epoch
	// means ops are missing from the log and from every snapshot that loads:
	// a crash cannot cause that, so recovery refuses rather than roll back.
	for k, r := range recs {
		switch {
		case k > 0 && r.op.Seq <= recs[k-1].op.Seq:
			return nil, fmt.Errorf("%w: seq %d not above %d", ErrCorrupt, r.op.Seq, recs[k-1].op.Seq)
		case r.op.Seq < led.Epoch():
			info.Duplicates++
		case r.op.Seq == led.Epoch():
			if aerr := led.Apply(r.op); aerr != nil {
				return nil, fmt.Errorf("%w: replay seq %d: %v", ErrCorrupt, r.op.Seq, aerr)
			}
			info.Replayed++
		default:
			return nil, fmt.Errorf("%w: log jumps to seq %d at epoch %d; ops [%d,%d) are missing from the log and from every snapshot that loads",
				ErrCorrupt, r.op.Seq, led.Epoch(), led.Epoch(), r.op.Seq)
		}
	}
	info.Epoch = led.Epoch()

	if tornPath != "" {
		if tornSize < int64(len(segMagic)) {
			// The torn write was the segment's very first bytes; nothing
			// in it survives.
			if err := os.Remove(tornPath); err != nil {
				return nil, fmt.Errorf("store: drop torn segment: %w", err)
			}
			ids = ids[:len(ids)-1]
		} else if err := os.Truncate(tornPath, tornSize); err != nil {
			return nil, fmt.Errorf("store: truncate torn tail: %w", err)
		}
	}

	log := &Log{dir: dir, opts: opts, nextSeq: led.Epoch()}
	log.snapSeq.Store(snapSeq)
	log.initMetrics()
	if err := log.resume(ids, recs); err != nil {
		return nil, err
	}
	log.mSegments.Set(int64(len(log.sealed) + 1))
	log.mEpoch.Set(int64(led.Epoch()))
	r := opts.Metrics
	r.Counter("store.recover.replayed").Add(int64(info.Replayed))
	r.Counter("store.recover.duplicates").Add(int64(info.Duplicates))
	r.Counter("store.recover.torn_bytes").Add(info.TornBytes)

	led.SetJournal(log)
	log.lock = lock
	opened = true
	return &Store{Ledger: led, Log: log, Info: info}, nil
}

// loadNewestSnapshot tries snapshots newest-first and returns the first one
// that validates end to end, or a fresh ledger when none does.
func loadNewestSnapshot(dir string) (*chain.Ledger, uint64, int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("store: read data dir: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		var seq uint64
		if _, serr := fmt.Sscanf(e.Name(), "snap-%016d.snap", &seq); serr == nil {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(a, b int) bool { return seqs[a] > seqs[b] })
	skipped := 0
	for _, seq := range seqs {
		led, lerr := loadSnapshot(filepath.Join(dir, snapName(seq)), seq)
		if lerr != nil {
			skipped++
			continue
		}
		return led, seq, skipped, nil
	}
	return chain.NewLedger(), 0, skipped, nil
}

// loadSnapshot validates one snapshot file completely: magic, record
// framing, meta consistency, state digest, and that the rebuilt ledger lands
// on the advertised epoch.
func loadSnapshot(path string, wantSeq uint64) (*chain.Ledger, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: read snapshot: %w", err)
	}
	if len(buf) < len(snapMagic) || string(buf[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("%w: snapshot %s: bad magic", ErrCorrupt, path)
	}
	// Snapshot records are bounded by the file itself, not maxRecordBytes: a
	// ledger whose serialized state exceeds the per-op cap must still load
	// back (Log.Snapshot writes it as one record).
	off := len(snapMagic)
	metaPayload, n, err := readRecord(buf[off:], len(buf))
	if err != nil {
		return nil, fmt.Errorf("%w: snapshot %s: meta record: %v", ErrCorrupt, path, err)
	}
	var meta snapMeta
	if err := json.Unmarshal(metaPayload, &meta); err != nil {
		return nil, fmt.Errorf("%w: snapshot %s: meta: %v", ErrCorrupt, path, err)
	}
	if meta.Version != snapVersion || meta.Seq != wantSeq {
		return nil, fmt.Errorf("%w: snapshot %s: meta mismatch (version %d, seq %d)", ErrCorrupt, path, meta.Version, meta.Seq)
	}
	off += n
	state, n2, err := readRecord(buf[off:], len(buf))
	if err != nil {
		return nil, fmt.Errorf("%w: snapshot %s: state record: %v", ErrCorrupt, path, err)
	}
	if off+n2 != len(buf) {
		return nil, fmt.Errorf("%w: snapshot %s: trailing garbage", ErrCorrupt, path)
	}
	sum := sha256.Sum256(state)
	if hex.EncodeToString(sum[:]) != meta.Digest {
		return nil, fmt.Errorf("%w: snapshot %s: state digest mismatch", ErrCorrupt, path)
	}
	led, err := chain.ReadLedger(bytes.NewReader(state))
	if err != nil {
		return nil, fmt.Errorf("%w: snapshot %s: %v", ErrCorrupt, path, err)
	}
	if led.Epoch() != meta.Seq {
		return nil, fmt.Errorf("%w: snapshot %s: rebuilt epoch %d, meta says %d", ErrCorrupt, path, led.Epoch(), meta.Seq)
	}
	return led, nil
}

// Seed replays another view's full history into an empty persistent ledger,
// journaling every op — how the sim and tests move a pre-built in-memory
// dataset into a store.
func Seed(led *chain.Ledger, v *chain.View) error {
	if led.Epoch() != 0 {
		return fmt.Errorf("store: seed target not empty (epoch %d)", led.Epoch())
	}
	for _, op := range v.Ops() {
		if err := led.Apply(op); err != nil {
			return fmt.Errorf("store: seed: %w", err)
		}
	}
	return nil
}
