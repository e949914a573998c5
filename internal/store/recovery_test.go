package store

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// copyTree clones a data directory so each fault scenario mutates a private
// copy of the same committed state.
func copyTree(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, werr error) error {
		if werr != nil {
			return werr
		}
		rel, rerr := filepath.Rel(src, path)
		if rerr != nil {
			return rerr
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, rdErr := os.ReadFile(path)
		if rdErr != nil {
			return rdErr
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// finalSegment returns the newest segment of the log with its decoded
// records.
func finalSegment(t *testing.T, dir string) (path string, id int, recs []segRecord) {
	t.Helper()
	ids, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) == 0 {
		t.Fatal("log has no segments")
	}
	id = ids[len(ids)-1]
	path = filepath.Join(dir, segName(id))
	recs, tail, err := readSegment(path, id)
	if err != nil || tail != 0 {
		t.Fatalf("read %s: err=%v tail=%d", path, err, tail)
	}
	return path, id, recs
}

// TestTornFinalRecord sweeps every possible crash point inside the final
// record — each truncation length and a checksum-breaking bit flip — and
// asserts recovery lands byte-identically on the previous committed epoch.
func TestTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	ops := buildStore(t, dir, testOpts(Options{}), 30)
	e := len(ops)
	want := prefixDigest(t, ops, e-1)
	path, _, recs := finalSegment(t, dir)
	last := recs[len(recs)-1]
	start := int64(len(segMagic))
	if len(recs) > 1 {
		start = recs[len(recs)-2].end
	}
	rel, err := filepath.Rel(dir, path)
	if err != nil {
		t.Fatal(err)
	}

	check := func(work string, wantTorn bool) {
		t.Helper()
		st := openT(t, work, testOpts(Options{}))
		defer func() {
			if cerr := st.Close(); cerr != nil {
				t.Fatal(cerr)
			}
		}()
		if st.Info.Epoch != uint64(e-1) {
			t.Fatalf("recovered epoch %d, want %d (info %+v)", st.Info.Epoch, e-1, st.Info)
		}
		if wantTorn && st.Info.TornBytes == 0 {
			t.Fatalf("expected torn bytes, info %+v", st.Info)
		}
		if got := digestLedger(t, st.Ledger); got != want {
			t.Fatal("recovered state differs from pre-crash committed prefix")
		}
	}

	for cut := start + 1; cut < last.end; cut++ {
		work := copyTree(t, dir)
		if err := os.Truncate(filepath.Join(work, rel), cut); err != nil {
			t.Fatal(err)
		}
		check(work, true)
	}
	// A torn write that flushed the full extent but garbled the payload:
	// checksum fails on the physically last record — still a crash artifact.
	work := copyTree(t, dir)
	wpath := filepath.Join(work, rel)
	data, err := os.ReadFile(wpath)
	if err != nil {
		t.Fatal(err)
	}
	data[last.end-1] ^= 0xFF
	if err := os.WriteFile(wpath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	check(work, true)
	// Clean cut exactly at the previous record boundary: no torn bytes, the
	// final op simply never hit the disk.
	work = copyTree(t, dir)
	if err := os.Truncate(filepath.Join(work, rel), start); err != nil {
		t.Fatal(err)
	}
	check(work, false)
}

// TestTruncatedFinalSegment cuts the log mid-segment, losing several
// records, and asserts recovery to the exact surviving prefix.
func TestTruncatedFinalSegment(t *testing.T) {
	dir := t.TempDir()
	ops := buildStore(t, dir, testOpts(Options{}), 30)
	path, _, recs := finalSegment(t, dir)
	rel, err := filepath.Rel(dir, path)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 7, 15, 22} {
		// Cut 3 bytes into the record after the k-th: k ops survive intact.
		work := copyTree(t, dir)
		if err := os.Truncate(filepath.Join(work, rel), recs[k-1].end+3); err != nil {
			t.Fatal(err)
		}
		st := openT(t, work, testOpts(Options{}))
		if st.Info.Epoch != uint64(k) || st.Info.TornBytes == 0 {
			t.Fatalf("cut after %d ops: info %+v", k, st.Info)
		}
		if got := digestLedger(t, st.Ledger); got != prefixDigest(t, ops, k) {
			t.Fatalf("cut after %d ops: recovered state diverges", k)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMidLogCorruptionFailsLoudly: damage that is not a trailing crash
// artifact — a flipped byte or truncation in a non-final segment — must
// refuse recovery with ErrCorrupt, never silently skip records.
func TestMidLogCorruptionFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	buildStore(t, dir, testOpts(Options{SegmentBytes: 512}), 60)
	ids, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) < 2 {
		t.Fatalf("need multiple segments, got %d", len(ids))
	}
	work := copyTree(t, dir)
	wpath := filepath.Join(work, segName(ids[0]))
	data, err := os.ReadFile(wpath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(segMagic)+recordHeaderLen] ^= 0x01 // first payload byte of record 0
	if err := os.WriteFile(wpath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, oerr := Open(work, testOpts(Options{SegmentBytes: 512})); !errors.Is(oerr, ErrCorrupt) {
		t.Fatalf("flipped mid-log byte: got %v, want ErrCorrupt", oerr)
	}

	work = copyTree(t, dir)
	wpath = filepath.Join(work, segName(ids[0]))
	fi, err := os.Stat(wpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wpath, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	if _, oerr := Open(work, testOpts(Options{SegmentBytes: 512})); !errors.Is(oerr, ErrCorrupt) {
		t.Fatalf("truncated mid-log segment: got %v, want ErrCorrupt", oerr)
	}
}

// treeBytes reads every file under dir, keyed by relative path (directories
// map to nil), so a test can assert that a refused open changed nothing.
func treeBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, werr error) error {
		if werr != nil {
			return werr
		}
		rel, rerr := filepath.Rel(dir, path)
		if rerr != nil || d.IsDir() {
			out[rel] = nil
			return rerr
		}
		data, rdErr := os.ReadFile(path)
		out[rel] = data
		return rdErr
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSequenceGapIsCorrupt: with one log, write-ahead appends leave no
// sequence gap behind a crash, so a missing record or segment inside the
// replayed range is damage, and so is a repeated record. Recovery must refuse it with ErrCorrupt and leave
// the files as they were, rather than roll the ledger back to the gap.
func TestSequenceGapIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentBytes: 512}
	buildStore(t, dir, testOpts(opts), 60)
	ids, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) < 3 {
		t.Fatalf("need at least three segments, got %d", len(ids))
	}
	refused := func(work, what string) {
		t.Helper()
		before := treeBytes(t, work)
		if _, oerr := Open(work, testOpts(opts)); !errors.Is(oerr, ErrCorrupt) {
			t.Fatalf("%s: got %v, want ErrCorrupt", what, oerr)
		}
		after := treeBytes(t, work)
		for name, data := range before {
			if got, ok := after[name]; !ok || string(got) != string(data) {
				t.Fatalf("%s: refused open changed %s", what, name)
			}
		}
	}

	// A whole middle segment gone.
	work := copyTree(t, dir)
	if err := os.Remove(filepath.Join(work, segName(ids[1]))); err != nil {
		t.Fatal(err)
	}
	refused(work, "missing middle segment")

	// One record cut out of the middle of the first segment, the framing
	// around it intact.
	work = copyTree(t, dir)
	path := filepath.Join(work, segName(ids[0]))
	recs, tail, err := readSegment(path, ids[0])
	if err != nil || tail != 0 || len(recs) < 3 {
		t.Fatalf("first segment: %d records, tail %d, err %v", len(recs), tail, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	spliced := append(append([]byte{}, data[:recs[0].end]...), data[recs[1].end:]...)
	if err := os.WriteFile(path, spliced, 0o644); err != nil {
		t.Fatal(err)
	}
	refused(work, "record missing mid-segment")

	// The same record twice: the sequence stops increasing.
	work = copyTree(t, dir)
	path = filepath.Join(work, segName(ids[0]))
	repeated := append(append([]byte{}, data[:recs[1].end]...), data[recs[0].end:]...)
	if err := os.WriteFile(path, repeated, 0o644); err != nil {
		t.Fatal(err)
	}
	refused(work, "record repeated")
}

// TestSnapshotOutlivesUnsyncedTail: with Sync off, an OS crash can keep a
// durable snapshot while losing log records it already contains. Recovery
// lands on the snapshot, and the ops written after it leave a gap in the log
// that the snapshot covers; that gap must not fail later opens.
func TestSnapshotOutlivesUnsyncedTail(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SnapshotEvery: 20, NoCompact: true}
	ops := buildStore(t, dir, testOpts(opts), 50)
	path, _, recs := finalSegment(t, dir)
	if err := os.Truncate(path, recs[30].end); err != nil { // keep seqs 0..30
		t.Fatal(err)
	}

	st := openT(t, dir, testOpts(opts))
	if st.Info.SnapshotSeq != 40 || st.Info.Epoch != 40 || st.Info.Duplicates != 31 {
		t.Fatalf("recovery over a log behind its snapshot: info %+v", st.Info)
	}
	if got := digestLedger(t, st.Ledger); got != prefixDigest(t, ops, 40) {
		t.Fatal("recovered state differs from the snapshot")
	}
	applyScript(t, st.Ledger, 15, 5)
	want := digestLedger(t, st.Ledger)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openT(t, dir, testOpts(opts))
	defer func() {
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if got := digestLedger(t, st2.Ledger); got != want {
		t.Fatalf("writes after the gap did not survive reopen: info %+v", st2.Info)
	}
}

// TestOpenRefusesShardedLayout: a data dir written by the old sharded layout
// (segments under shard-NN/) is refused with an error that says so, and not
// one of its bytes changes — no repair, no lock file, no new segment.
func TestOpenRefusesShardedLayout(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SnapshotEvery: 10, NoCompact: true}
	buildStore(t, dir, testOpts(opts), 30)
	if err := os.Remove(filepath.Join(dir, "LOCK")); err != nil {
		t.Fatal(err)
	}
	ids, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, shard := range []string{"shard-00", "shard-01"} {
		if err := os.Mkdir(filepath.Join(dir, shard), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			data, rerr := os.ReadFile(filepath.Join(dir, segName(id)))
			if rerr != nil {
				t.Fatal(rerr)
			}
			if werr := os.WriteFile(filepath.Join(dir, shard, segName(id)), data, 0o644); werr != nil {
				t.Fatal(werr)
			}
		}
	}
	removeMatching(t, dir, segSuffix)

	before := treeBytes(t, dir)
	_, err = Open(dir, testOpts(opts))
	if err == nil || !strings.Contains(err.Error(), "old sharded layout") {
		t.Fatalf("open of a sharded dir: got %v, want an old-sharded-layout refusal", err)
	}
	after := treeBytes(t, dir)
	if len(after) != len(before) {
		t.Fatalf("refused open changed the entry count: %d → %d", len(before), len(after))
	}
	for name, data := range before {
		if got, ok := after[name]; !ok || string(got) != string(data) {
			t.Fatalf("refused open changed %s", name)
		}
	}
}

// TestMissingSnapshotFallsBackToFullReplay deletes every snapshot; with the
// segments intact (compaction off) recovery must replay from genesis to the
// same state.
func TestMissingSnapshotFallsBackToFullReplay(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SnapshotEvery: 10, NoCompact: true}
	ops := buildStore(t, dir, testOpts(opts), 50)
	removeMatching(t, dir, snapSuffix)

	st := openT(t, dir, testOpts(opts))
	defer func() {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if st.Info.SnapshotSeq != 0 || st.Info.Replayed != len(ops) {
		t.Fatalf("expected full replay, info %+v", st.Info)
	}
	if got := digestLedger(t, st.Ledger); got != prefixDigest(t, ops, len(ops)) {
		t.Fatal("full replay diverges from committed state")
	}
}

// TestCorruptSnapshotFallsBackToOlder flips a byte in the newest snapshot;
// recovery must detect the damage via the digest chain and recover from the
// previous snapshot plus replay.
func TestCorruptSnapshotFallsBackToOlder(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SnapshotEvery: 10, NoCompact: true}
	ops := buildStore(t, dir, testOpts(opts), 50)

	newest := ""
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), snapSuffix) && e.Name() > newest {
			newest = e.Name()
		}
	}
	if newest == "" {
		t.Fatal("no snapshots on disk")
	}
	data, err := os.ReadFile(filepath.Join(dir, newest))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(filepath.Join(dir, newest), data, 0o644); err != nil {
		t.Fatal(err)
	}

	st := openT(t, dir, testOpts(opts))
	defer func() {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if st.Info.SnapshotsSkipped != 1 {
		t.Fatalf("skipped %d snapshots, want 1 (info %+v)", st.Info.SnapshotsSkipped, st.Info)
	}
	if st.Info.SnapshotSeq == 0 || st.Info.SnapshotSeq >= 50 {
		t.Fatalf("expected an older snapshot, info %+v", st.Info)
	}
	if got := digestLedger(t, st.Ledger); got != prefixDigest(t, ops, len(ops)) {
		t.Fatal("fallback recovery diverges from committed state")
	}
}

// TestSnapshotLossAfterCompactionFailsLoudly is the total-data-loss
// scenario: compaction has deleted the segments a snapshot covers, and then
// that snapshot turns out corrupt (or missing) at recovery. The surviving
// log no longer reaches back to any loadable recovery point; treating it as
// a droppable tail would silently hand back an empty ledger AND destroy the
// remaining evidence. Recovery must refuse with ErrCorrupt instead.
func TestSnapshotLossAfterCompactionFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentBytes: 256, SnapshotEvery: 10} // compaction on
	buildStore(t, dir, testOpts(opts), 50)

	// Sanity: compaction must actually have eaten the early log, so the
	// oldest surviving record sits well past genesis.
	ids, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	first, tail, err := readSegment(filepath.Join(dir, segName(ids[0])), ids[0])
	if err != nil || tail != 0 {
		t.Fatalf("read first segment: err=%v tail=%d", err, tail)
	}
	if len(first) == 0 || first[0].op.Seq == 0 {
		t.Fatalf("compaction kept the full log (%d segs); scenario not armed", len(ids))
	}

	newest := ""
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), snapSuffix) && e.Name() > newest {
			newest = e.Name()
		}
	}
	if newest == "" {
		t.Fatal("no snapshot on disk")
	}

	// One corrupt byte in the only snapshot covering the compacted range.
	work := copyTree(t, dir)
	data, err := os.ReadFile(filepath.Join(work, newest))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(filepath.Join(work, newest), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, oerr := Open(work, testOpts(opts)); !errors.Is(oerr, ErrCorrupt) {
		t.Fatalf("corrupt snapshot over compacted log: got %v, want ErrCorrupt", oerr)
	}
	// The refused open must not have truncated anything: repairing the
	// snapshot byte back makes the store fully recoverable again.
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(filepath.Join(work, newest), data, 0o644); err != nil {
		t.Fatal(err)
	}
	st := openT(t, work, testOpts(opts))
	if st.Info.Epoch != 50 {
		t.Fatalf("store damaged by refused open: %+v", st.Info)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Same with the snapshot deleted outright.
	work = copyTree(t, dir)
	removeMatching(t, work, snapSuffix)
	if _, oerr := Open(work, testOpts(opts)); !errors.Is(oerr, ErrCorrupt) {
		t.Fatalf("missing snapshot over compacted log: got %v, want ErrCorrupt", oerr)
	}
}

// TestOversizedSnapshotRoundTrip: a ledger whose serialized state exceeds
// the per-op record cap must still snapshot and recover — the snapshot
// state record is bounded by file size, not maxRecordBytes. Before that
// exemption, every snapshot of a big ledger was unreadable on reopen, which
// combined with compaction into guaranteed data loss.
func TestOversizedSnapshotRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a >16MiB ledger state")
	}
	dir := t.TempDir()
	opts := Options{SegmentBytes: 1 << 20}
	st := openT(t, dir, testOpts(opts))
	b := st.Ledger.BeginBlock()
	amounts := make([]uint64, 4096)
	for i := range amounts {
		amounts[i] = uint64(i + 1)
	}
	stateSize := func() int64 {
		var cw countingWriter
		if _, err := st.Ledger.View().WriteTo(&cw); err != nil {
			t.Fatal(err)
		}
		return int64(cw)
	}
	for stateSize() <= maxRecordBytes {
		for i := 0; i < 32; i++ {
			if _, err := st.Ledger.AddTxAmounts(b, amounts); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := digestLedger(t, st.Ledger)
	epoch := st.Ledger.Epoch()
	if err := st.Log.Snapshot(st.Ledger.View()); err != nil {
		t.Fatalf("snapshot of oversized state: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openT(t, dir, testOpts(opts))
	defer func() {
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if st2.Info.SnapshotSeq != epoch {
		t.Fatalf("recovery did not load the oversized snapshot: %+v", st2.Info)
	}
	if got := digestLedger(t, st2.Ledger); got != want {
		t.Fatal("oversized snapshot round trip diverged")
	}
}

type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// TestFailedAppendPoisonsLog: after an append fails partway, the log
// must refuse further appends — writing past the partial bytes would bury a
// torn tail mid-segment, which recovery treats as ErrCorrupt rather than a
// repairable crash artifact. The store.sealed gauge reports the sealed log
// and reads 0 again once a reopen has repaired it.
func TestFailedAppendPoisonsLog(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(Options{})
	sealed := opts.Metrics.Gauge("store.sealed")
	st := openT(t, dir, opts)
	applyScript(t, st.Ledger, 10, 42)
	want := digestLedger(t, st.Ledger)

	// Force the next write to fail by closing the active segment file
	// behind the log's back.
	if err := st.Log.active.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Ledger.AddTxAmounts(0, []uint64{1}); err == nil {
		t.Fatal("append over a closed file must fail")
	}
	if _, err := st.Ledger.AddTxAmounts(0, []uint64{2}); !errors.Is(err, errAppendFailed) {
		t.Fatalf("append after failed append: got %v, want errAppendFailed", err)
	}
	if got := sealed.Value(); got != 1 {
		t.Fatalf("store.sealed = %d after a failed append, want 1", got)
	}
	_ = st.Log.Close() // active fd already closed; only the flock matters

	// Reopen repairs whatever the failed write left and resumes cleanly.
	st2 := openT(t, dir, opts)
	if got := sealed.Value(); got != 0 {
		t.Fatalf("store.sealed = %d after a reopen, want 0", got)
	}
	defer func() {
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if st2.Info.Epoch != 10 {
		t.Fatalf("recovered epoch %d, want 10 (info %+v)", st2.Info.Epoch, st2.Info)
	}
	if got := digestLedger(t, st2.Ledger); got != want {
		t.Fatal("recovered state diverges from pre-failure commits")
	}
	applyScript(t, st2.Ledger, 5, 7)
}

func removeMatching(t *testing.T, dir, suffix string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), suffix) {
			if rerr := os.Remove(filepath.Join(dir, e.Name())); rerr != nil {
				t.Fatal(rerr)
			}
		}
	}
}
