package store

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/obs"
)

// opFunc is one scripted ledger mutation; the same script can drive several
// ledgers so tests compare persistent against in-memory behaviour.
type opFunc func(l *chain.Ledger) error

// randomOps builds a deterministic script of n mutations. Closures capture
// fixed values, so replaying the script is referentially transparent.
func randomOps(rng *rand.Rand, n int) []opFunc {
	var ops []opFunc
	tokens, blocks := 0, 0
	for len(ops) < n {
		switch r := rng.Intn(10); {
		case r < 3 || blocks == 0:
			ops = append(ops, func(l *chain.Ledger) error {
				_, err := l.BeginBlockErr()
				return err
			})
			blocks++
		case r < 8:
			b := chain.BlockID(rng.Intn(blocks))
			amounts := make([]uint64, 1+rng.Intn(3))
			for i := range amounts {
				amounts[i] = uint64(1 + rng.Intn(50))
			}
			ops = append(ops, func(l *chain.Ledger) error {
				_, err := l.AddTxAmounts(b, amounts)
				return err
			})
			tokens += len(amounts)
		default:
			if tokens == 0 {
				continue
			}
			k := 1 + rng.Intn(min(4, tokens))
			seen := make(map[int]bool, k)
			var toks []chain.TokenID
			for len(toks) < k {
				t := rng.Intn(tokens)
				if !seen[t] {
					seen[t] = true
					toks = append(toks, chain.TokenID(t))
				}
			}
			c, l := 0.5+rng.Float64(), 1+rng.Intn(3)
			set := chain.NewTokenSet(toks...)
			ops = append(ops, func(led *chain.Ledger) error {
				_, err := led.AppendRS(set, c, l)
				return err
			})
		}
	}
	return ops
}

func applyScript(t *testing.T, l *chain.Ledger, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for _, op := range randomOps(rng, n) {
		if err := op(l); err != nil {
			t.Fatal(err)
		}
	}
}

func testOpts(o Options) Options {
	o.Metrics = obs.NewRegistry()
	return o
}

func openT(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func digestLedger(t *testing.T, l *chain.Ledger) string {
	t.Helper()
	d, err := Digest(l.View())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// teeJournal forwards to the real log while keeping the historical op
// sequence — the oracle the crash tests replay prefixes of. (View.Ops()
// would not do: it returns the canonical rebuild order, not history order.)
type teeJournal struct {
	inner chain.Journal
	ops   *[]chain.Op
}

func (j teeJournal) Append(op chain.Op) error {
	if err := j.inner.Append(op); err != nil {
		return err
	}
	*j.ops = append(*j.ops, op)
	return nil
}

func (j teeJournal) Committed(v *chain.View) { j.inner.Committed(v) }

// buildStore opens dir, applies a deterministic op script, closes the store,
// and returns the journaled op sequence in history order.
func buildStore(t *testing.T, dir string, opts Options, n int) []chain.Op {
	t.Helper()
	st := openT(t, dir, opts)
	var ops []chain.Op
	st.Ledger.SetJournal(teeJournal{inner: st.Log, ops: &ops})
	applyScript(t, st.Ledger, n, 42)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return ops
}

// prefixDigest is the digest of the ledger rebuilt from ops[:k] — the oracle
// the crash tests compare recovered state against.
func prefixDigest(t *testing.T, ops []chain.Op, k int) string {
	t.Helper()
	l := chain.NewLedger()
	for _, op := range ops[:k] {
		if err := l.Apply(op); err != nil {
			t.Fatal(err)
		}
	}
	return digestLedger(t, l)
}

func TestOpenAppendReopen(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(Options{})
	ops := buildStore(t, dir, opts, 80)
	want := prefixDigest(t, ops, len(ops))

	st := openT(t, dir, testOpts(Options{}))
	defer func() {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if st.Info.Epoch != uint64(len(ops)) {
		t.Fatalf("recovered epoch %d, want %d", st.Info.Epoch, len(ops))
	}
	if st.Info.Replayed != len(ops) || st.Info.Duplicates != 0 || st.Info.TornBytes != 0 {
		t.Fatalf("unexpected recovery info: %+v", st.Info)
	}
	if got := digestLedger(t, st.Ledger); got != want {
		t.Fatalf("digest mismatch after reopen: %s != %s", got, want)
	}
	// The reopened store keeps journaling: append more, reopen again.
	applyScript(t, st.Ledger, 20, 7)
	want2 := digestLedger(t, st.Ledger)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openT(t, dir, testOpts(Options{}))
	defer func() {
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if got := digestLedger(t, st2.Ledger); got != want2 {
		t.Fatalf("second reopen digest mismatch")
	}
}

func TestSnapshotCompactionBoundsSegments(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	opts := Options{SegmentBytes: 512, SnapshotEvery: 25, Metrics: reg}
	st := openT(t, dir, opts)
	applyScript(t, st.Ledger, 150, 42)
	want := digestLedger(t, st.Ledger)
	epoch := st.Ledger.Epoch()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("store.snapshots").Value(); n == 0 {
		t.Fatal("no snapshots taken")
	}
	if g := reg.Gauge("store.segments").Value(); g > 8 {
		t.Fatalf("compaction did not bound segments: %d live", g)
	}
	// One log per data dir: the lock, the segments and the snapshots sit
	// side by side, with no subdirectory.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !(name == "LOCK" || strings.HasSuffix(name, segSuffix) ||
			strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, snapSuffix)) {
			t.Fatalf("unexpected entry %q in data dir", name)
		}
	}
	st2 := openT(t, dir, testOpts(opts))
	defer func() {
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if st2.Info.SnapshotSeq == 0 {
		t.Fatal("recovery ignored the snapshot")
	}
	if st2.Info.Replayed != int(epoch-st2.Info.SnapshotSeq) {
		t.Fatalf("replayed %d ops on top of snapshot at %d, epoch %d", st2.Info.Replayed, st2.Info.SnapshotSeq, epoch)
	}
	if got := digestLedger(t, st2.Ledger); got != want {
		t.Fatal("digest mismatch after snapshot recovery")
	}
}

func TestSeedJournalsFullHistory(t *testing.T) {
	src := chain.NewLedger()
	applyScript(t, src, 60, 11)
	want := digestLedger(t, src)

	dir := t.TempDir()
	st := openT(t, dir, testOpts(Options{}))
	if err := Seed(st.Ledger, src.View()); err != nil {
		t.Fatal(err)
	}
	if err := Seed(st.Ledger, src.View()); err == nil {
		t.Fatal("seeding a non-empty ledger must fail")
	}
	if got := digestLedger(t, st.Ledger); got != want {
		t.Fatal("seeded ledger differs from source")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openT(t, dir, testOpts(Options{}))
	defer func() {
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if got := digestLedger(t, st2.Ledger); got != want {
		t.Fatal("seeded history did not survive reopen")
	}
}

func TestExplicitSnapshotFromPinnedView(t *testing.T) {
	dir := t.TempDir()
	st := openT(t, dir, testOpts(Options{}))
	applyScript(t, st.Ledger, 40, 3)
	v := st.Ledger.View() // pin, then keep mutating
	applyScript(t, st.Ledger, 20, 4)
	if err := st.Log.Snapshot(v); err != nil {
		t.Fatal(err)
	}
	if got := st.Log.SnapshotSeq(); got != v.Epoch() {
		t.Fatalf("snapshot seq %d, want %d", got, v.Epoch())
	}
	// An older view must be skipped silently.
	if err := st.Log.Snapshot(v); err != nil {
		t.Fatal(err)
	}
	want := digestLedger(t, st.Ledger)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openT(t, dir, testOpts(Options{}))
	defer func() {
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if st2.Info.SnapshotSeq != v.Epoch() {
		t.Fatalf("recovered from snapshot %d, want %d", st2.Info.SnapshotSeq, v.Epoch())
	}
	if got := digestLedger(t, st2.Ledger); got != want {
		t.Fatal("digest mismatch")
	}
}

func TestOpenRefusesSecondLiveOpen(t *testing.T) {
	dir := t.TempDir()
	st := openT(t, dir, testOpts(Options{}))
	// A second open while the first is live must be refused: its open-time
	// repair would truncate segments the live writer is appending to.
	if _, err := Open(dir, testOpts(Options{})); !errors.Is(err, ErrLocked) {
		t.Fatalf("second live open: got %v, want ErrLocked", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Close released the lock; a fresh open succeeds.
	st2 := openT(t, dir, testOpts(Options{}))
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRejectsStrayFiles(t *testing.T) {
	dir := t.TempDir()
	buildStore(t, dir, testOpts(Options{}), 10)
	if err := os.WriteFile(filepath.Join(dir, "junk.seg"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, testOpts(Options{})); err == nil {
		t.Fatal("stray segment file must fail recovery")
	}
}
