package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"tokenmagic/internal/chain"
)

// validSegmentBytes builds a well-formed segment file image for the fuzz
// corpus.
func validSegmentBytes(tb testing.TB) []byte {
	buf := []byte(segMagic)
	ops := []chain.Op{
		{Seq: 0, Kind: chain.OpBlock},
		{Seq: 1, Kind: chain.OpTx, Block: 0, Amounts: []uint64{1, 7, 3}},
		{Seq: 2, Kind: chain.OpRS, Tokens: chain.NewTokenSet(0, 2), C: 0.5, L: 2},
		{Seq: 3, Kind: chain.OpTx, Block: 0, Amounts: []uint64{9}},
	}
	for _, op := range ops {
		payload, err := json.Marshal(op)
		if err != nil {
			tb.Fatal(err)
		}
		buf = appendRecord(buf, payload)
	}
	return buf
}

// FuzzSegmentRoundTrip feeds arbitrary bytes to the segment reader. The
// contract under any mutation: never panic, decode only checksum-valid ops
// with known kinds (a valid prefix), classify everything else as either a
// torn tail or ErrCorrupt, and behave identically on a second read.
func FuzzSegmentRoundTrip(f *testing.F) {
	valid := validSegmentBytes(f)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(segMagic))
	f.Add(valid[:len(valid)-3]) // torn tail
	flipped := bytes.Clone(valid)
	flipped[len(segMagic)+recordHeaderLen] ^= 0xFF
	f.Add(flipped) // checksum break mid-log
	huge := bytes.Clone(valid)
	huge[len(segMagic)] = 0xFF
	huge[len(segMagic)+3] = 0xFF
	f.Add(huge) // absurd length field

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), segName(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, tail, err := readSegment(path, 1)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error outside the ErrCorrupt class: %v", err)
			}
			return
		}
		// Accepted records must be a structurally valid prefix: contiguous
		// from the magic, checksum-verified, known op kinds.
		off := int64(len(segMagic))
		for i, r := range recs {
			if r.op.Kind != chain.OpBlock && r.op.Kind != chain.OpTx && r.op.Kind != chain.OpRS {
				t.Fatalf("record %d: accepted unknown kind %q", i, r.op.Kind)
			}
			payload, n, rerr := readRecord(data[off:], maxRecordBytes)
			if rerr != nil {
				t.Fatalf("record %d: accepted but unreadable at offset %d: %v", i, off, rerr)
			}
			var op chain.Op
			if uerr := json.Unmarshal(payload, &op); uerr != nil {
				t.Fatalf("record %d: accepted undecodable payload", i)
			}
			if op.Seq != r.op.Seq || op.Kind != r.op.Kind {
				t.Fatalf("record %d: decode not stable", i)
			}
			off += int64(n)
			if off != r.end {
				t.Fatalf("record %d: offset drift %d != %d", i, off, r.end)
			}
		}
		if tail != int64(len(data))-off && !(len(data) < len(segMagic) && tail == int64(len(data))) {
			t.Fatalf("tail %d does not cover the undecoded suffix (%d bytes)", tail, int64(len(data))-off)
		}
		// Reading the same bytes twice must classify them identically.
		recs2, tail2, err2 := readSegment(path, 1)
		if err2 != nil || len(recs2) != len(recs) || tail2 != tail {
			t.Fatalf("second read diverged: err=%v recs %d→%d tail %d→%d", err2, len(recs), len(recs2), tail, tail2)
		}
	})
}

// FuzzSnapshotLoad: a mutated snapshot must never be accepted unless it
// validates end to end; in particular the state digest pins the content.
func FuzzSnapshotLoad(f *testing.F) {
	dir := f.TempDir()
	st, err := Open(dir, testOpts(Options{}))
	if err != nil {
		f.Fatal(err)
	}
	b := st.Ledger.BeginBlock()
	if _, err := st.Ledger.AddTx(b, 4); err != nil {
		f.Fatal(err)
	}
	if _, err := st.Ledger.AppendRS(chain.NewTokenSet(1, 3), 0.9, 2); err != nil {
		f.Fatal(err)
	}
	v := st.Ledger.View()
	if err := st.Log.Snapshot(v); err != nil {
		f.Fatal(err)
	}
	if err := st.Close(); err != nil {
		f.Fatal(err)
	}
	snapBytes, err := os.ReadFile(filepath.Join(dir, snapName(v.Epoch())))
	if err != nil {
		f.Fatal(err)
	}
	wantDigest, err := Digest(v)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snapBytes)
	f.Add(snapBytes[:len(snapBytes)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), snapName(v.Epoch()))
		if werr := os.WriteFile(path, data, 0o644); werr != nil {
			t.Fatal(werr)
		}
		led, lerr := loadSnapshot(path, v.Epoch())
		if lerr != nil {
			return // rejected cleanly
		}
		got, derr := Digest(led.View())
		if derr != nil {
			t.Fatal(derr)
		}
		if got != wantDigest {
			t.Fatalf("accepted snapshot with divergent state (digest %s)", got)
		}
	})
}
