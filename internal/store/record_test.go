package store

import (
	"bytes"
	"errors"
	"testing"

	"tokenmagic/internal/chain"
)

// TestReadRecordLimit: the declared-length cap is a parameter, not a global —
// segment readers bound records at maxRecordBytes while snapshot readers
// bound them at file size, and anything over the caller's limit is ErrCorrupt.
func TestReadRecordLimit(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB}, 100)
	buf := appendRecord(nil, payload)
	got, n, err := readRecord(buf, len(payload))
	if err != nil || n != len(buf) || !bytes.Equal(got, payload) {
		t.Fatalf("record within limit rejected: payload %d bytes, n=%d, err=%v", len(got), n, err)
	}
	if _, _, err := readRecord(buf, len(payload)-1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("record over limit: got %v, want ErrCorrupt", err)
	}
}

// TestAppendRefusesOversizedOp: an op whose encoding exceeds maxRecordBytes
// must be refused before it hits the segment file — the reader would reject
// it as ErrCorrupt on replay, so writing it would journal an op that can
// never be recovered.
func TestAppendRefusesOversizedOp(t *testing.T) {
	dir := t.TempDir()
	st := openT(t, dir, testOpts(Options{}))
	defer func() {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	toks := make([]chain.TokenID, 2_600_000)
	for i := range toks {
		toks[i] = chain.TokenID(i)
	}
	op := chain.Op{Seq: 0, Kind: chain.OpRS, Tokens: chain.NewTokenSet(toks...), C: 1, L: 1}
	if err := st.Log.Append(op); err == nil {
		t.Fatal("oversized op must be refused, not journaled unreadably")
	}
	// The refusal must leave the log clean: seq 0 is still free and a
	// normal op lands on it.
	if _, err := st.Ledger.BeginBlockErr(); err != nil {
		t.Fatal(err)
	}
	if st.Ledger.Epoch() != 1 {
		t.Fatalf("epoch %d after refused append + one block, want 1", st.Ledger.Epoch())
	}
}
