package nodesvc

import (
	"crypto/rand"
	"errors"
	"math/big"
	"net/http/httptest"
	"strings"
	"testing"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
	"tokenmagic/internal/node"
	"tokenmagic/internal/obs"
	"tokenmagic/internal/ringsig"
	"tokenmagic/internal/selector"
	itm "tokenmagic/internal/tokenmagic"
)

// testSetup builds a chain with keys, a node, an HTTP server and a client.
func testSetup(t *testing.T) (*Client, *chain.Ledger, map[chain.TokenID]*ringsig.PrivateKey) {
	t.Helper()
	l, keys := keyedChain(t)
	n, err := node.New(l, node.Config{Framework: itm.Config{
		Lambda: 1000, Eta: 0.1, Headroom: true, Algorithm: itm.Progressive,
	}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(n).Handler())
	t.Cleanup(ts.Close)
	return NewClient(ts.URL, ts.Client()), l, keys
}

// keyedChain builds a one-block chain of ten 2-output txs and a key per
// token.
func keyedChain(t *testing.T) (*chain.Ledger, map[chain.TokenID]*ringsig.PrivateKey) {
	t.Helper()
	l := chain.NewLedger()
	b := l.BeginBlock()
	keys := make(map[chain.TokenID]*ringsig.PrivateKey)
	for i := 0; i < 10; i++ {
		txid, err := l.AddTx(b, 2)
		if err != nil {
			t.Fatal(err)
		}
		tx, err := l.Tx(txid)
		if err != nil {
			t.Fatal(err)
		}
		for _, tok := range tx.Outputs {
			k, err := ringsig.GenerateKey(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			keys[tok] = k
		}
	}
	return l, keys
}

// prepareSpend builds a signed SubmitRequest for a target token.
func prepareSpend(t *testing.T, l *chain.Ledger, keys map[chain.TokenID]*ringsig.PrivateKey, target chain.TokenID) SubmitRequest {
	t.Helper()
	req := diversity.Requirement{C: 1, L: 3}
	universe := l.TokensInBlocks(0, chain.BlockID(l.NumBlocks()-1))
	supers, fresh := selector.Decompose(l.RingsOver(universe), universe)
	p, err := selector.NewTable(universe, supers, fresh, l.OriginFunc()).Problem(target, req.WithHeadroom())
	if err != nil {
		t.Fatal(err)
	}
	res, err := selector.Progressive(p)
	if err != nil {
		t.Fatal(err)
	}
	pubs := make([]ringsig.Point, len(res.Tokens))
	signer := -1
	for i, tok := range res.Tokens {
		pubs[i] = keys[tok].Public
		if tok == target {
			signer = i
		}
	}
	sig, err := ringsig.Sign(rand.Reader, keys[target], pubs, signer, node.Message(res.Tokens))
	if err != nil {
		t.Fatal(err)
	}
	return SubmitRequest{
		Tokens:    res.Tokens,
		C:         req.C,
		L:         req.L,
		Keys:      pubs,
		Signature: sig,
		Fee:       uint64(res.Size()),
	}
}

func TestSubmitMineStatusOverHTTP(t *testing.T) {
	client, l, keys := testSetup(t)

	st, err := client.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Pending != 0 || st.ChainRings != 0 {
		t.Fatalf("fresh status = %+v", st)
	}

	sub := prepareSpend(t, l, keys, 0)
	ack, err := client.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	st, err = client.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Pending != 1 {
		t.Fatalf("status after submit = %+v", st)
	}

	mined, err := client.Mine(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(mined) != 1 || mined[0].SubmissionID != ack.SubmissionID {
		t.Fatalf("mined = %+v", mined)
	}
	st, err = client.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Pending != 0 || st.ChainRings != 1 {
		t.Fatalf("status after mine = %+v", st)
	}
}

func TestSubmitRejectionsOverHTTP(t *testing.T) {
	client, l, keys := testSetup(t)
	sub := prepareSpend(t, l, keys, 2)

	// Unsigned: node rejects.
	bad := sub
	bad.Signature = nil
	if _, err := client.Submit(bad); err == nil || !strings.Contains(err.Error(), "422") {
		t.Fatalf("unsigned err = %v", err)
	}
	// Signature over different tokens: rejected.
	bad = sub
	bad.Tokens = sub.Tokens.Add(19)
	if _, err := client.Submit(bad); err == nil {
		t.Fatal("tampered tokens must be rejected")
	}
	// The original still goes through (JSON round trip intact).
	if _, err := client.Submit(sub); err != nil {
		t.Fatalf("valid submission rejected: %v", err)
	}
	// Double spend over HTTP.
	again := prepareSpend(t, l, keys, 2)
	if _, err := client.Submit(again); err == nil {
		t.Fatal("double spend must be rejected")
	}
}

func TestMineDefaultsAndMethodChecks(t *testing.T) {
	client, l, keys := testSetup(t)
	if _, err := client.Submit(prepareSpend(t, l, keys, 4)); err != nil {
		t.Fatal(err)
	}
	// MaxRings ≤ 0 defaults server-side.
	mined, err := client.Mine(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(mined) != 1 {
		t.Fatalf("mined = %+v", mined)
	}
	// GET on POST-only endpoints.
	resp, err := client.http.Get(client.base + "/v1/submit")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("GET /v1/submit status = %d", resp.StatusCode)
	}
}

func TestVerifyOverHTTP(t *testing.T) {
	client, l, keys := testSetup(t)

	good := prepareSpend(t, l, keys, 0)
	tampered := prepareSpend(t, l, keys, 1)
	tampered.Signature.S[0] = new(big.Int).Add(tampered.Signature.S[0], big.NewInt(1))
	unsigned := prepareSpend(t, l, keys, 2)
	unsigned.Signature = nil

	res, err := client.Verify(VerifyRequest{Entries: []VerifyEntry{
		{Tokens: good.Tokens, Keys: good.Keys, Signature: good.Signature},
		{Tokens: tampered.Tokens, Keys: tampered.Keys, Signature: tampered.Signature},
		{Tokens: unsigned.Tokens, Keys: unsigned.Keys},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("batch with bad entries reported ok")
	}
	if res.Errors[0] != "" {
		t.Fatalf("valid entry failed: %s", res.Errors[0])
	}
	if res.Errors[1] == "" || res.Errors[2] == "" {
		t.Fatalf("bad entries passed: %+v", res.Errors)
	}
	if res.FirstFailure != 1 {
		t.Fatalf("first_failure = %d, want 1", res.FirstFailure)
	}

	// A second round trip of the valid entry is settled by the node's
	// transcript cache — the wire-level view of batch amortisation.
	res, err = client.Verify(VerifyRequest{Entries: []VerifyEntry{
		{Tokens: good.Tokens, Keys: good.Keys, Signature: good.Signature},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.CacheHits != 1 {
		t.Fatalf("cached verify: ok=%v hits=%d", res.OK, res.CacheHits)
	}
}

// failingJournal refuses every append, as a full disk would.
type failingJournal struct{}

func (failingJournal) Append(chain.Op) error { return errors.New("test: disk full") }
func (failingJournal) Committed(*chain.View) {}

// TestSpendJournalFaultIsServerError: a spend whose commit cannot be
// journaled is the node's fault. /v1/spend answers 500 (not 422, a client
// error, nor 503, admission shed), the node counts node.spend.fault.io
// instead of a reject, and nothing lands.
func TestSpendJournalFaultIsServerError(t *testing.T) {
	l := chain.NewLedger()
	b := l.BeginBlock()
	for i := 0; i < 10; i++ {
		if _, err := l.AddTx(b, 2); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	n, err := node.New(l, node.Config{
		Framework:     itm.Config{Lambda: 1000, Headroom: true, Algorithm: itm.Progressive, Metrics: reg},
		AllowUnsigned: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	l.SetJournal(failingJournal{})
	ts := httptest.NewServer(NewServer(n).Handler())
	t.Cleanup(ts.Close)

	_, err = NewClient(ts.URL, ts.Client()).Spend(SpendRequest{Target: 0, C: 1, L: 3})
	if err == nil || !strings.Contains(err.Error(), "500") || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("spend over a failing journal: %v, want a 500 naming the fault", err)
	}
	if got := reg.Counter("node.spend.fault.io").Value(); got != 1 {
		t.Fatalf("node.spend.fault.io = %d, want 1", got)
	}
	if got := reg.Counter("node.spend.reject.other").Value(); got != 0 {
		t.Fatalf("node.spend.reject.other = %d, want 0", got)
	}
	if n.ChainRings() != 0 {
		t.Fatalf("%d rings landed through a failing journal", n.ChainRings())
	}
}

// TestMineJournalFaultKeepsTheSpend: a block whose commit cannot be
// journaled is the node's fault, not the entry's. /v1/mine answers 500,
// the submission stays pending, nothing is counted as dropped and the
// fault is counted in node.mine.fault.io.
func TestMineJournalFaultKeepsTheSpend(t *testing.T) {
	l, keys := keyedChain(t)
	reg := obs.NewRegistry()
	n, err := node.New(l, node.Config{Framework: itm.Config{
		Lambda: 1000, Eta: 0.1, Headroom: true, Algorithm: itm.Progressive, Metrics: reg,
	}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(n).Handler())
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL, ts.Client())

	if _, err := client.Submit(prepareSpend(t, l, keys, 0)); err != nil {
		t.Fatal(err)
	}
	l.SetJournal(failingJournal{})
	mined, err := client.Mine(10)
	if err == nil || !strings.Contains(err.Error(), "500") || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("mine over a failing journal: mined %+v, err %v; want a 500 naming the fault", mined, err)
	}
	st, err := client.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Pending != 1 || st.ChainRings != 0 {
		t.Fatalf("status after the failed mine = %+v, want the spend still pending and no ring", st)
	}
	for name, want := range map[string]int64{
		"node.mine.dropped":  0,
		"node.mine.rings":    0,
		"node.mine.fault.io": 1,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Fatalf("%s = %d, want %d", name, got, want)
		}
	}
	if got := reg.Gauge("node.mempool.pending").Value(); got != 1 {
		t.Fatalf("node.mempool.pending = %d, want 1", got)
	}
}
