package batchsvc

import (
	"net/http/httptest"
	"testing"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
	"tokenmagic/internal/obs"
	"tokenmagic/internal/selector"
	"tokenmagic/internal/tokenmagic"
)

func buildChain(t *testing.T) *chain.Ledger {
	t.Helper()
	l := chain.NewLedger()
	for b := 0; b < 3; b++ {
		id := l.BeginBlock()
		for tx := 0; tx < 4; tx++ {
			if _, err := l.AddTx(id, 2); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A couple of rings in batch 0 (tokens 0..7 with λ=8).
	if _, err := l.AppendRS(chain.NewTokenSet(0, 2, 4), 1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendRS(chain.NewTokenSet(1, 3), 1, 2); err != nil {
		t.Fatal(err)
	}
	return l
}

func startServer(t *testing.T, l *chain.Ledger, lambda int) *Client {
	t.Helper()
	fw, err := tokenmagic.New(l, tokenmagic.Config{Lambda: lambda, Metrics: obs.NewRegistry()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(fw).Handler())
	t.Cleanup(ts.Close)
	return NewClient(ts.URL, ts.Client())
}

func TestMetaEndpoint(t *testing.T) {
	l := buildChain(t)
	c := startServer(t, l, 8)
	m, err := c.Meta()
	if err != nil {
		t.Fatal(err)
	}
	if m.Lambda != 8 || m.Blocks != 3 || m.Tokens != 24 || m.Rings != 2 || m.Batches != 3 {
		t.Fatalf("meta = %+v", m)
	}
}

func TestBatchEndpoints(t *testing.T) {
	l := buildChain(t)
	c := startServer(t, l, 8)

	b0, err := c.Batch(0)
	if err != nil {
		t.Fatal(err)
	}
	if b0.Index != 0 || len(b0.Tokens) != 8 || len(b0.Origins) != 8 {
		t.Fatalf("batch 0 = %+v", b0)
	}
	// BatchOf must find the same batch for its tokens.
	byTok, err := c.BatchOf(5)
	if err != nil {
		t.Fatal(err)
	}
	if byTok.Index != 0 {
		t.Fatalf("BatchOf(5).Index = %d", byTok.Index)
	}
	b2, err := c.BatchOf(20)
	if err != nil {
		t.Fatal(err)
	}
	if b2.Index != 2 {
		t.Fatalf("BatchOf(20).Index = %d", b2.Index)
	}
	// Origin lookup matches the ledger's.
	origin := b0.Origin()
	want := l.OriginFunc()
	for _, tok := range b0.Tokens {
		if origin(tok) != want(tok) {
			t.Fatalf("origin(%v) = %v, ledger says %v", tok, origin(tok), want(tok))
		}
	}
	if origin(9999) != chain.NoTx {
		t.Fatal("foreign token must map to NoTx")
	}
}

func TestRingsEndpoint(t *testing.T) {
	l := buildChain(t)
	c := startServer(t, l, 8)
	rings, err := c.Rings(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rings) != 2 {
		t.Fatalf("rings = %+v", rings)
	}
	// Batch 1 has none.
	rings, err = c.Rings(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rings) != 0 {
		t.Fatalf("batch 1 rings = %+v", rings)
	}
}

func TestBadRequests(t *testing.T) {
	l := buildChain(t)
	c := startServer(t, l, 8)
	if _, err := c.Batch(99); err == nil {
		t.Fatal("out-of-range batch must fail")
	}
	if _, err := c.BatchOf(9999); err == nil {
		t.Fatal("unknown token must fail")
	}
	// Raw bad queries.
	var out any
	if err := c.get("/v1/batch", &out); err == nil {
		t.Fatal("missing query must fail")
	}
	if err := c.get("/v1/batch?index=zzz", &out); err == nil {
		t.Fatal("garbage index must fail")
	}
	if err := c.get("/v1/batch?token=zzz", &out); err == nil {
		t.Fatal("garbage token must fail")
	}
}

// The headline use: a light node fetches a batch + rings and runs mixin
// selection locally, with no chain state of its own.
func TestLightNodeSelectsMixins(t *testing.T) {
	l := buildChain(t)
	c := startServer(t, l, 8)

	b, err := c.BatchOf(6)
	if err != nil {
		t.Fatal(err)
	}
	ringInfos, err := c.Rings(b.Index)
	if err != nil {
		t.Fatal(err)
	}
	records := Records(ringInfos)
	supers, fresh := selector.Decompose(records, b.Tokens)
	p, err := selector.NewTable(b.Tokens, supers, fresh, b.Origin()).Problem(6, diversity.Requirement{C: 1, L: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := selector.Progressive(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Tokens.Contains(6) {
		t.Fatalf("light-node ring %v missing target", res.Tokens)
	}
	if !res.Tokens.SubsetOf(b.Tokens) {
		t.Fatalf("light-node ring %v escapes its batch", res.Tokens)
	}
}

// The served batch list follows the ledger: a block appended straight to
// the ledger shows up as one more batch with no refresh call, because every
// request reads the framework's epoch, which catches up first.
func TestBatchesFollowLedgerGrowth(t *testing.T) {
	l := buildChain(t)
	c := startServer(t, l, 8)
	m1, err := c.Meta()
	if err != nil {
		t.Fatal(err)
	}
	// Chain grows by one block of 8 tokens → one more batch.
	id := l.BeginBlock()
	for tx := 0; tx < 4; tx++ {
		if _, err := l.AddTx(id, 2); err != nil {
			t.Fatal(err)
		}
	}
	m2, err := c.Meta()
	if err != nil {
		t.Fatal(err)
	}
	if m2.Batches != m1.Batches+1 || m2.Tokens != m1.Tokens+8 {
		t.Fatalf("meta %+v → %+v, want one more batch of 8 tokens", m1, m2)
	}
	if _, err := c.BatchOf(chain.TokenID(m1.Tokens)); err != nil {
		t.Fatalf("new token not served: %v", err)
	}
}
