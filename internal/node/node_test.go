package node

import (
	"context"
	"crypto/rand"
	"errors"
	"math/big"
	mrand "math/rand"
	"testing"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
	"tokenmagic/internal/ringsig"
	"tokenmagic/internal/selector"
	itm "tokenmagic/internal/tokenmagic"
)

// testChain builds a ledger of nTx 2-output transactions plus a keypair per
// token.
func testChain(t *testing.T, nTx int) (*chain.Ledger, map[chain.TokenID]*ringsig.PrivateKey) {
	t.Helper()
	l := chain.NewLedger()
	b := l.BeginBlock()
	keys := make(map[chain.TokenID]*ringsig.PrivateKey)
	for i := 0; i < nTx; i++ {
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

// makeSubmission selects mixins with TM_P, signs and packages the spend.
func makeSubmission(t *testing.T, l *chain.Ledger, keys map[chain.TokenID]*ringsig.PrivateKey, target chain.TokenID, req diversity.Requirement) Submission {
	t.Helper()
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
	sig, err := ringsig.Sign(rand.Reader, keys[target], pubs, signer, Message(res.Tokens))
	if err != nil {
		t.Fatal(err)
	}
	return Submission{
		Tokens:    res.Tokens,
		Req:       req,
		Keys:      pubs,
		Signature: sig,
		Fee:       uint64(res.Size()),
	}
}

func defaultNode(t *testing.T, l *chain.Ledger) *Node {
	t.Helper()
	n, err := New(l, Config{Framework: itm.Config{
		Lambda: 1000, Eta: 0.1, Headroom: true, Algorithm: itm.Progressive,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestSubmitAndMine(t *testing.T) {
	l, keys := testChain(t, 10)
	n := defaultNode(t, l)
	req := diversity.Requirement{C: 1, L: 3}

	sub := makeSubmission(t, l, keys, 0, req)
	rcpt, err := n.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	if n.PendingCount() != 1 {
		t.Fatalf("pending = %d", n.PendingCount())
	}
	mined, err := n.Mine(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(mined) != 1 || mined[0].SubmissionID != rcpt.SubmissionID {
		t.Fatalf("mined = %+v", mined)
	}
	if n.ChainRings() != 1 || n.PendingCount() != 0 {
		t.Fatalf("chain=%d pending=%d", n.ChainRings(), n.PendingCount())
	}
}

func TestSubmitRejectsBadSignature(t *testing.T) {
	l, keys := testChain(t, 10)
	n := defaultNode(t, l)
	req := diversity.Requirement{C: 1, L: 3}
	sub := makeSubmission(t, l, keys, 0, req)

	// Tamper with the message binding by changing a fee? Fee is not signed;
	// change the tokens instead.
	bad := sub
	bad.Tokens = sub.Tokens.Add(99)
	if _, err := n.Submit(bad); err == nil {
		t.Fatal("token-set tamper must fail")
	}

	bad = sub
	bad.Signature = nil
	if _, err := n.Submit(bad); !errors.Is(err, ErrUnsignedDenied) {
		t.Fatalf("nil signature err = %v", err)
	}

	bad = sub
	bad.Keys = sub.Keys[:len(sub.Keys)-1]
	if _, err := n.Submit(bad); !errors.Is(err, ErrKeysMismatch) {
		t.Fatalf("key count err = %v", err)
	}
}

func TestSubmitRejectsDoubleSpend(t *testing.T) {
	l, keys := testChain(t, 10)
	n := defaultNode(t, l)
	req := diversity.Requirement{C: 1, L: 3}

	sub1 := makeSubmission(t, l, keys, 0, req)
	if _, err := n.Submit(sub1); err != nil {
		t.Fatal(err)
	}
	// Same token signed again (fresh nonces, same key image): rejected
	// while the first is still pending…
	sub2 := makeSubmission(t, l, keys, 0, req)
	if _, err := n.Submit(sub2); !errors.Is(err, ErrKeyImageUsed) {
		t.Fatalf("pending double spend err = %v", err)
	}
	// …and after mining.
	if _, err := n.Mine(10); err != nil {
		t.Fatal(err)
	}
	sub3 := makeSubmission(t, l, keys, 0, req)
	if _, err := n.Submit(sub3); !errors.Is(err, ErrKeyImageUsed) {
		t.Fatalf("mined double spend err = %v", err)
	}
}

func TestSubmitRejectsConfigViolation(t *testing.T) {
	l, keys := testChain(t, 10)
	n := defaultNode(t, l)
	req := diversity.Requirement{C: 1, L: 3}

	sub := makeSubmission(t, l, keys, 0, req)
	if _, err := n.Submit(sub); err != nil {
		t.Fatal(err)
	}
	// A second spend whose ring partially overlaps the pending one violates
	// the configuration among pending rings. Build it by hand: two tokens
	// of the pending ring plus enough outside tokens from distinct HTs
	// that the diversity check passes and only the overlap check can fail.
	overlap := chain.NewTokenSet(sub.Tokens[0], sub.Tokens[1])
	for tok := chain.TokenID(0); tok < 20 && len(overlap) < 6; tok += 2 {
		if !sub.Tokens.Contains(tok) && !sub.Tokens.Contains(tok+1) {
			overlap = overlap.Add(tok)
		}
	}
	if sub.Tokens.SubsetOf(overlap) || overlap.SubsetOf(sub.Tokens) || len(overlap) < 5 {
		t.Skip("construction degenerated")
	}
	signTok := overlap.Minus(sub.Tokens)[0]
	manual := Submission{Tokens: overlap, Req: req, Fee: 3}
	// Sign it properly so only the config check fails.
	pubs := make([]ringsig.Point, len(overlap))
	signer := -1
	for i, tok := range overlap {
		pubs[i] = keys[tok].Public
		if tok == signTok {
			signer = i
		}
	}
	sig, err := ringsig.Sign(rand.Reader, keys[signTok], pubs, signer, Message(overlap))
	if err != nil {
		t.Fatal(err)
	}
	manual.Keys, manual.Signature = pubs, sig
	if _, err := n.Submit(manual); !errors.Is(err, itm.ErrConfig) {
		t.Fatalf("overlap err = %v", err)
	}
}

func TestMineFeeOrdering(t *testing.T) {
	l, keys := testChain(t, 12)
	n := defaultNode(t, l)
	req := diversity.Requirement{C: 1, L: 3}

	subA := makeSubmission(t, l, keys, 0, req)
	subA.Fee = 5
	subB := makeSubmission(t, l, keys, 10, req)
	subB.Fee = 50
	if subA.Tokens.Disjoint(subB.Tokens) {
		ra, err := n.Submit(subA)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := n.Submit(subB)
		if err != nil {
			t.Fatal(err)
		}
		mined, err := n.Mine(1)
		if err != nil {
			t.Fatal(err)
		}
		if len(mined) != 1 || mined[0].SubmissionID != rb.SubmissionID {
			t.Fatalf("highest fee must mine first: %+v (a=%d b=%d)", mined, ra.SubmissionID, rb.SubmissionID)
		}
		if n.PendingCount() != 1 {
			t.Fatalf("pending = %d", n.PendingCount())
		}
		mined, err = n.Mine(5)
		if err != nil {
			t.Fatal(err)
		}
		if len(mined) != 1 || mined[0].SubmissionID != ra.SubmissionID {
			t.Fatalf("second block = %+v", mined)
		}
	} else {
		t.Skip("rings overlapped; fee-order scenario needs disjoint rings")
	}
}

func TestUnsignedMode(t *testing.T) {
	l, _ := testChain(t, 8)
	n, err := New(l, Config{
		Framework:     itm.Config{Lambda: 1000, Headroom: true, Algorithm: itm.Progressive},
		AllowUnsigned: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	req := diversity.Requirement{C: 1, L: 3}
	universe := l.TokensInBlocks(0, 0)
	supers, fresh := selector.Decompose(nil, universe)
	p, err := selector.NewTable(universe, supers, fresh, l.OriginFunc()).Problem(0, req.WithHeadroom())
	if err != nil {
		t.Fatal(err)
	}
	res, err := selector.Progressive(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Submit(Submission{Tokens: res.Tokens, Req: req, Fee: 1}); err != nil {
		t.Fatal(err)
	}
	mined, err := n.Mine(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(mined) != 1 {
		t.Fatalf("mined = %+v", mined)
	}
}

func TestMineEmptyAndZero(t *testing.T) {
	l, _ := testChain(t, 4)
	n := defaultNode(t, l)
	if mined, err := n.Mine(5); err != nil || mined != nil {
		t.Fatalf("empty mine = %+v, %v", mined, err)
	}
	if mined, err := n.Mine(0); err != nil || mined != nil {
		t.Fatalf("zero mine = %+v, %v", mined, err)
	}
}

func TestMineDropsTamperedSignature(t *testing.T) {
	l, keys := testChain(t, 10)
	n := defaultNode(t, l)
	req := diversity.Requirement{C: 1, L: 3}

	sub := makeSubmission(t, l, keys, 0, req)
	if _, err := n.Submit(sub); err != nil {
		t.Fatal(err)
	}
	// The mempool holds the same *Signature the caller does: corrupt a
	// response after admission. Mine's batch re-verification (a cache miss,
	// since the transcript changed) must drop the entry instead of mining it.
	sub.Signature.S[1] = new(big.Int).Add(sub.Signature.S[1], big.NewInt(1))
	mined, err := n.Mine(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(mined) != 0 {
		t.Fatalf("tampered entry was mined: %+v", mined)
	}
	if n.ChainRings() != 0 || n.PendingCount() != 0 {
		t.Fatalf("chain=%d pending=%d; want 0, 0 (dropped, not retained)",
			n.ChainRings(), n.PendingCount())
	}
}

func TestVerifyBatchCtx(t *testing.T) {
	l, keys := testChain(t, 10)
	n := defaultNode(t, l)
	req := diversity.Requirement{C: 1, L: 3}

	good := makeSubmission(t, l, keys, 0, req)
	tampered := makeSubmission(t, l, keys, 1, req)
	tampered.Signature.S[0] = new(big.Int).Add(tampered.Signature.S[0], big.NewInt(1))
	unsigned := makeSubmission(t, l, keys, 2, req)
	unsigned.Signature = nil
	mismatched := makeSubmission(t, l, keys, 3, req)
	mismatched.Keys = mismatched.Keys[:len(mismatched.Keys)-1]

	res := n.VerifyBatchCtx(context.Background(), []Submission{good, tampered, unsigned, mismatched})
	if res.OK() {
		t.Fatal("batch with three bad entries reported OK")
	}
	if res.Errs[0] != nil {
		t.Fatalf("valid entry failed: %v", res.Errs[0])
	}
	if !errors.Is(res.Errs[1], ErrBadSignature) {
		t.Fatalf("tampered err = %v", res.Errs[1])
	}
	if !errors.Is(res.Errs[2], ErrUnsignedDenied) {
		t.Fatalf("unsigned err = %v", res.Errs[2])
	}
	if !errors.Is(res.Errs[3], ErrKeysMismatch) {
		t.Fatalf("mismatch err = %v", res.Errs[3])
	}
	if res.FirstFailure != 1 {
		t.Fatalf("FirstFailure = %d, want 1", res.FirstFailure)
	}

	// Re-verifying the same valid entry hits the engine's transcript cache.
	res = n.VerifyBatchCtx(context.Background(), []Submission{good})
	if !res.OK() || res.CacheHits != 1 {
		t.Fatalf("cached re-verify: ok=%v hits=%d", res.OK(), res.CacheHits)
	}

	// An entry cancelled before it was verified is a signature failure whose
	// cause is the cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res = n.VerifyBatchCtx(ctx, []Submission{good, tampered})
	for i, err := range res.Errs {
		if !errors.Is(err, ErrBadSignature) || !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled entry %d: err = %v", i, err)
		}
	}
}

// TestOneSignatureVerdict: every tamper class gets the same verdict from
// Submit's admission check and from VerifyBatchCtx, which makes the engine
// call MineCtx's block validation makes: the same error, wrapping
// ErrBadSignature around the same cause, at every index of one batch. Both
// identities survive the wrap, so errors.Is finds the engine's cause too.
func TestOneSignatureVerdict(t *testing.T) {
	l, keys := testChain(t, 10)
	n := defaultNode(t, l)
	req := diversity.Requirement{C: 1, L: 3}
	good := makeSubmission(t, l, keys, 0, req)
	other := makeSubmission(t, l, keys, 5, req)
	last := len(good.Keys) - 1
	if last < 2 {
		t.Fatalf("ring of %d keys; the tamper classes need three", len(good.Keys))
	}

	withSig := func(edit func(s *ringsig.Signature)) Submission {
		sub := good
		sig := *good.Signature
		sig.C0 = new(big.Int).Set(sig.C0)
		sig.S = make([]*big.Int, len(good.Signature.S))
		for i, v := range good.Signature.S {
			sig.S[i] = new(big.Int).Set(v)
		}
		edit(&sig)
		sub.Signature = &sig
		return sub
	}
	withKeys := func(edit func(k []ringsig.Point)) Submission {
		sub := good
		sub.Keys = append([]ringsig.Point{}, good.Keys...)
		edit(sub.Keys)
		return sub
	}
	curveN := ringsig.Curve.Params().N
	offCurve := ringsig.Point{X: big.NewInt(7), Y: big.NewInt(9)}
	wrongMsg := good
	wrongMsg.Tokens = append(chain.TokenSet{}, good.Tokens...)
	wrongMsg.Tokens[last] = chain.TokenID(l.NumTokens()) // the message names another ring
	unsigned := good
	unsigned.Signature = nil
	mismatch := good
	mismatch.Keys = good.Keys[:last]

	bad, badKeys := ringsig.ErrInvalid, ringsig.ErrBadRingKeys
	classes := []struct {
		name  string
		sub   Submission
		cause error // the engine's error, which the verdict wraps
	}{
		{"bumped C0", withSig(func(s *ringsig.Signature) { s.C0.Add(s.C0, big.NewInt(1)).Mod(s.C0, curveN) }), bad},
		{"bumped s", withSig(func(s *ringsig.Signature) { s.S[1].Add(s.S[1], big.NewInt(1)).Mod(s.S[1], curveN) }), bad},
		{"zero s", withSig(func(s *ringsig.Signature) { s.S[0].SetInt64(0) }), bad},
		{"huge C0", withSig(func(s *ringsig.Signature) { s.C0.Lsh(big.NewInt(1), 300) }), bad},
		{"s = N", withSig(func(s *ringsig.Signature) { s.S[last].Set(curveN) }), bad},
		{"nil s", withSig(func(s *ringsig.Signature) { s.S[1] = nil }), bad},
		{"short S", withSig(func(s *ringsig.Signature) { s.S = s.S[:last] }), bad},
		{"nil C0", withSig(func(s *ringsig.Signature) { s.C0 = nil }), bad},
		{"negative C0", withSig(func(s *ringsig.Signature) { s.C0.SetInt64(-1) }), bad},
		{"negative s", withSig(func(s *ringsig.Signature) { s.S[last].Neg(s.S[last]) }), bad},
		{"off-curve image", withSig(func(s *ringsig.Signature) { s.Image = offCurve }), bad},
		{"zero image", withSig(func(s *ringsig.Signature) { s.Image = ringsig.Point{} }), bad},
		{"image of another signer", withSig(func(s *ringsig.Signature) { s.Image = other.Signature.Image }), bad},
		{"wrong message", wrongMsg, bad},
		{"swapped ring keys", withKeys(func(k []ringsig.Point) { k[0], k[1] = k[1], k[0] }), bad},
		{"zero ring key", withKeys(func(k []ringsig.Point) { k[last] = ringsig.Point{} }), badKeys},
		{"off-curve ring key", withKeys(func(k []ringsig.Point) { k[1] = offCurve }), badKeys},
	}

	// One batch: the valid submission, every tamper class, then the two
	// malformed submissions.
	subs := []Submission{good}
	for _, c := range classes {
		subs = append(subs, c.sub)
	}
	subs = append(subs, unsigned, mismatch)
	res := n.VerifyBatchCtx(context.Background(), subs)
	for i, c := range classes {
		_, err := n.Submit(c.sub)
		got := res.Errs[1+i]
		if !errors.Is(err, ErrBadSignature) || got == nil || err.Error() != got.Error() {
			t.Fatalf("%s: Submit %v, VerifyBatchCtx %v", c.name, err, got)
		}
		if !errors.Is(err, c.cause) || !errors.Is(got, c.cause) {
			t.Fatalf("%s: Submit %v, VerifyBatchCtx %v, want both to wrap %v", c.name, err, got, c.cause)
		}
	}
	for i, want := range []error{ErrUnsignedDenied, ErrKeysMismatch} {
		_, err := n.Submit(subs[1+len(classes)+i])
		if got := res.Errs[1+len(classes)+i]; !errors.Is(err, want) || !errors.Is(got, want) {
			t.Fatalf("malformed entry: Submit %v, VerifyBatchCtx %v, want %v", err, got, want)
		}
	}
	if res.Errs[0] != nil || res.FirstFailure != 1 {
		t.Fatalf("valid entry: err %v, FirstFailure %d", res.Errs[0], res.FirstFailure)
	}
	if _, err := n.Submit(good); err != nil {
		t.Fatalf("valid submission rejected: %v", err)
	}
}

// TestGenerateKeysReproducible: one seed fixes every token's key, so a
// seeded experiment chain gets the same keys on every run.
func TestGenerateKeysReproducible(t *testing.T) {
	l, _ := testChain(t, 25)
	for round := 0; round < 5; round++ {
		a, err := GenerateKeys(mrand.New(mrand.NewSource(7)), l)
		if err != nil {
			t.Fatal(err)
		}
		b, err := GenerateKeys(mrand.New(mrand.NewSource(7)), l)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != l.NumTokens() || len(b) != l.NumTokens() {
			t.Fatalf("keyed %d and %d tokens, want %d", len(a), len(b), l.NumTokens())
		}
		for tok, k := range a {
			if k.D.Cmp(b[tok].D) != 0 || !k.Public.Equal(b[tok].Public) {
				t.Fatalf("round %d: token %v got different keys from the same seed", round, tok)
			}
		}
	}
}
