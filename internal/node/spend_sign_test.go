package node

import (
	"context"
	"errors"
	"math/big"
	"testing"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
	"tokenmagic/internal/obs"
	"tokenmagic/internal/obs/trace"
	"tokenmagic/internal/ringsig"
	"tokenmagic/internal/selector"
	itm "tokenmagic/internal/tokenmagic"
)

// signedSpendNode builds a node with a private registry over a chain of
// nTx two-output transactions, holding every token's key.
func signedSpendNode(t *testing.T, nTx int) (*Node, map[chain.TokenID]*ringsig.PrivateKey, *obs.Registry) {
	t.Helper()
	l, keys := testChain(t, nTx)
	reg := obs.NewRegistry()
	n, err := New(l, Config{
		Framework: itm.Config{Lambda: 1000, Eta: 0.1, Headroom: true, Algorithm: itm.Progressive, Metrics: reg},
		Keys:      keys,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n, keys, reg
}

// corruptKey replaces tok's key scalar with one that does not match its
// public key, so a signature made with it fails self-verification.
func corruptKey(keys map[chain.TokenID]*ringsig.PrivateKey, tok chain.TokenID) {
	good := keys[tok]
	keys[tok] = &ringsig.PrivateKey{D: new(big.Int).Add(good.D, big.NewInt(1)), Public: good.Public}
}

// checkSignSpans asserts that the collector's latest trace has one "sign"
// span and then one "verify-sig" span, disjoint, and that verify-sig says
// how many links were checked while signing.
func checkSignSpans(t *testing.T, col *trace.Collector) {
	t.Helper()
	spans := map[string][]trace.SpanJSON{}
	for _, sp := range col.Snapshot("", 1).Recent[0].Spans {
		spans[sp.Name] = append(spans[sp.Name], sp)
	}
	if len(spans["sign"]) != 1 || len(spans["verify-sig"]) != 1 {
		t.Fatalf("sign spans %d, verify-sig spans %d, want one each", len(spans["sign"]), len(spans["verify-sig"]))
	}
	sign, verify := spans["sign"][0], spans["verify-sig"][0]
	if sign.DurUS < 0 || verify.DurUS < 0 || sign.StartUS+sign.DurUS > verify.StartUS {
		t.Fatalf("sign [%d, +%d] and verify-sig [%d, +%d] are not disjoint and in order",
			sign.StartUS, sign.DurUS, verify.StartUS, verify.DurUS)
	}
	if _, ok := verify.Annotations["links_while_signing"]; !ok {
		t.Fatalf("verify-sig annotations %v lack links_while_signing", verify.Annotations)
	}
}

// TestSpendSignAndVerifySpans: a signed spend's trace has one "sign" span
// and then one "verify-sig" span, disjoint, so per-stage times still add up
// to the request's latency; verify-sig says how many links were checked
// while signing. A spend whose signature fails self-verification (here
// signed with a key whose scalar does not match its public key) is
// rejected with ErrBadSignature around the engine's cause.
func TestSpendSignAndVerifySpans(t *testing.T) {
	n, keys, _ := signedSpendNode(t, 10)
	const corrupt = chain.TokenID(3)
	corruptKey(keys, corrupt)
	req := diversity.Requirement{C: 1, L: 3}
	col := trace.NewCollector()

	ctx, tr := trace.New(context.Background(), col, "test.spend")
	res, err := n.Spend(ctx, 0, req)
	if err != nil || !res.Signed || res.Signature == nil {
		t.Fatalf("spend: %+v, %v", res, err)
	}
	tr.Finish("200")
	checkSignSpans(t, col)

	_, err = n.Spend(context.Background(), corrupt, req)
	if !errors.Is(err, ErrBadSignature) || !errors.Is(err, ringsig.ErrInvalid) {
		t.Fatalf("spend with a corrupt key: %v, want ErrBadSignature around ringsig.ErrInvalid", err)
	}
	if want := ErrBadSignature.Error() + ": " + ringsig.ErrInvalid.Error(); err.Error() != want {
		t.Fatalf("error text %q, want %q", err, want)
	}
}

// TestSpendCountsBadSignature: a spend refused by its own self-verification
// is counted as node.spend.reject.bad_signature, not as "other".
func TestSpendCountsBadSignature(t *testing.T) {
	n, keys, reg := signedSpendNode(t, 10)
	corruptKey(keys, 3)
	if _, err := n.Spend(context.Background(), 3, diversity.Requirement{C: 1, L: 3}); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("spend with a corrupt key: %v, want ErrBadSignature", err)
	}
	if got := reg.Counter("node.spend.reject.bad_signature").Value(); got != 1 {
		t.Fatalf("node.spend.reject.bad_signature = %d, want 1", got)
	}
	if got := reg.Counter("node.spend.reject.other").Value(); got != 0 {
		t.Fatalf("node.spend.reject.other = %d, want 0", got)
	}
	if n.ChainRings() != 0 {
		t.Fatalf("%d rings after a refused spend", n.ChainRings())
	}
}

// TestSpendRelaxedAchievesAndTraces: when the requested requirement has no
// eligible ring, the relaxed spend walks the ladder, commits the ring under
// the requirement it achieved and returns that requirement; its trace still
// carries one sign and one verify-sig span. A strict Spend of the same
// requirement finds nothing.
func TestSpendRelaxedAchievesAndTraces(t *testing.T) {
	n, _, _ := signedSpendNode(t, 10)
	// Ten source transactions: ℓ = 12 (13 with headroom) is unreachable.
	strict := diversity.Requirement{C: 1, L: 12}
	if _, err := n.Spend(context.Background(), 0, strict); !errors.Is(err, selector.ErrNoEligible) {
		t.Fatalf("strict spend: %v, want ErrNoEligible", err)
	}
	col := trace.NewCollector()
	ctx, tr := trace.New(context.Background(), col, "test.spend")
	res, achieved, err := n.SpendRelaxed(ctx, 0, strict, itm.RelaxationPolicy{LStep: 1})
	if err != nil || !res.Signed {
		t.Fatalf("relaxed spend: %+v, %v", res, err)
	}
	tr.Finish("200")
	checkSignSpans(t, col)
	if achieved.L >= strict.L || achieved.C != strict.C {
		t.Fatalf("achieved %v, want a smaller ℓ than %v", achieved, strict)
	}
	rec, err := n.ledger.RS(res.RSID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.L != achieved.L || !rec.Tokens.Equal(res.Ring) {
		t.Fatalf("ledger ring %v declares ℓ=%d, receipt %v achieved %v", rec.Tokens, rec.L, res.Ring, achieved)
	}
}

// TestUnsignedSpendRefusesRepeatedTarget: a node without keys signs
// nothing, so it refuses a second spend of the same target by target, under
// the double-spend sentinel, for strict and relaxed spends alike.
func TestUnsignedSpendRefusesRepeatedTarget(t *testing.T) {
	l, _ := testChain(t, 10)
	reg := obs.NewRegistry()
	n, err := New(l, Config{
		Framework:     itm.Config{Lambda: 1000, Eta: 0.1, Headroom: true, Algorithm: itm.Progressive, Metrics: reg},
		AllowUnsigned: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	req := diversity.Requirement{C: 1, L: 3}
	res, err := n.Spend(context.Background(), 0, req)
	if err != nil || res.Signed || res.Signature != nil {
		t.Fatalf("unsigned spend: %+v, %v", res, err)
	}
	if _, err := n.Spend(context.Background(), 0, req); !errors.Is(err, ErrKeyImageUsed) {
		t.Fatalf("second unsigned spend: %v, want ErrKeyImageUsed", err)
	}
	if _, _, err := n.SpendRelaxed(context.Background(), 0, req, itm.RelaxationPolicy{LStep: 1}); !errors.Is(err, ErrKeyImageUsed) {
		t.Fatalf("relaxed repeat: %v, want ErrKeyImageUsed", err)
	}
	if got := reg.Counter("node.spend.reject.double_spend").Value(); got != 2 {
		t.Fatalf("node.spend.reject.double_spend = %d, want 2", got)
	}
	if n.ChainRings() != 1 {
		t.Fatalf("%d rings, want 1", n.ChainRings())
	}
}

// TestSpendLeavesSigCacheForSubmissions: a Spend commits the signature it
// has just self-verified and records nothing in the transcript cache, while
// a submitted signature is recorded at admission, so the block validation
// that mines it settles it from the cache.
func TestSpendLeavesSigCacheForSubmissions(t *testing.T) {
	n, keys, _ := signedSpendNode(t, 20)
	req := diversity.Requirement{C: 1, L: 3}
	if _, err := n.Spend(context.Background(), 0, req); err != nil {
		t.Fatal(err)
	}
	if got := n.engine.Seen.Len(); got != 0 {
		t.Fatalf("a spend left %d transcripts in the cache, want 0", got)
	}
	if _, err := n.Submit(makeSubmission(t, n.ledger, keys, 9, req)); err != nil {
		t.Fatal(err)
	}
	if got := n.engine.Seen.Len(); got != 1 {
		t.Fatalf("%d transcripts cached after one admitted submission, want 1", got)
	}
	col := trace.NewCollector()
	ctx, tr := trace.New(context.Background(), col, "test.mine")
	mined, err := n.MineCtx(ctx, 10)
	tr.Finish("200")
	if err != nil || len(mined) != 1 {
		t.Fatalf("mine: %d rings, %v; want the submitted one", len(mined), err)
	}
	var hits []string
	for _, sp := range col.Snapshot("", 1).Recent[0].Spans {
		if sp.Name == "verify-batch" {
			hits = append(hits, sp.Annotations["cache_hits"])
		}
	}
	if len(hits) != 1 || hits[0] != "1" {
		t.Fatalf("block validation cache hits %v, want one verify-batch span with 1", hits)
	}
}

// TestSpendRefusesPendingKeyImage: a signed Submit of a token followed by a
// Spend of the same token puts one ring on the chain, not two. The Spend
// sees the key image pending in the mempool and is refused as a double
// spend, Mine commits the submitted ring, and a later Spend is refused
// against the chain.
func TestSpendRefusesPendingKeyImage(t *testing.T) {
	n, keys, reg := signedSpendNode(t, 40)
	req := diversity.Requirement{C: 1, L: 3}
	if _, err := n.Submit(makeSubmission(t, n.ledger, keys, 0, req)); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Spend(context.Background(), 0, req); !errors.Is(err, ErrKeyImageUsed) {
		t.Fatalf("spend of a token pending in the mempool: %v, want ErrKeyImageUsed", err)
	}
	if got := reg.Counter("node.spend.reject.double_spend").Value(); got != 1 {
		t.Fatalf("node.spend.reject.double_spend = %d, want 1", got)
	}
	mined, err := n.Mine(10)
	if err != nil || len(mined) != 1 {
		t.Fatalf("mine: %d rings, %v; want the submitted one", len(mined), err)
	}
	if _, err := n.Spend(context.Background(), 0, req); !errors.Is(err, ErrKeyImageUsed) {
		t.Fatalf("spend of a mined token: %v, want ErrKeyImageUsed", err)
	}
	if n.ChainRings() != 1 {
		t.Fatalf("%d rings on the chain signed with one key, want 1", n.ChainRings())
	}
}
