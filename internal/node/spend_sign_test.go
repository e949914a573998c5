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
	itm "tokenmagic/internal/tokenmagic"
)

// TestSpendSignAndVerifySpans: a signed spend's trace has one "sign" span
// and then one "verify-sig" span, disjoint, so per-stage times still add up
// to the request's latency; verify-sig says how many links were checked
// while signing. A spend whose signature fails self-verification (here
// signed with a key whose scalar does not match its public key) is
// rejected with ErrBadSignature around the engine's cause.
func TestSpendSignAndVerifySpans(t *testing.T) {
	l, keys := testChain(t, 10)
	const corrupt = chain.TokenID(3)
	good := keys[corrupt]
	keys[corrupt] = &ringsig.PrivateKey{D: new(big.Int).Add(good.D, big.NewInt(1)), Public: good.Public}
	n, err := New(l, Config{
		Framework: itm.Config{Lambda: 1000, Eta: 0.1, Headroom: true, Algorithm: itm.Progressive, Metrics: obs.NewRegistry()},
		Keys:      keys,
	})
	if err != nil {
		t.Fatal(err)
	}
	req := diversity.Requirement{C: 1, L: 3}
	col := trace.NewCollector()

	ctx, tr := trace.New(context.Background(), col, "test.spend")
	res, err := n.Spend(ctx, 0, req)
	if err != nil || !res.Signed {
		t.Fatalf("spend: %+v, %v", res, err)
	}
	tr.Finish("200")
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

	_, err = n.Spend(context.Background(), corrupt, req)
	if !errors.Is(err, ErrBadSignature) || !errors.Is(err, ringsig.ErrInvalid) {
		t.Fatalf("spend with a corrupt key: %v, want ErrBadSignature around ringsig.ErrInvalid", err)
	}
	if want := ErrBadSignature.Error() + ": " + ringsig.ErrInvalid.Error(); err.Error() != want {
		t.Fatalf("error text %q, want %q", err, want)
	}
}
