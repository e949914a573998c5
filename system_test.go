package tokenmagic

import (
	"errors"
	"math/big"
	"reflect"
	"testing"

	"tokenmagic/internal/node"
	"tokenmagic/internal/ringsig"
)

// mintStandard builds a sealed system with n transactions of two outputs
// each (the real data set's modal shape).
func mintStandard(t *testing.T, opts Options, nTx int) (*System, []TokenID) {
	t.Helper()
	sys := NewSystem(opts)
	outs := make([]int, nTx)
	for i := range outs {
		outs[i] = 2
	}
	ids, err := sys.MintBlock(outs...)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Seal(); err != nil {
		t.Fatal(err)
	}
	return sys, ids
}

func TestSystemSpendEndToEnd(t *testing.T) {
	sys, ids := mintStandard(t, Options{}, 8)
	req := Requirement{C: 1, L: 3}
	rcpt, err := sys.Spend(ids[0], req)
	if err != nil {
		t.Fatal(err)
	}
	if !rcpt.Tokens.Contains(ids[0]) {
		t.Fatalf("ring %v must contain the spent token", rcpt.Tokens)
	}
	if rcpt.Signature == nil {
		t.Fatal("spend must carry a real ring signature")
	}
	if rcpt.Fee != uint64(len(rcpt.Tokens)) {
		t.Fatalf("fee = %d, want ring size %d", rcpt.Fee, len(rcpt.Tokens))
	}
	if sys.NumRings() != 1 {
		t.Fatalf("rings = %d", sys.NumRings())
	}
	ring, err := sys.Ring(rcpt.Ring)
	if err != nil {
		t.Fatal(err)
	}
	if !ring.Equal(rcpt.Tokens) {
		t.Fatal("ledger ring differs from receipt")
	}
}

// TestSystemSelfVerificationFailure: a spend whose signature does not
// verify (signed with a scalar that does not match the token's public key)
// is refused with the node's bad-signature error around the engine's cause,
// and nothing is committed.
func TestSystemSelfVerificationFailure(t *testing.T) {
	sys, ids := mintStandard(t, Options{}, 8)
	good := sys.keys[ids[0]]
	sys.keys[ids[0]] = &ringsig.PrivateKey{D: new(big.Int).Add(good.D, big.NewInt(1)), Public: good.Public}
	_, err := sys.Spend(ids[0], Requirement{C: 1, L: 3})
	if want := node.ErrBadSignature.Error() + ": " + ringsig.ErrInvalid.Error(); err == nil || err.Error() != want || !errors.Is(err, ringsig.ErrInvalid) {
		t.Fatalf("spend with a corrupt key: %v, want %q", err, want)
	}
	if sys.NumRings() != 0 {
		t.Fatalf("rings = %d after a refused spend", sys.NumRings())
	}
}

// TestSystemSignaturesVerifyWithoutMemo: signatures made through the
// node's memo-warmed engine verify under the cache-less package Verify.
func TestSystemSignaturesVerifyWithoutMemo(t *testing.T) {
	sys, ids := mintStandard(t, Options{}, 12)
	for _, target := range ids[:4] {
		rcpt, err := sys.Spend(target, Requirement{C: 1, L: 3})
		if err != nil {
			t.Fatal(err)
		}
		pubs := make([]ringsig.Point, len(rcpt.Tokens))
		for i, tok := range rcpt.Tokens {
			pubs[i] = sys.keys[tok].Public
		}
		if err := ringsig.Verify(rcpt.Signature, pubs, node.Message(rcpt.Tokens)); err != nil {
			t.Fatalf("spend of %v: %v", target, err)
		}
	}
}

// TestSystemUnsignedHoldsNoKeys: with signing disabled, minting draws no
// keys, and Seal's node holds none and has not allocated its
// verified-transcript cache. The node's state is unexported, so the test
// reads it by reflection.
func TestSystemUnsignedHoldsNoKeys(t *testing.T) {
	sys, _ := mintStandard(t, Options{DisableSigning: true}, 6)
	if len(sys.keys) != 0 {
		t.Fatalf("unsigned system holds %d keys", len(sys.keys))
	}
	nd := reflect.ValueOf(sys.node).Elem()
	if keys := nd.FieldByName("keys"); !keys.IsNil() {
		t.Fatalf("unsigned system's node holds a key map of %d keys", keys.Len())
	}
	seen := nd.FieldByName("engine").Elem().FieldByName("Seen").Elem()
	for _, gen := range []string{"cur", "prev"} {
		if m := seen.FieldByName(gen); !m.IsNil() {
			t.Fatalf("unsigned system's node allocated its signature cache (%s generation)", gen)
		}
	}
}

func TestSystemDoubleSpend(t *testing.T) {
	sys, ids := mintStandard(t, Options{}, 10)
	req := Requirement{C: 1, L: 3}
	if _, err := sys.Spend(ids[0], req); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Spend(ids[0], req); !errors.Is(err, ErrDoubleSpend) {
		t.Fatalf("second spend err = %v, want ErrDoubleSpend", err)
	}
}

func TestSystemDoubleSpendUnsigned(t *testing.T) {
	sys, ids := mintStandard(t, Options{DisableSigning: true}, 10)
	req := Requirement{C: 1, L: 3}
	rcpt, err := sys.Spend(ids[0], req)
	if err != nil {
		t.Fatal(err)
	}
	if rcpt.Signature != nil {
		t.Fatal("unsigned mode must not produce signatures")
	}
	if _, err := sys.Spend(ids[0], req); !errors.Is(err, ErrDoubleSpend) {
		t.Fatalf("unsigned second spend err = %v, want ErrDoubleSpend", err)
	}
}

func TestSystemLifecycleErrors(t *testing.T) {
	sys := NewSystem(Options{})
	if _, err := sys.Spend(0, Requirement{C: 1, L: 2}); !errors.Is(err, ErrNotSealed) {
		t.Fatalf("spend before seal err = %v", err)
	}
	if _, err := sys.MintBlock(0); err == nil {
		t.Fatal("zero-output tx must error")
	}
	if _, err := sys.MintBlock(2); err != nil {
		t.Fatal(err)
	}
	if err := sys.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Seal(); !errors.Is(err, ErrSealed) {
		t.Fatalf("double seal err = %v", err)
	}
	if _, err := sys.MintBlock(2); !errors.Is(err, ErrSealed) {
		t.Fatalf("mint after seal err = %v", err)
	}
}

func TestSystemNoEligible(t *testing.T) {
	// One transaction with 4 outputs: every token shares the HT, ℓ=2 is
	// unreachable.
	sys := NewSystem(Options{})
	ids, err := sys.MintBlock(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Seal(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Spend(ids[0], Requirement{C: 1, L: 2}); !errors.Is(err, ErrNoEligible) {
		t.Fatalf("err = %v, want ErrNoEligible", err)
	}
}

func TestSystemAudit(t *testing.T) {
	sys, ids := mintStandard(t, Options{DisableSigning: true}, 10)
	req := Requirement{C: 1, L: 3}
	for i := 0; i < 3; i++ {
		if _, err := sys.Spend(ids[i*2], req); err != nil {
			t.Fatal(err)
		}
	}
	rep := sys.Audit()
	if rep.Rings != 3 {
		t.Fatalf("audit rings = %d", rep.Rings)
	}
	if rep.TracedRings != 0 {
		t.Fatalf("TokenMagic spends must not be traceable, got %d traced", rep.TracedRings)
	}
	if rep.AvgAnonymitySet < 2 {
		t.Fatalf("anonymity set %v too small", rep.AvgAnonymitySet)
	}
}

func TestSystemAuditWithSideInfo(t *testing.T) {
	sys, ids := mintStandard(t, Options{DisableSigning: true}, 10)
	req := Requirement{C: 1, L: 3}
	rcpt, err := sys.Spend(ids[0], req)
	if err != nil {
		t.Fatal(err)
	}
	plain := sys.Audit()
	leak := sys.AuditWithSideInfo(map[RSID]TokenID{rcpt.Ring: ids[0]})
	if leak.TracedRings <= plain.TracedRings {
		t.Fatalf("side info must increase traced rings: %d vs %d",
			leak.TracedRings, plain.TracedRings)
	}
}

func TestSystemCommitRawBypassesChecks(t *testing.T) {
	sys, ids := mintStandard(t, Options{DisableSigning: true}, 6)
	// A homogeneous ring (both outputs of one tx) that Spend would refuse.
	id, err := sys.CommitRaw(NewTokenSet(ids[0], ids[1]), Requirement{C: 1, L: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep := sys.Audit()
	_ = id
	if rep.HTRevealedRings != 1 {
		t.Fatalf("homogeneous raw ring should leak its HT, got %+v", rep)
	}
}

func TestSystemAllAlgorithms(t *testing.T) {
	for _, algo := range []Algorithm{Progressive, Game, Smallest, RandomPick} {
		sys, ids := mintStandard(t, Options{Algorithm: algo, DisableSigning: true}, 8)
		if _, err := sys.Spend(ids[3], Requirement{C: 1, L: 3}); err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Lambda != 800 || o.Eta != 0.1 || o.Seed != 1 || o.FeePerToken != 1 {
		t.Fatalf("defaults = %+v", o)
	}
}
