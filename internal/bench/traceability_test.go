package bench

import (
	"testing"

	"tokenmagic/internal/adversary"
	"tokenmagic/internal/chain"
	"tokenmagic/internal/workload"
)

func TestTraceabilityExperiment(t *testing.T) {
	pts, err := Traceability(25, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	var monero, tm TraceabilityPoint
	for _, p := range pts {
		switch p.Strategy {
		case "Monero_SM":
			monero = p
		case "TokenMagic_TM_P":
			tm = p
		default:
			t.Fatalf("unexpected strategy %q", p.Strategy)
		}
	}
	if monero.RingsCommitted == 0 || tm.RingsCommitted == 0 {
		t.Fatalf("both strategies must commit rings: %+v / %+v", monero, tm)
	}
	// The paper's motivation: TokenMagic rings stay untraceable while the
	// SM-era ledger (with its fee-minimising zero-mixin fraction) leaks
	// heavily under exact analysis.
	if tm.Traced != 0 {
		t.Fatalf("TokenMagic rings traced: %+v", tm)
	}
	if monero.Traced == 0 {
		t.Fatalf("SM-era ledger must show traced rings: %+v", monero)
	}
	if tm.AvgAnonymity <= monero.AvgAnonymity {
		t.Fatalf("TokenMagic anonymity %v must beat SM %v", tm.AvgAnonymity, monero.AvgAnonymity)
	}
}

func TestSideInfoResilience(t *testing.T) {
	// Three disjoint, diverse rings: thresholds should be positive and the
	// observed count should not be below the theorem bound.
	l := chain.NewLedger()
	b := l.BeginBlock()
	for i := 0; i < 9; i++ {
		if _, err := l.AddTx(b, 1); err != nil {
			t.Fatal(err)
		}
	}
	rings := []chain.RingRecord{
		{ID: 0, Tokens: chain.NewTokenSet(0, 1, 2), Pos: 0},
		{ID: 1, Tokens: chain.NewTokenSet(3, 4, 5), Pos: 1},
		{ID: 2, Tokens: chain.NewTokenSet(6, 7, 8), Pos: 2},
	}
	origin := l.OriginFunc()
	observed, bound, measured := SideInfoResilience(rings, origin)
	if measured != 3 {
		t.Fatalf("measured = %d", measured)
	}
	if bound != 2 {
		t.Fatalf("theorem bound = %d, want |r|−q_M = 3−1 = 2", bound)
	}
	// Disjoint uniform rings are never pinned by foreign pairs.
	if observed != -1 {
		t.Fatalf("disjoint rings must be resilient, pinned after %d", observed)
	}
}

func TestSideInfoResilienceOnGeneratedLedger(t *testing.T) {
	d, err := workload.RealMonero(6)
	if err != nil {
		t.Fatal(err)
	}
	rings := d.Rings()[:5]
	observed, bound, measured := SideInfoResilience(rings, d.Origin())
	if measured != 5 {
		t.Fatalf("measured = %d", measured)
	}
	if observed != -1 && observed < bound {
		t.Fatalf("Theorem 6.2 violated empirically: observed %d < bound %d", observed, bound)
	}
	if bound < 1 {
		t.Fatalf("real-data rings should have positive thresholds, bound = %d", bound)
	}
}

// SideInfoResilience measures Theorem 6.2 empirically over committed rings:
// for each ring, the number of revealed pairs an adversary needs before the
// exact analysis pins the ring's HT, compared with the theorem's bound
// |r| − q_M. Rings the adversary never pins (even after revealing a pair of
// every other ring) are counted in measured but do not lower minObserved —
// they are maximally resilient. minObserved is −1 when no ring was ever
// pinned.
func SideInfoResilience(rings []chain.RingRecord, origin func(chain.TokenID) chain.TxID) (minObserved, minBound, measured int) {
	minObserved, minBound = -1, -1
	for _, r := range rings {
		bound := adversary.SideInfoThreshold(r.Tokens, origin)
		if minBound == -1 || bound < minBound {
			minBound = bound
		}
		measured++
		// Observed: reveal other rings' pairs one at a time (greedy, in id
		// order) until the target ring's HT becomes known.
		si := adversary.SideInfo{}
		observed := 0
		pinned := false
		for {
			a := adversary.ChainReaction(rings, si, origin)
			for _, o := range a.Observations {
				if o.Ring == r.ID && o.HTKnown {
					pinned = true
					break
				}
			}
			if pinned {
				break
			}
			// Reveal one more pair, if any ring remains unrevealed.
			revealed := false
			for _, other := range rings {
				if other.ID == r.ID {
					continue
				}
				if _, done := si[other.ID]; done {
					continue
				}
				si[other.ID] = other.Tokens[0]
				observed++
				revealed = true
				break
			}
			if !revealed {
				break // adversary exhausted: ring is resilient
			}
		}
		if pinned && (minObserved == -1 || observed < minObserved) {
			minObserved = observed
		}
	}
	return minObserved, minBound, measured
}
