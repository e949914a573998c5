package adversary

import (
	"math/rand"
	"testing"

	"tokenmagic/internal/chain"
)

func rec(id int, toks ...chain.TokenID) chain.RingRecord {
	return chain.RingRecord{ID: chain.RSID(id), Tokens: chain.NewTokenSet(toks...), Pos: id}
}

func originOf(hts map[chain.TokenID]chain.TxID) func(chain.TokenID) chain.TxID {
	return func(t chain.TokenID) chain.TxID {
		if h, ok := hts[t]; ok {
			return h
		}
		return chain.NoTx
	}
}

// Paper Example 1 second solution: r1 = r2 = {t1,t2}, r3 = {t2,t3}.
// The two identical rings consume both t1 and t2 (Theorem 4.1), so the
// consumed token of r3 must be t3.
func TestChainReactionEliminates(t *testing.T) {
	rings := []chain.RingRecord{
		rec(0, 1, 2),
		rec(1, 1, 2),
		rec(2, 2, 3),
	}
	origin := originOf(map[chain.TokenID]chain.TxID{1: 10, 2: 20, 3: 30})
	a := ChainReaction(rings, nil, origin)

	if !a.Consumed.Contains(1) || !a.Consumed.Contains(2) || !a.Consumed.Contains(3) {
		t.Fatalf("consumed = %v, want {1,2,3}", a.Consumed)
	}
	r3 := a.Observations[2]
	if !r3.Traced || !r3.Remaining.Equal(chain.NewTokenSet(3)) {
		t.Fatalf("r3 should be traced to t3, got %+v", r3)
	}
	if !r3.HTKnown || r3.HT != 30 {
		t.Fatalf("r3 HT should be revealed as 30, got %+v", r3)
	}
	// r1 and r2 stay ambiguous between t1 and t2.
	if a.Observations[0].Traced || a.Observations[1].Traced {
		t.Fatal("identical rings must stay untraced")
	}
}

// The "good" Example 1 solution resists: r1 = r2 = {t1,t2}, r3 = {t3,t4}.
func TestChainReactionResisted(t *testing.T) {
	rings := []chain.RingRecord{
		rec(0, 1, 2),
		rec(1, 1, 2),
		rec(2, 3, 4),
	}
	origin := originOf(map[chain.TokenID]chain.TxID{1: 10, 2: 20, 3: 30, 4: 40})
	a := ChainReaction(rings, nil, origin)
	if a.Observations[2].Traced {
		t.Fatal("disjoint ring must not be traced")
	}
	if a.Observations[2].HTKnown {
		t.Fatal("heterogeneous ring must not reveal HT")
	}
	// Theorem 4.1 still proves t1, t2 consumed.
	if !a.Consumed.Contains(1) || !a.Consumed.Contains(2) {
		t.Fatalf("consumed = %v, want ⊇ {1,2}", a.Consumed)
	}
	if a.Consumed.Contains(3) || a.Consumed.Contains(4) {
		t.Fatalf("tokens of the fresh ring wrongly consumed: %v", a.Consumed)
	}
}

// Homogeneity attack: all candidates from one HT reveal the HT even without
// tracing the token.
func TestHomogeneityAttack(t *testing.T) {
	rings := []chain.RingRecord{rec(0, 1, 2)}
	origin := originOf(map[chain.TokenID]chain.TxID{1: 7, 2: 7})
	a := ChainReaction(rings, nil, origin)
	o := a.Observations[0]
	if o.Traced {
		t.Fatal("two candidates: not traced")
	}
	if !o.HTKnown || o.HT != 7 {
		t.Fatalf("homogeneous ring should reveal HT 7, got %+v", o)
	}
}

// Side information pins rings and cascades.
func TestChainReactionSideInfo(t *testing.T) {
	// Example 2: revealing <t2, r1> forces r4 = t4, then r5 ∈ {t5, t6}.
	rings := []chain.RingRecord{
		rec(1, 1, 2, 5),
		rec(2, 1, 3),
		rec(3, 1, 3),
		rec(4, 2, 4),
		rec(5, 4, 5, 6),
	}
	origin := originOf(map[chain.TokenID]chain.TxID{1: 10, 2: 20, 3: 30, 4: 40, 5: 1, 6: 1})
	a := ChainReaction(rings, SideInfo{1: 2}, origin)

	if o := a.Observations[0]; !o.Traced || o.Remaining[0] != 2 {
		t.Fatalf("r1 should be pinned to t2: %+v", o)
	}
	if o := a.Observations[3]; !o.Traced || o.Remaining[0] != 4 {
		t.Fatalf("r4 should cascade to t4: %+v", o)
	}
	o := a.Observations[4]
	if o.Traced {
		t.Fatalf("r5 stays ambiguous between t5/t6: %+v", o)
	}
	if !o.HTKnown || o.HT != 1 {
		t.Fatalf("r5's HT should be revealed as h1 (homogeneity): %+v", o)
	}
}

func TestSideInfoIgnoresForeignToken(t *testing.T) {
	rings := []chain.RingRecord{rec(0, 1, 2)}
	origin := originOf(map[chain.TokenID]chain.TxID{1: 1, 2: 2})
	// Side info claims r0 consumed t9, which r0 does not contain: ignored.
	a := ChainReaction(rings, SideInfo{0: 9}, origin)
	if a.Observations[0].Traced {
		t.Fatal("invalid side info must be ignored")
	}
}

func TestChainReactionEmpty(t *testing.T) {
	a := ChainReaction(nil, nil, func(chain.TokenID) chain.TxID { return chain.NoTx })
	if len(a.Observations) != 0 || len(a.Consumed) != 0 {
		t.Fatalf("empty analysis should be empty, got %+v", a)
	}
}

// Nested chain: r0={1}, r1={1,2}, r2={1,2,3}: each link traces in turn.
func TestChainReactionNestedCascade(t *testing.T) {
	rings := []chain.RingRecord{rec(0, 1), rec(1, 1, 2), rec(2, 1, 2, 3)}
	origin := originOf(map[chain.TokenID]chain.TxID{1: 1, 2: 2, 3: 3})
	a := ChainReaction(rings, nil, origin)
	for i, want := range []chain.TokenID{1, 2, 3} {
		o := a.Observations[i]
		if !o.Traced || o.Remaining[0] != want {
			t.Fatalf("ring %d should trace to %v: %+v", i, want, o)
		}
	}
	if len(a.Consumed) != 3 {
		t.Fatalf("consumed = %v", a.Consumed)
	}
}

func TestSummarise(t *testing.T) {
	rings := []chain.RingRecord{
		rec(0, 1, 2),
		rec(1, 1, 2),
		rec(2, 2, 3),
	}
	origin := originOf(map[chain.TokenID]chain.TxID{1: 10, 2: 20, 3: 30})
	m := Summarise(ChainReaction(rings, nil, origin))
	if m.Rings != 3 {
		t.Fatalf("Rings = %d", m.Rings)
	}
	if m.Traced != 1 {
		t.Fatalf("Traced = %d, want 1 (r3 only)", m.Traced)
	}
	if m.HTRevealed != 1 {
		t.Fatalf("HTRevealed = %d, want 1", m.HTRevealed)
	}
	// Remaining sizes: 2, 2, 1 → avg 5/3.
	if want := 5.0 / 3.0; m.AvgAnonymity < want-1e-9 || m.AvgAnonymity > want+1e-9 {
		t.Fatalf("AvgAnonymity = %v, want %v", m.AvgAnonymity, want)
	}
	if m.ConsumedTokens != 3 {
		t.Fatalf("ConsumedTokens = %d", m.ConsumedTokens)
	}
}

func TestNeighborSets(t *testing.T) {
	ns := NewNeighborSets()
	if ns.RingCount() != 0 || len(ns.Consumed()) != 0 {
		t.Fatal("fresh NeighborSets should be empty")
	}
	ns.Append(rec(0, 1, 2))
	if len(ns.Consumed()) != 0 {
		t.Fatalf("one 2-ring proves nothing, μ = %d", len(ns.Consumed()))
	}
	// Appending the twin closes the set {1,2}: μ = 2.
	if got := ns.WouldConsume(rec(1, 1, 2)); got != 2 {
		t.Fatalf("WouldConsume = %d, want 2", got)
	}
	if len(ns.Consumed()) != 0 {
		t.Fatal("WouldConsume must not mutate")
	}
	ns.Append(rec(1, 1, 2))
	if len(ns.Consumed()) != 2 || ns.RingCount() != 2 {
		t.Fatalf("μ = %d rings = %d", len(ns.Consumed()), ns.RingCount())
	}
	if !ns.Consumed().Equal(chain.NewTokenSet(1, 2)) {
		t.Fatalf("Consumed = %v", ns.Consumed())
	}
}

// NeighborSets computes μ on demand. Over random ring sequences, after every
// Append and across Clones that then diverge, WouldConsume and Consumed
// must equal a from-scratch closure of the rings each set was
// fed, so neither laziness nor the shared backing array of a clone can leak
// one set's rings into another.
func TestNeighborSetsMatchFromScratch(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		randRing := func(id int) chain.RingRecord {
			toks := make([]chain.TokenID, 1+rng.Intn(4))
			for i := range toks {
				toks[i] = chain.TokenID(rng.Intn(10))
			}
			return rec(id, toks...)
		}
		type tracked struct {
			ns    *NeighborSets
			rings []chain.RingRecord
		}
		sets := []tracked{{ns: NewNeighborSets()}}
		for step := 0; step < 12; step++ {
			k := rng.Intn(len(sets))
			if rng.Intn(4) == 0 {
				c := sets[k]
				sets = append(sets, tracked{ns: c.ns.Clone(), rings: append([]chain.RingRecord(nil), c.rings...)})
			}
			r := randRing(step)
			for i := range sets {
				s := &sets[i]
				next := append(append([]chain.RingRecord(nil), s.rings...), r)
				if got, want := s.ns.WouldConsume(r), len(provablyConsumed(next)); got != want {
					t.Fatalf("seed %d step %d set %d: WouldConsume = %d, want %d", seed, step, i, got, want)
				}
			}
			sets[k].ns.Append(r)
			sets[k].rings = append(sets[k].rings, r)
			for i, s := range sets {
				want := provablyConsumed(append([]chain.RingRecord(nil), s.rings...))
				if got := s.ns.Consumed(); !got.Equal(want) {
					t.Fatalf("seed %d step %d set %d: Consumed = %v, want %v", seed, step, i, got, want)
				}
				if len(s.ns.Consumed()) != len(want) || s.ns.RingCount() != len(s.rings) {
					t.Fatalf("seed %d step %d set %d: μ = %d rings = %d, want %d and %d",
						seed, step, i, len(s.ns.Consumed()), s.ns.RingCount(), len(want), len(s.rings))
				}
			}
		}
	}
}

// Theorem 4.1 statement: n rings over exactly n distinct tokens → all
// consumed.
func TestTheorem41(t *testing.T) {
	rings := []chain.RingRecord{
		rec(0, 1, 2, 3),
		rec(1, 1, 2, 3),
		rec(2, 1, 2, 3),
	}
	origin := originOf(map[chain.TokenID]chain.TxID{1: 1, 2: 2, 3: 3})
	a := ChainReaction(rings, nil, origin)
	if len(a.Consumed) != 3 {
		t.Fatalf("Theorem 4.1: consumed = %v, want all 3", a.Consumed)
	}
	// And yet no single ring is traced.
	for _, o := range a.Observations {
		if o.Traced {
			t.Fatalf("no individual tracing expected: %+v", o)
		}
	}
}
