package dtrs

import (
	"math/rand"
	"testing"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
	"tokenmagic/internal/rsgraph"
)

func ring(id int, toks ...chain.TokenID) rsgraph.Ring {
	return rsgraph.Ring{ID: chain.RSID(id), Tokens: chain.NewTokenSet(toks...)}
}

func originOf(hts map[chain.TokenID]chain.TxID) func(chain.TokenID) chain.TxID {
	return func(t chain.TokenID) chain.TxID {
		if h, ok := hts[t]; ok {
			return h
		}
		return chain.NoTx
	}
}

// Paper Section 2.3 example: r1={t1,t2,t5}, r2={t1,t3}, r3={t1,t3},
// r4={t2,t4}, r5={t4,t5,t6}, with t5, t6 from the same HT h1.
// {<t2,r1>} is a DTRS of r5: if t2 is consumed in r1, t4 must be consumed in
// r4, so r5 consumes t5 or t6 — both from h1.
func TestExactPaperSection23(t *testing.T) {
	in := rsgraph.NewInstance([]rsgraph.Ring{
		ring(1, 1, 2, 5), // index 0
		ring(2, 1, 3),    // index 1
		ring(3, 1, 3),    // index 2
		ring(4, 2, 4),    // index 3
		ring(5, 4, 5, 6), // index 4
	})
	origin := originOf(map[chain.TokenID]chain.TxID{
		1: 10, 2: 20, 3: 30, 4: 40, 5: 1, 6: 1, // t5,t6 share h1
	})
	ds, err := Exact(in, 4, origin, rsgraph.EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Look for the DTRS {<t2, ring index 0>} determining h1.
	found := false
	for _, d := range ds {
		if len(d.Pairs) == 1 && d.Pairs[0] == (Pair{Ring: 0, Token: 2}) {
			found = true
			if d.Determines != 1 {
				t.Fatalf("DTRS {<t2,r1>} determines %v, want h1", d.Determines)
			}
		}
	}
	if !found {
		t.Fatalf("missing DTRS {<t2,r1>}; got %v", ds)
	}
	// Every returned DTRS must be minimal: no other DTRS is a strict subset.
	for i, a := range ds {
		for j, b := range ds {
			if i == j {
				continue
			}
			if isSubsetPairs(a.Pairs, b.Pairs) && len(a.Pairs) < len(b.Pairs) {
				t.Fatalf("DTRS %v is a strict subset of returned DTRS %v", a, b)
			}
		}
	}
}

func isSubsetPairs(a, b []Pair) bool {
	for _, p := range a {
		ok := false
		for _, q := range b {
			if p == q {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// Homogeneity: if every token of the target ring is from one HT, the empty
// DTRS determines it.
func TestExactHomogeneity(t *testing.T) {
	in := rsgraph.NewInstance([]rsgraph.Ring{ring(0, 1, 2)})
	origin := originOf(map[chain.TokenID]chain.TxID{1: 7, 2: 7})
	ds, err := Exact(in, 0, origin, rsgraph.EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 1 || len(ds[0].Pairs) != 0 || ds[0].Determines != 7 {
		t.Fatalf("want single empty DTRS determining h7, got %v", ds)
	}
}

func TestExactTargetOutOfRange(t *testing.T) {
	in := rsgraph.NewInstance([]rsgraph.Ring{ring(0, 1)})
	if _, err := Exact(in, 5, originOf(nil), rsgraph.EnumOptions{}); err == nil {
		t.Fatal("expected error for out-of-range target")
	}
}

func TestExactInfeasible(t *testing.T) {
	in := rsgraph.NewInstance([]rsgraph.Ring{ring(0, 1), ring(1, 1)})
	if _, err := Exact(in, 0, originOf(map[chain.TokenID]chain.TxID{1: 1}), rsgraph.EnumOptions{}); err == nil {
		t.Fatal("expected ErrNoAssignment")
	}
}

// Section 2.5 worked example: r1={t1,t2}, r2={t2,t3}, r3={t1,t3,t4};
// t1, t3 from h1, t4 from h2, t2 from its own HT. The only DTRS of r3 is
// {<t1,r1>, <t3,r2>} (forcing both h1 tokens consumed leaves t4 → h2).
func TestExactPaperSection25(t *testing.T) {
	in := rsgraph.NewInstance([]rsgraph.Ring{
		ring(1, 1, 2),    // index 0
		ring(2, 2, 3),    // index 1
		ring(3, 1, 3, 4), // index 2 (target)
	})
	origin := originOf(map[chain.TokenID]chain.TxID{1: 1, 2: 5, 3: 1, 4: 2})
	ds, err := Exact(in, 2, origin, rsgraph.EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 1 {
		t.Fatalf("want exactly 1 DTRS, got %v", ds)
	}
	d := ds[0]
	want := []Pair{{Ring: 0, Token: 1}, {Ring: 1, Token: 3}}
	if len(d.Pairs) != 2 || d.Pairs[0] != want[0] || d.Pairs[1] != want[1] {
		t.Fatalf("DTRS pairs = %v, want %v", d.Pairs, want)
	}
	if d.Determines != 2 {
		t.Fatalf("determines %v, want h2", d.Determines)
	}
	// Its token set is {t1, t3} — both from h1 → single-class histogram.
	if !d.Tokens().Equal(chain.NewTokenSet(1, 3)) {
		t.Fatalf("DTRS tokens = %v", d.Tokens())
	}
	// Per the paper: (2,1)-diversity holds for the DTRS (2 < 2·2) but
	// (3,2) fails (2 ≥ 3·0).
	ok, err := AllSatisfyExact(in, 2, origin, diversity.Requirement{C: 2, L: 1}, rsgraph.EnumOptions{})
	if err != nil || !ok {
		t.Fatalf("(2,1) exact check = %v, %v; want true", ok, err)
	}
	ok, err = AllSatisfyExact(in, 2, origin, diversity.Requirement{C: 3, L: 2}, rsgraph.EnumOptions{})
	if err != nil || ok {
		t.Fatalf("(3,2) exact check = %v, %v; want false", ok, err)
	}
}

func TestClosedFormSets(t *testing.T) {
	// Ring {1,2,3,4}: t1,t2 from h1; t3 from h2; t4 from h3. |ring| = 4.
	origin := originOf(map[chain.TokenID]chain.TxID{1: 1, 2: 1, 3: 2, 4: 3})
	ringToks := chain.NewTokenSet(1, 2, 3, 4)

	// v = 4: every HT determinable.
	cfs := ClosedFormSets(ringToks, 4, origin)
	if len(cfs) != 3 {
		t.Fatalf("v=4 should expose 3 closed forms, got %v", cfs)
	}
	for _, cf := range cfs {
		switch cf.HT {
		case 1:
			if !cf.Psi.Equal(chain.NewTokenSet(3, 4)) {
				t.Fatalf("ψ(h1) = %v", cf.Psi)
			}
		case 2:
			if !cf.Psi.Equal(chain.NewTokenSet(1, 2, 4)) {
				t.Fatalf("ψ(h2) = %v", cf.Psi)
			}
		case 3:
			if !cf.Psi.Equal(chain.NewTokenSet(1, 2, 3)) {
				t.Fatalf("ψ(h3) = %v", cf.Psi)
			}
		}
	}

	// v = 3: h1 needs v ≥ 4−2+1 = 3 (ok); h2/h3 need v ≥ 4 (not ok).
	cfs = ClosedFormSets(ringToks, 3, origin)
	if len(cfs) != 1 || cfs[0].HT != 1 {
		t.Fatalf("v=3 should expose only h1, got %v", cfs)
	}

	// v = 1: nothing determinable.
	if cfs := ClosedFormSets(ringToks, 1, origin); len(cfs) != 0 {
		t.Fatalf("v=1 should expose nothing, got %v", cfs)
	}
}

func TestAllSatisfyClosedForm(t *testing.T) {
	// ψ(h1) = {t3, t4} has HTs {h2, h3}: uniform 2 classes.
	origin := originOf(map[chain.TokenID]chain.TxID{1: 1, 2: 1, 3: 2, 4: 3})
	ringToks := chain.NewTokenSet(1, 2, 3, 4)
	// (1.5, 2): ψ(h1) → 1 < 1.5·1 ok; ψ(h2) = {1,2,4} → q=[2,1], 2 < 1.5·1? no.
	if AllSatisfyClosedForm(ringToks, 4, origin, diversity.Requirement{C: 1.5, L: 2}) {
		t.Fatal("(1.5,2) should fail via ψ(h2)")
	}
	// With v=3 only ψ(h1) is realisable and it passes (1.5,2).
	if !AllSatisfyClosedForm(ringToks, 3, origin, diversity.Requirement{C: 1.5, L: 2}) {
		t.Fatal("(1.5,2) should pass when only ψ(h1) is realisable")
	}
}

// TestAllSatisfyClosedFormSparseHTs gives rings sparse, huge HTs (about
// 10⁹ + k) and requires AllSatisfyClosedForm to agree with two oracles:
// the ψ sets of ClosedFormSets checked one by one, and the same ring with
// its HTs relabelled densely 0, 1, 2, …. The histogram interns HTs as class
// ids, so their magnitude must never matter.
func TestAllSatisfyClosedFormSparseHTs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	reqs := []diversity.Requirement{{C: 0.6, L: 2}, {C: 1, L: 3}, {C: 2, L: 4}, {C: 0.3, L: 2}}
	verdicts := map[bool]int{}
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(19)
		sparse := map[chain.TokenID]chain.TxID{}
		dense := map[chain.TokenID]chain.TxID{}
		rank := map[chain.TxID]chain.TxID{}
		var toks []chain.TokenID
		for len(toks) < n {
			tok := chain.TokenID(rng.Intn(10000))
			if _, dup := sparse[tok]; dup {
				continue
			}
			ht := chain.TxID(1_000_000_000 + 104729*rng.Intn(1+rng.Intn(8)))
			if _, ok := rank[ht]; !ok {
				rank[ht] = chain.TxID(len(rank))
			}
			sparse[tok], dense[tok] = ht, rank[ht]
			toks = append(toks, tok)
		}
		ringToks := chain.NewTokenSet(toks...)
		v := 1 + rng.Intn(n)
		origin := originOf(sparse)
		for _, req := range reqs {
			got := AllSatisfyClosedForm(ringToks, v, origin, req)
			want := true
			for _, cf := range ClosedFormSets(ringToks, v, origin) {
				want = want && diversity.SatisfiesTokens(cf.Psi, origin, req)
			}
			if got != want {
				t.Fatalf("trial %d: AllSatisfyClosedForm(%v, v=%d, %v) = %v, ψ-by-ψ oracle %v", trial, ringToks, v, req, got, want)
			}
			if d := AllSatisfyClosedForm(ringToks, v, originOf(dense), req); d != got {
				t.Fatalf("trial %d: sparse HTs give %v, dense relabelling %v", trial, got, d)
			}
			verdicts[got]++
		}
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Fatalf("verdicts %v, want both", verdicts)
	}
}

// Theorem 6.4 cross-check: if the ring satisfies (c, ℓ+1), every closed-form
// DTRS satisfies (c, ℓ).
func TestHeadroomTheorem64ClosedForm(t *testing.T) {
	origins := []map[chain.TokenID]chain.TxID{
		{1: 1, 2: 1, 3: 2, 4: 3, 5: 4},
		{1: 1, 2: 2, 3: 3, 4: 4, 5: 5},
		{1: 1, 2: 1, 3: 1, 4: 2, 5: 3},
	}
	reqs := []diversity.Requirement{{C: 0.6, L: 2}, {C: 1, L: 2}, {C: 2, L: 3}}
	for _, om := range origins {
		origin := originOf(om)
		ringToks := chain.NewTokenSet(1, 2, 3, 4, 5)
		for _, req := range reqs {
			if !diversity.SatisfiesTokens(ringToks, origin, req.WithHeadroom()) {
				continue // premise not met
			}
			for _, cf := range ClosedFormSets(ringToks, len(ringToks), origin) {
				if !diversity.SatisfiesTokens(cf.Psi, origin, req) {
					t.Fatalf("Theorem 6.4 violated: ring %v sat %v+headroom but ψ(%v)=%v fails %v",
						ringToks, req, cf.HT, cf.Psi, req)
				}
			}
		}
	}
}

// Cross-validate closed form against exact enumeration: with full subset
// count, every exact DTRS token set must appear among the closed forms when
// the instance is "one super ring consumed by v rings" — i.e. v identical
// rings over the same token set.
func TestClosedFormMatchesExactOnSaturatedSuperRing(t *testing.T) {
	// 3 identical rings over {1,2,3}: v = 3 = |ring|. t1,t2 from h1, t3 h2.
	rings := []rsgraph.Ring{ring(0, 1, 2, 3), ring(1, 1, 2, 3), ring(2, 1, 2, 3)}
	in := rsgraph.NewInstance(rings)
	origin := originOf(map[chain.TokenID]chain.TxID{1: 1, 2: 1, 3: 2})

	ds, err := Exact(in, 0, origin, rsgraph.EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfs := ClosedFormSets(chain.NewTokenSet(1, 2, 3), 3, origin)
	// Every exact DTRS's token set must be a subset of some ψ with the same
	// determined HT (closed forms are the maximal revealed sets).
	for _, d := range ds {
		ok := false
		for _, cf := range cfs {
			if cf.HT == d.Determines && d.Tokens().SubsetOf(cf.Psi) {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("exact DTRS %v not covered by closed forms %v", d, cfs)
		}
	}
}

// ClosedForm is one Theorem-6.1 DTRS token set: revealing the consumption of
// every token in Psi determines that the target ring's consumed token came
// from HT.
type ClosedForm struct {
	HT  chain.TxID
	Psi chain.TokenSet
}

// ClosedFormSets applies Theorem 6.1 set by set: the token-set oracle that
// AllSatisfyClosedForm's histogram evaluation is checked against. ringTokens is the target ring's token
// set; subsetCount is v, the number of rings (including the super ring
// itself) recorded as subsets of the ring's super ring. For each HT h_j
// appearing in the ring, a DTRS with token set ψ = ring \ T̃(h_j) exists iff
// v ≥ |ring| − |T̃(h_j)| + 1.
func ClosedFormSets(ringTokens chain.TokenSet, subsetCount int, origin func(chain.TokenID) chain.TxID) []ClosedForm {
	byHT := make(map[chain.TxID]chain.TokenSet)
	var order []chain.TxID
	for _, t := range ringTokens {
		h := origin(t)
		if _, ok := byHT[h]; !ok {
			order = append(order, h)
		}
		byHT[h] = append(byHT[h], t) // ring iterated sorted → stays sorted
	}
	var out []ClosedForm
	for _, h := range order {
		same := byHT[h]
		if subsetCount < len(ringTokens)-len(same)+1 {
			continue // Theorem 6.1: no DTRS can determine h
		}
		out = append(out, ClosedForm{HT: h, Psi: ringTokens.Minus(same)})
	}
	return out
}
