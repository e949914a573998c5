package rsgraph

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"tokenmagic/internal/chain"
)

func ring(id int, toks ...chain.TokenID) Ring {
	return Ring{ID: chain.RSID(id), Tokens: chain.NewTokenSet(toks...)}
}

func TestCombinationsEmpty(t *testing.T) {
	in := NewInstance(nil)
	got, err := in.AllCombinations(EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(got[0]) != 0 {
		t.Fatalf("empty instance should yield one empty assignment, got %v", got)
	}
}

// Paper Example 1: r1 = r2 = {t1, t2}. Only combinations pair t1/t2 to r1/r2
// in the two possible orders.
func TestCombinationsPaperExample1(t *testing.T) {
	in := NewInstance([]Ring{ring(1, 1, 2), ring(2, 1, 2)})
	got, err := in.AllCombinations(EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("want 2 combinations, got %d: %v", len(got), got)
	}
	for _, a := range got {
		if a[0] == a[1] {
			t.Fatalf("same token consumed twice: %v", a)
		}
	}
}

func TestCombinationsNoAssignment(t *testing.T) {
	// Three rings over two tokens: pigeonhole makes SDR impossible.
	in := NewInstance([]Ring{ring(0, 1, 2), ring(1, 1, 2), ring(2, 1, 2)})
	got, err := in.AllCombinations(EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("want 0 combinations, got %v", got)
	}
	if in.HasAssignment() {
		t.Fatal("HasAssignment should be false")
	}
}

func TestCombinationsCountMatchesPermanent(t *testing.T) {
	// Complete bipartite K3,3: number of SDRs = 3! = 6.
	in := NewInstance([]Ring{ring(0, 1, 2, 3), ring(1, 1, 2, 3), ring(2, 1, 2, 3)})
	got, err := in.AllCombinations(EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("K3,3 should have 6 combinations, got %d", len(got))
	}
}

func TestCombinationsWorkCap(t *testing.T) {
	// 8 rings over 8 shared tokens: 8! = 40320 combinations, capped at 10.
	var rings []Ring
	toks := make([]chain.TokenID, 8)
	for i := range toks {
		toks[i] = chain.TokenID(i)
	}
	for i := 0; i < 8; i++ {
		rings = append(rings, Ring{ID: chain.RSID(i), Tokens: chain.NewTokenSet(toks...)})
	}
	in := NewInstance(rings)
	_, err := in.AllCombinations(EnumOptions{MaxCombinations: 10})
	if !errors.Is(err, ErrWorkCapExceeded) {
		t.Fatalf("want ErrWorkCapExceeded, got %v", err)
	}
	_, err = in.AllCombinations(EnumOptions{MaxSteps: 5})
	if !errors.Is(err, ErrWorkCapExceeded) {
		t.Fatalf("want ErrWorkCapExceeded (steps), got %v", err)
	}
}

func TestCombinationsEarlyStop(t *testing.T) {
	in := NewInstance([]Ring{ring(0, 1, 2, 3), ring(1, 1, 2, 3)})
	n := 0
	err := in.Combinations(EnumOptions{}, func(a Assignment) bool {
		n++
		return n < 2
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("early stop after 2, got %d", n)
	}
}

func TestHasAssignment(t *testing.T) {
	if !NewInstance([]Ring{ring(0, 1), ring(1, 2)}).HasAssignment() {
		t.Fatal("disjoint singletons must be assignable")
	}
	if NewInstance([]Ring{ring(0, 1), ring(1, 1)}).HasAssignment() {
		t.Fatal("two rings over one token must not be assignable")
	}
}

// Paper Example 2: r1={t1,t2,t5}, r2={t1,t3}, r3={t1,t3}, r4={t2,t4},
// r5={t4,t5,t6}. t2 consumed in r1 forces t4 in r4, so r5 ∈ {t5, t6}... the
// instance is feasible and no token is eliminated.
func paperExample2() *Instance {
	return NewInstance([]Ring{
		ring(1, 1, 2, 5),
		ring(2, 1, 3),
		ring(3, 1, 3),
		ring(4, 2, 4),
		ring(5, 4, 5, 6),
	})
}

func TestFeasibleSpentPaperExample2(t *testing.T) {
	in := paperExample2()
	feas := in.FeasibleSpent()
	// r2 and r3 jointly own {t1, t3}; both tokens must be consumed there, so
	// r1 can only consume t2 or t5 — t1 is eliminated from r1.
	if feas[0].Contains(1) {
		t.Fatalf("t1 should be eliminated from r1, feasible = %v", feas[0])
	}
	if !feas[0].Equal(chain.NewTokenSet(2, 5)) {
		t.Fatalf("r1 feasible = %v, want {2,5}", feas[0])
	}
	// r2, r3 keep both options.
	if !feas[1].Equal(chain.NewTokenSet(1, 3)) || !feas[2].Equal(chain.NewTokenSet(1, 3)) {
		t.Fatalf("r2/r3 feasible = %v / %v", feas[1], feas[2])
	}
	// With t1 eliminated from r1 but t2/t5 contested, r4 and r5 keep all.
	if !feas[3].Equal(chain.NewTokenSet(2, 4)) {
		t.Fatalf("r4 feasible = %v", feas[3])
	}
	if !feas[4].Equal(chain.NewTokenSet(4, 5, 6)) {
		t.Fatalf("r5 feasible = %v", feas[4])
	}
	if in.Decompose().AllAdmissible() {
		t.Fatal("instance has an eliminated token (t1 in r1)")
	}
}

func TestDMAllAdmissiblePositive(t *testing.T) {
	// Example 1's "good" final state: r1={t1,t2}, r2={t1,t2}, r3={t3,t4}.
	in := NewInstance([]Ring{ring(1, 1, 2), ring(2, 1, 2), ring(3, 3, 4)})
	if !in.Decompose().AllAdmissible() {
		t.Fatal("want non-eliminated")
	}
}

// Cross-check FeasibleSpent against brute-force enumeration on random small
// instances.
func TestFeasibleSpentMatchesEnumeration(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nTok := 3 + r.Intn(5)
		nRing := 1 + r.Intn(4)
		rings := make([]Ring, nRing)
		for i := range rings {
			var toks []chain.TokenID
			for {
				toks = toks[:0]
				for tk := 0; tk < nTok; tk++ {
					if r.Intn(2) == 0 {
						toks = append(toks, chain.TokenID(tk))
					}
				}
				if len(toks) > 0 {
					break
				}
			}
			rings[i] = Ring{ID: chain.RSID(i), Tokens: chain.NewTokenSet(toks...)}
		}
		in := NewInstance(rings)

		// Brute force via full enumeration.
		want := make([]map[chain.TokenID]bool, nRing)
		for i := range want {
			want[i] = make(map[chain.TokenID]bool)
		}
		err := in.Combinations(EnumOptions{}, func(a Assignment) bool {
			for i, tok := range a {
				want[i][tok] = true
			}
			return true
		})
		if err != nil {
			return false
		}
		got := in.FeasibleSpent()
		for i := range rings {
			if len(got[i]) != len(want[i]) {
				return false
			}
			for _, tok := range got[i] {
				if !want[i][tok] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestRelatedSet(t *testing.T) {
	// Paper Example 2 structure: related set of r4={t2,t4} is all others.
	origin := func(toks ...chain.TokenID) chain.TokenSet { return chain.NewTokenSet(toks...) }
	records := []chain.RingRecord{
		{ID: 0, Tokens: origin(1, 2, 5)},
		{ID: 1, Tokens: origin(1, 3)},
		{ID: 2, Tokens: origin(1, 3)},
		{ID: 3, Tokens: origin(4, 5, 6)},
		{ID: 4, Tokens: origin(8, 9)}, // unrelated island
	}
	got := RelatedSet(records, chain.NewTokenSet(2, 4))
	if len(got) != 4 {
		t.Fatalf("related set size = %d, want 4 (island excluded): %v", len(got), got)
	}
	for _, r := range got {
		if r.ID == 4 {
			t.Fatal("island ring must not be in the related set")
		}
	}
	// Direct layer: rings sharing tokens with the candidate.
	got = RelatedSet(records, chain.NewTokenSet(8))
	if len(got) != 1 || got[0].ID != 4 {
		t.Fatalf("related set = %v", got)
	}
	if got := RelatedSet(records, chain.NewTokenSet(77)); len(got) != 0 {
		t.Fatalf("unrelated candidate should have empty related set, got %v", got)
	}
}

func TestUnionTokens(t *testing.T) {
	in := NewInstance([]Ring{ring(0, 1, 2), ring(1, 2, 3)})
	if got := in.UnionTokens(); !got.Equal(chain.NewTokenSet(1, 2, 3)) {
		t.Fatalf("UnionTokens = %v", got)
	}
}

// UnionTokens collects every ring token once; it must equal the ring-by-ring
// Union fold it replaced, on random instances that include empty rings,
// duplicate rings and no rings at all.
func TestUnionTokensMatchesFold(t *testing.T) {
	fold := func(in *Instance) chain.TokenSet {
		var u chain.TokenSet
		for _, r := range in.Rings {
			u = u.Union(r.Tokens)
		}
		return u
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		var rings []Ring
		for i, n := 0, rng.Intn(8); i < n; i++ {
			if i > 0 && rng.Intn(4) == 0 {
				rings = append(rings, Ring{ID: chain.RSID(i), Tokens: rings[rng.Intn(i)].Tokens})
				continue
			}
			toks := make([]chain.TokenID, rng.Intn(5)) // 0 … 4: empty rings too
			for k := range toks {
				toks[k] = chain.TokenID(rng.Intn(20))
			}
			rings = append(rings, ring(i, toks...))
		}
		in := NewInstance(rings)
		got, want := in.UnionTokens(), fold(in)
		if !got.Equal(want) {
			t.Fatalf("trial %d: UnionTokens = %v, fold = %v over %v", trial, got, want, rings)
		}
		for k := 1; k < len(got); k++ {
			if got[k-1] >= got[k] {
				t.Fatalf("trial %d: UnionTokens %v is not sorted and duplicate-free", trial, got)
			}
		}
	}
}

func TestFromRecords(t *testing.T) {
	records := []chain.RingRecord{
		{ID: 7, Tokens: chain.NewTokenSet(1, 2)},
	}
	in := FromRecords(records)
	if len(in.Rings) != 1 || in.Rings[0].ID != 7 {
		t.Fatalf("FromRecords = %+v", in.Rings)
	}
}

// BenchmarkRelatedSetClosure times the related-set closure TM_B runs once
// per candidate ring.
func BenchmarkRelatedSetClosure(b *testing.B) {
	rng := rand.New(rand.NewSource(99))
	var records []chain.RingRecord
	for i := 0; i < 400; i++ {
		var toks []chain.TokenID
		base := rng.Intn(4000)
		for k := 0; k < 11; k++ {
			toks = append(toks, chain.TokenID((base+k*7)%4000))
		}
		records = append(records, chain.RingRecord{ID: chain.RSID(i), Tokens: chain.NewTokenSet(toks...), Pos: i})
	}
	candidate := chain.NewTokenSet(1, 100, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RelatedSet(records, candidate)
	}
}
