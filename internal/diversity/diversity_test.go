package diversity

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tokenmagic/internal/chain"
)

func originFromSlice(hts []chain.TxID) func(chain.TokenID) chain.TxID {
	return func(t chain.TokenID) chain.TxID {
		if t < 0 || int(t) >= len(hts) {
			return chain.NoTx
		}
		return hts[t]
	}
}

func TestRequirementValidate(t *testing.T) {
	cases := []struct {
		req Requirement
		ok  bool
	}{
		{Requirement{C: 0.5, L: 2}, true},
		{Requirement{C: 1, L: 1}, true},
		{Requirement{C: 0, L: 2}, false},
		{Requirement{C: -1, L: 2}, false},
		{Requirement{C: 0.5, L: 0}, false},
	}
	for _, c := range cases {
		err := c.req.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%v) err = %v, want ok=%v", c.req, err, c.ok)
		}
	}
}

func TestWithHeadroom(t *testing.T) {
	r := Requirement{C: 0.6, L: 3}
	h := r.WithHeadroom()
	if h.C != 0.6 || h.L != 4 {
		t.Fatalf("WithHeadroom = %v", h)
	}
}

// Paper Section 2.5 worked example: r3 = {t1, t3, t4} with t1,t3 from h1 and
// t4 from h2 gives frequencies [2,1]. (2,1)-diversity holds (2 < 2·(2+1));
// (3,2)-diversity holds for the RS itself (2 < 3·1).
func TestPaperSection25Example(t *testing.T) {
	hts := []chain.TxID{0, 1, 0, 1} // unused baseline
	_ = hts
	h := NewHistogram(3)
	h.AddN(1, 2) // h1 appears twice
	h.AddN(2, 1) // h2 once

	if !h.Satisfies(Requirement{C: 2, L: 1}) {
		t.Error("(2,1) should be satisfied: 2 < 2*(2+1)")
	}
	if !h.Satisfies(Requirement{C: 3, L: 2}) {
		t.Error("(3,2) should be satisfied for the RS itself: 2 < 3*1")
	}
	// DTRS histogram {h1:2} violates (3,2): 2 >= 3*0.
	d := NewHistogram(3)
	d.AddN(1, 2)
	if d.Satisfies(Requirement{C: 3, L: 2}) {
		t.Error("(3,2) should fail on single-class histogram")
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(10)
	if h.Total() != 0 || h.Classes() != 0 || h.MaxCount() != 0 || h.MinCount() != 0 {
		t.Fatal("empty histogram should be all-zero")
	}
	h.Add(5)
	h.Add(5)
	h.Add(7)
	if h.Total() != 3 || h.Classes() != 2 {
		t.Fatalf("Total=%d Classes=%d", h.Total(), h.Classes())
	}
	if h.Count(5) != 2 || h.Count(7) != 1 || h.Count(9) != 0 {
		t.Fatal("bad counts")
	}
	if h.MaxCount() != 2 || h.MinCount() != 1 {
		t.Fatalf("Max=%d Min=%d", h.MaxCount(), h.MinCount())
	}
	qs := h.Frequencies()
	if len(qs) != 2 || qs[0] != 2 || qs[1] != 1 {
		t.Fatalf("Frequencies = %v", qs)
	}

	h.Remove(5)
	if h.Count(5) != 1 || h.Total() != 2 {
		t.Fatal("Remove failed")
	}
	h.Remove(5)
	if h.Count(5) != 0 || h.Classes() != 1 {
		t.Fatal("Remove to zero should delete class")
	}
	h.Remove(5) // no-op
	if h.Total() != 1 {
		t.Fatal("Remove on absent class must be a no-op")
	}
}

func TestHistogramClone(t *testing.T) {
	h := NewHistogram(3)
	h.AddN(1, 3)
	c := h.Clone()
	c.Add(2)
	if h.Total() != 3 || c.Total() != 4 {
		t.Fatal("Clone must be independent")
	}
}

func TestHistogramOf(t *testing.T) {
	origin := originFromSlice([]chain.TxID{0, 0, 1, 2, 2, 2})
	h := HistogramOf(chain.NewTokenSet(0, 1, 2, 3, 4, 5), origin)
	if h.Total() != 6 || h.Classes() != 3 {
		t.Fatalf("Total=%d Classes=%d", h.Total(), h.Classes())
	}
	qs := h.Frequencies()
	if qs[0] != 3 || qs[1] != 2 || qs[2] != 1 {
		t.Fatalf("Frequencies = %v", qs)
	}
}

func TestSatisfiesEdgeCases(t *testing.T) {
	// Empty histogram: vacuously satisfied.
	if !NewHistogram(0).Satisfies(Requirement{C: 0.1, L: 10}) {
		t.Error("empty histogram should satisfy vacuously")
	}
	// θ < ℓ: non-empty can never satisfy.
	h := NewHistogram(3)
	h.AddN(1, 1)
	h.AddN(2, 1)
	if h.Satisfies(Requirement{C: 100, L: 3}) {
		t.Error("θ=2 < ℓ=3 must fail regardless of c")
	}
	// Boundary: strict inequality. q1=1, c=1, ℓ=1: 1 < 1*(1) is false.
	one := NewHistogram(2)
	one.Add(1)
	if one.Satisfies(Requirement{C: 1, L: 1}) {
		t.Error("q1 = c*tail must fail (strict inequality)")
	}
	if !one.Satisfies(Requirement{C: 1.5, L: 1}) {
		t.Error("1 < 1.5*1 should pass")
	}
}

func TestSlackSignMatchesSatisfies(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := NewHistogram(6)
		for i := 0; i < r.Intn(20); i++ {
			h.Add(r.Intn(6))
		}
		req := Requirement{C: 0.1 + r.Float64()*2, L: 1 + r.Intn(5)}
		return h.Satisfies(req) == (h.Slack(req) < 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property (monotonicity in c): if (c, ℓ) holds then (c', ℓ) holds for c' ≥ c.
func TestMonotoneInC(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := NewHistogram(8)
		for i := 0; i < 1+r.Intn(25); i++ {
			h.Add(r.Intn(8))
		}
		c := 0.1 + r.Float64()
		l := 1 + r.Intn(4)
		if h.Satisfies(Requirement{C: c, L: l}) {
			return h.Satisfies(Requirement{C: c + 0.5, L: l})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property (monotonicity in ℓ): if (c, ℓ+1) holds then (c, ℓ) holds, because
// the tail sum only grows when ℓ shrinks. This is the headroom direction used
// by the second practical configuration.
func TestMonotoneInL(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := NewHistogram(8)
		for i := 0; i < 1+r.Intn(25); i++ {
			h.Add(r.Intn(8))
		}
		c := 0.1 + r.Float64()
		l := 1 + r.Intn(4)
		if h.Satisfies(Requirement{C: c, L: l + 1}) {
			return h.Satisfies(Requirement{C: c, L: l})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSatisfiesTokens(t *testing.T) {
	origin := originFromSlice([]chain.TxID{0, 1, 2, 3})
	if !SatisfiesTokens(chain.NewTokenSet(0, 1, 2, 3), origin, Requirement{C: 0.5, L: 2}) {
		t.Error("uniform 4-class multiset should satisfy (0.5, 2): 1 < 0.5*3")
	}
	if SatisfiesTokens(chain.NewTokenSet(0, 1), origin, Requirement{C: 0.5, L: 2}) {
		t.Error("1 < 0.5*1 is false")
	}
}
