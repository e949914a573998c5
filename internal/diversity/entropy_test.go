package diversity

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEntropyKnownValues(t *testing.T) {
	h := NewHistogram(2)
	if h.Entropy() != 0 || h.EffectiveClasses() != 0 {
		t.Fatal("empty histogram: entropy and effective classes must be 0")
	}
	h.AddN(1, 4)
	if h.Entropy() != 0 {
		t.Fatalf("single class entropy = %v", h.Entropy())
	}
	// Uniform over 4 classes: entropy = 2 bits, effective classes = 4.
	u := NewHistogram(4)
	for i := 0; i < 4; i++ {
		u.AddN(i, 3)
	}
	if math.Abs(u.Entropy()-2) > 1e-9 {
		t.Fatalf("uniform-4 entropy = %v", u.Entropy())
	}
	if math.Abs(u.EffectiveClasses()-4) > 1e-9 {
		t.Fatalf("effective classes = %v", u.EffectiveClasses())
	}
}

func TestSatisfiesEntropy(t *testing.T) {
	u := NewHistogram(4)
	for i := 0; i < 4; i++ {
		u.Add(i)
	}
	if !u.SatisfiesEntropy(4) {
		t.Fatal("uniform-4 must be entropy 4-diverse")
	}
	if u.SatisfiesEntropy(5) {
		t.Fatal("uniform-4 cannot be entropy 5-diverse")
	}
	// Skew: 4 classes but dominated by one.
	s := NewHistogram(4)
	s.AddN(0, 9)
	s.AddN(1, 1)
	s.AddN(2, 1)
	s.AddN(3, 1)
	if s.SatisfiesEntropy(4) {
		t.Fatal("skewed distribution must fail entropy 4-diversity")
	}
	// Vacuous cases.
	if !NewHistogram(0).SatisfiesEntropy(10) {
		t.Fatal("empty histogram vacuously satisfies")
	}
	if !s.SatisfiesEntropy(1) {
		t.Fatal("ℓ=1 is always satisfied")
	}
}

// Property: entropy ℓ-diversity implies at least ℓ distinct classes
// (entropy ≤ log2(θ)), i.e. it is at least as demanding as "distinct
// ℓ-diversity".
func TestEntropyImpliesDistinct(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewHistogram(8)
		for i := 0; i < 1+rng.Intn(30); i++ {
			h.Add(rng.Intn(8))
		}
		l := 2 + rng.Intn(5)
		if h.SatisfiesEntropy(l) {
			return h.Classes() >= l
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: effective classes never exceed actual classes.
func TestEffectiveClassesBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewHistogram(6)
		for i := 0; i < 1+rng.Intn(30); i++ {
			h.Add(rng.Intn(6))
		}
		return h.EffectiveClasses() <= float64(h.Classes())+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
