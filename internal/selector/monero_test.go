package selector

import (
	"errors"
	"math/rand"
	"testing"

	"tokenmagic/internal/chain"
)

func pool(from, to int) chain.TokenSet {
	var s chain.TokenSet
	for i := from; i <= to; i++ {
		s = append(s, chain.TokenID(i))
	}
	return s
}

func TestMoneroSampleShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := MoneroParams{Zeta: 11, Recent: pool(0, 49), Older: pool(50, 199)}
	res, err := MoneroSample(25, p, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 11 {
		t.Fatalf("size = %d, want ζ=11", res.Size())
	}
	if !res.Tokens.Contains(25) {
		t.Fatal("ring must contain the target")
	}
	// Half of the 10 mixins from the recent pool.
	recentCount := 0
	for _, tok := range res.Tokens {
		if tok != 25 && tok < 50 {
			recentCount++
		}
	}
	if recentCount != 5 {
		t.Fatalf("recent mixins = %d, want 5", recentCount)
	}
}

func TestMoneroSampleBackfill(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Older pool too small: spill into recent.
	p := MoneroParams{Zeta: 11, Recent: pool(0, 49), Older: pool(50, 52)}
	res, err := MoneroSample(3, p, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 11 {
		t.Fatalf("size = %d", res.Size())
	}
	// Empty recent pool: everything from older.
	p = MoneroParams{Zeta: 5, Older: pool(0, 30)}
	res, err = MoneroSample(3, p, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 5 {
		t.Fatalf("size = %d", res.Size())
	}
}

func TestMoneroSampleErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if _, err := MoneroSample(0, MoneroParams{Zeta: 1}, rng); err == nil {
		t.Fatal("ζ<2 must error")
	}
	p := MoneroParams{Zeta: 11, Recent: pool(0, 3)}
	if _, err := MoneroSample(0, p, rng); !errors.Is(err, ErrUniverseTooSmall) {
		t.Fatalf("err = %v, want ErrUniverseTooSmall", err)
	}
}

func TestMoneroSampleDistinctTokens(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := MoneroParams{Zeta: 8, Recent: pool(0, 9), Older: pool(10, 19)}
	for i := 0; i < 50; i++ {
		res, err := MoneroSample(5, p, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Tokens.Equal(chain.NewTokenSet(res.Tokens...)) {
			t.Fatalf("ring has duplicates or disorder: %v", res.Tokens)
		}
		if res.Size() != 8 {
			t.Fatalf("size = %d", res.Size())
		}
	}
}
