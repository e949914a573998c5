package selector

import (
	"errors"
	"testing"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
	"tokenmagic/internal/rsgraph"
)

// Paper Example 1: T={t1..t4}; r1=r2={t1,t2}; t1,t3 from h1; t2 from h2;
// t4 from h3. Consuming t3, BFS must find the paper's "good" answer
// r3={t3,t4}: minimum size, diverse, non-eliminating.
func TestBFSPaperExample1(t *testing.T) {
	origin := originOf(map[chain.TokenID]chain.TxID{1: 1, 2: 2, 3: 1, 4: 3})
	p := &ExactProblem{
		Target:   3,
		Universe: chain.NewTokenSet(1, 2, 3, 4),
		Rings: []chain.RingRecord{
			{ID: 0, Tokens: chain.NewTokenSet(1, 2), C: 10, L: 1, Pos: 0},
			{ID: 1, Tokens: chain.NewTokenSet(1, 2), C: 10, L: 1, Pos: 1},
		},
		Origin: origin,
		Req:    diversity.Requirement{C: 10, L: 2},
	}
	res, err := BFS(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Tokens.Equal(chain.NewTokenSet(3, 4)) {
		t.Fatalf("BFS = %v, want {t3,t4}", res.Tokens)
	}
}

// The homogeneous option {t1,t3} must be rejected (homogeneity attack): with
// a universe lacking t4, and {t2,t3} rejected by chain reaction, the only
// resort is the full ring {t1,t2,t3}... which still fails because consumed
// t1/t2 elimination reveals h1. With requirement ℓ=2 the solver must find
// that nothing works.
func TestBFSDetectsNoEligible(t *testing.T) {
	origin := originOf(map[chain.TokenID]chain.TxID{1: 1, 2: 2, 3: 1})
	p := &ExactProblem{
		Target:   3,
		Universe: chain.NewTokenSet(1, 2, 3),
		Rings: []chain.RingRecord{
			{ID: 0, Tokens: chain.NewTokenSet(1, 2), C: 10, L: 1, Pos: 0},
			{ID: 1, Tokens: chain.NewTokenSet(1, 2), C: 10, L: 1, Pos: 1},
		},
		Origin: origin,
		Req:    diversity.Requirement{C: 10, L: 2},
	}
	// {t2,t3}: t1 and t2 are provably consumed by the twin rings, so t2 is
	// eliminated → non-eliminated constraint fails. {t1,t3}: same, plus
	// homogeneity. {t1,t2,t3}: every combination forces t3 consumed in the
	// new ring → t1/t2 eliminated from it.
	if _, err := BFS(p); !errors.Is(err, ErrNoEligible) {
		t.Fatalf("err = %v, want ErrNoEligible", err)
	}
}

func TestBFSMinimality(t *testing.T) {
	// No existing rings; 6 tokens over 3 HTs; requirement (2,2): q1 < 2·tail.
	// Ring {target, anything from another HT} of size 2 suffices.
	origin := originOf(map[chain.TokenID]chain.TxID{0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 2})
	p := &ExactProblem{
		Target:   0,
		Universe: chain.NewTokenSet(0, 1, 2, 3, 4, 5),
		Origin:   origin,
		Req:      diversity.Requirement{C: 2, L: 2},
	}
	res, err := BFS(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 2 {
		t.Fatalf("BFS size = %d, want 2 (minimal)", res.Size())
	}
	if !res.Tokens.Contains(0) {
		t.Fatalf("result %v must contain target", res.Tokens)
	}
	if !diversity.SatisfiesTokens(res.Tokens, origin, p.Req) {
		t.Fatal("result must satisfy requirement")
	}
}

func TestBFSValidatesInput(t *testing.T) {
	origin := originOf(nil)
	p := &ExactProblem{Target: 9, Universe: chain.NewTokenSet(1), Origin: origin,
		Req: diversity.Requirement{C: 1, L: 1}}
	if _, err := BFS(p); err == nil {
		t.Fatal("target outside universe must error")
	}
	p = &ExactProblem{Target: 1, Universe: chain.NewTokenSet(1), Origin: origin,
		Req: diversity.Requirement{C: 0, L: 1}}
	if _, err := BFS(p); err == nil {
		t.Fatal("invalid requirement must error")
	}
}

// BFS results always beat-or-match the practical solvers in size when both
// succeed, since BFS is exact over a strictly larger solution space.
func TestBFSAtMostProgressive(t *testing.T) {
	origin := originOf(map[chain.TokenID]chain.TxID{
		0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 2, 6: 3, 7: 3,
	})
	universe := chain.NewTokenSet(0, 1, 2, 3, 4, 5, 6, 7)
	rings := []chain.RingRecord{
		{ID: 0, Tokens: chain.NewTokenSet(0, 2), C: 1, L: 1, Pos: 0},
	}
	req := diversity.Requirement{C: 2, L: 2}

	exact, err := BFS(&ExactProblem{Target: 4, Universe: universe, Rings: rings,
		Origin: origin, Req: req, Enum: rsgraph.EnumOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	supers, fresh := Decompose(rings, universe)
	p := mustProblem(t, NewTable(universe, supers, fresh, origin), 4, req)
	approx, err := Progressive(p)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Size() > approx.Size() {
		t.Fatalf("exact %d > approx %d", exact.Size(), approx.Size())
	}
}

func TestForEachIndexSubset(t *testing.T) {
	var count int
	err := forEachIndexSubset(4, 2, func(idx []int) (bool, error) {
		if len(idx) != 2 || idx[0] >= idx[1] || idx[1] > 3 {
			t.Fatalf("bad subset %v", idx)
		}
		count++
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 6 {
		t.Fatalf("C(4,2) = 6, got %d", count)
	}
	// k > n: no calls, no error.
	if err := forEachIndexSubset(4, 9, func([]int) (bool, error) {
		t.Fatal("must not be called")
		return false, nil
	}); err != nil {
		t.Fatal(err)
	}
	// Early stop.
	count = 0
	_ = forEachIndexSubset(4, 1, func([]int) (bool, error) {
		count++
		return false, nil
	})
	if count != 1 {
		t.Fatalf("early stop, got %d calls", count)
	}
}

// TestBFSWorkCapKeepsCause: an exact search stopped by its enumeration
// work cap reports ErrExactTooLarge and keeps rsgraph's cause.
func TestBFSWorkCapKeepsCause(t *testing.T) {
	origin := originOf(map[chain.TokenID]chain.TxID{1: 1, 2: 2, 3: 1, 4: 3})
	p := &ExactProblem{
		Target:   3,
		Universe: chain.NewTokenSet(1, 2, 3, 4),
		Rings: []chain.RingRecord{
			{ID: 0, Tokens: chain.NewTokenSet(1, 2), C: 10, L: 1, Pos: 0},
			{ID: 1, Tokens: chain.NewTokenSet(1, 2), C: 10, L: 1, Pos: 1},
		},
		Origin: origin,
		Req:    diversity.Requirement{C: 10, L: 2},
		Enum:   rsgraph.EnumOptions{MaxSteps: 1},
	}
	_, err := BFS(p)
	if !errors.Is(err, ErrExactTooLarge) || !errors.Is(err, rsgraph.ErrWorkCapExceeded) {
		t.Fatalf("err = %v, want ErrExactTooLarge wrapping rsgraph.ErrWorkCapExceeded", err)
	}
}
