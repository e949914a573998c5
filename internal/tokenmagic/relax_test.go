package tokenmagic

import (
	"context"
	"errors"
	"testing"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
)

func TestGenerateRSRelaxed(t *testing.T) {
	// 6 tokens from only 3 HTs: ℓ=6 impossible, ℓ=3 fine.
	l := chain.NewLedger()
	b := l.BeginBlock()
	for i := 0; i < 3; i++ {
		if _, err := l.AddTx(b, 2); err != nil {
			t.Fatal(err)
		}
	}
	f, err := New(l, Config{Lambda: 10, Headroom: false, Algorithm: Progressive}, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Strict requirement fails outright.
	strict := diversity.Requirement{C: 1, L: 6}
	if _, err := f.GenerateRS(0, strict); err == nil {
		t.Fatal("ℓ=6 should be infeasible")
	}

	// Relaxation ladder (decrement ℓ) reaches a feasible requirement.
	res, achieved, err := f.GenerateRSRelaxed(context.Background(), 0, strict, RelaxationPolicy{LStep: 1})
	if err != nil {
		t.Fatal(err)
	}
	if achieved.L >= strict.L {
		t.Fatalf("achieved %v should be weaker than requested %v", achieved, strict)
	}
	if !diversity.SatisfiesTokens(res.Tokens, l.OriginFunc(), achieved) {
		t.Fatal("result must satisfy the achieved requirement")
	}
	if !res.Tokens.Contains(0) {
		t.Fatal("target missing")
	}
}

func TestGenerateRSRelaxedExhausted(t *testing.T) {
	// Single-HT universe: nothing helps.
	l := chain.NewLedger()
	b := l.BeginBlock()
	if _, err := l.AddTx(b, 4); err != nil {
		t.Fatal(err)
	}
	f, err := New(l, Config{Lambda: 10, Headroom: false, Algorithm: Progressive}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = f.GenerateRSRelaxed(context.Background(), 0, diversity.Requirement{C: 1, L: 4}, RelaxationPolicy{LStep: 1, MinL: 2, MaxSteps: 5})
	if err == nil {
		t.Fatal("ladder must exhaust on a single-HT universe")
	}
}

func TestGenerateRSRelaxedNoPolicy(t *testing.T) {
	// A policy that cannot change the requirement stops immediately.
	l := chain.NewLedger()
	b := l.BeginBlock()
	if _, err := l.AddTx(b, 4); err != nil {
		t.Fatal(err)
	}
	f, err := New(l, Config{Lambda: 10, Headroom: false, Algorithm: Progressive}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = f.GenerateRSRelaxed(context.Background(), 0, diversity.Requirement{C: 1, L: 4}, RelaxationPolicy{})
	if err == nil {
		t.Fatal("empty policy must fail on infeasible input")
	}
}

func TestGenerateRSRelaxedImmediateSuccess(t *testing.T) {
	l := chain.NewLedger()
	b := l.BeginBlock()
	for i := 0; i < 5; i++ {
		if _, err := l.AddTx(b, 1); err != nil {
			t.Fatal(err)
		}
	}
	f, err := New(l, Config{Lambda: 10, Headroom: false, Algorithm: Progressive}, nil)
	if err != nil {
		t.Fatal(err)
	}
	req := diversity.Requirement{C: 2, L: 2}
	res, achieved, err := f.GenerateRSRelaxed(context.Background(), 0, req, RelaxationPolicy{LStep: 1})
	if err != nil {
		t.Fatal(err)
	}
	if achieved != req {
		t.Fatalf("achieved %v, want the original %v", achieved, req)
	}
	if res.Size() < 2 {
		t.Fatalf("size = %d", res.Size())
	}
}

func TestGenerateRSRelaxedPropagatesHardErrors(t *testing.T) {
	l := chain.NewLedger()
	b := l.BeginBlock()
	if _, err := l.AddTx(b, 2); err != nil {
		t.Fatal(err)
	}
	f, err := New(l, Config{Lambda: 10, Headroom: false, Algorithm: Progressive}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Unknown target is a hard error, not a relaxation case.
	_, _, err = f.GenerateRSRelaxed(context.Background(), 999, diversity.Requirement{C: 1, L: 2}, RelaxationPolicy{LStep: 1})
	if err == nil || errors.Is(err, ErrLiveness) {
		t.Fatalf("err = %v, want a hard lookup error", err)
	}
}
