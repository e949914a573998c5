package selector

import (
	"errors"
	"testing"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
)

func TestExactModularOnExample3(t *testing.T) {
	p := example3Problem(t, diversity.Requirement{C: 1, L: 4})
	opt, err := ExactModular(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Example 3 optimum is s1∪s3 (size 8).
	want := chain.NewTokenSet(1, 2, 3, 4, 5, 6, 11, 12)
	if !opt.Tokens.Equal(want) {
		t.Fatalf("ExactModular = %v (size %d), want s1∪s3 = %v", opt.Tokens, opt.Size(), want)
	}
	// The approximation algorithms must not beat the optimum.
	for name, run := range map[string]func(*Problem) (Result, error){
		"Progressive": Progressive, "Game": Game, "Smallest": Smallest,
	} {
		res, err := run(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Size() < opt.Size() {
			t.Fatalf("%s beat the exact optimum: %d < %d", name, res.Size(), opt.Size())
		}
	}
}

func TestExactModularInfeasible(t *testing.T) {
	origin := originOf(map[chain.TokenID]chain.TxID{1: 1, 2: 1})
	fresh := chain.NewTokenSet(1, 2)
	p := mustProblem(t, NewTable(fresh, nil, fresh, origin), 1, diversity.Requirement{C: 1, L: 2})
	if _, err := ExactModular(p, 0); !errors.Is(err, ErrNoEligible) {
		t.Fatalf("err = %v", err)
	}
}

func TestExactModularCap(t *testing.T) {
	origin := originOf(map[chain.TokenID]chain.TxID{})
	var fresh chain.TokenSet
	for i := chain.TokenID(0); i < 25; i++ {
		fresh = append(fresh, i)
	}
	p := mustProblem(t, NewTable(fresh, nil, fresh, origin), 0, diversity.Requirement{C: 5, L: 1})
	if _, err := ExactModular(p, 10); !errors.Is(err, ErrModularTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestExactModularValidatesReq(t *testing.T) {
	p := &Problem{Req: diversity.Requirement{C: -1, L: 0}}
	if _, err := ExactModular(p, 0); err == nil {
		t.Fatal("invalid requirement must error")
	}
}
