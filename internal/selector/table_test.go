package selector

// Differential tests for the module Table: every Problem it hands out must
// solve exactly like the one oracleProblem builds for the same target, the
// Table must stay untouched by any number of concurrent solves, and a
// per-target Problem must cost a constant number of allocations however
// many modules the Table holds.

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
)

// randomDecomposition builds a seeded batch of n tokens and decomposes it.
// Token ids are spaced by three, so a token's id never equals its position
// in the universe. About 60% of the tokens sit in disjoint rings of 2–6
// tokens, half of which also cover an earlier, strictly smaller ring (a
// non-super ring); the rest are fresh. HTs are drawn skewed towards low
// transaction ids, so modules mix single and repeated HTs.
func randomDecomposition(seed int64, n int) (chain.TokenSet, []Super, chain.TokenSet, func(chain.TokenID) chain.TxID) {
	rng := rand.New(rand.NewSource(seed))
	universe := make(chain.TokenSet, n)
	for i := range universe {
		universe[i] = chain.TokenID(1000 + 3*i)
	}
	hts := make(map[chain.TokenID]chain.TxID, n)
	nTx := n/3 + 1
	for _, t := range universe {
		hts[t] = chain.TxID(rng.Intn(rng.Intn(nTx) + 1))
	}
	perm := rng.Perm(n)
	var rings []chain.RingRecord
	for next := 0; next < n*6/10; {
		size := 2 + rng.Intn(5)
		if next+size > n {
			break
		}
		var group []chain.TokenID
		for _, k := range perm[next : next+size] {
			group = append(group, universe[k])
		}
		next += size
		if rng.Intn(2) == 0 {
			rings = append(rings, rec(len(rings), group[:1+rng.Intn(size-1)]...))
		}
		rings = append(rings, rec(len(rings), group...))
	}
	supers, fresh := Decompose(rings, universe)
	return universe, supers, fresh, originOf(hts)
}

// tableState is a deep copy of everything a Table holds except its origin
// function (funcs never compare equal under reflect.DeepEqual).
func tableState(t *Table) Table {
	c := Table{
		universe: t.universe.Clone(),
		fp: footprints{
			off:     append([]int(nil), t.fp.off...),
			cls:     append([]int(nil), t.fp.cls...),
			ns:      append([]int(nil), t.fp.ns...),
			classes: t.fp.classes,
			tokens:  t.fp.tokens,
		},
		owner: append([]int32(nil), t.owner...),
	}
	for _, m := range t.mods {
		m.Tokens = m.Tokens.Clone()
		c.mods = append(c.mods, m)
	}
	return c
}

// tableSolvers are the practical solvers, with TM_R's rng seeded per call.
var tableSolvers = []struct {
	name  string
	solve func(p *Problem, seed int64) (Result, error)
}{
	{"TM_P", func(p *Problem, _ int64) (Result, error) { return Progressive(p) }},
	{"TM_G", func(p *Problem, _ int64) (Result, error) { return Game(p) }},
	{"TM_S", func(p *Problem, _ int64) (Result, error) { return Smallest(p) }},
	{"TM_R", func(p *Problem, seed int64) (Result, error) {
		return Random(p, rand.New(rand.NewSource(seed)))
	}},
}

type solved struct {
	res Result
	err error
}

// targetSolves is one target's outcome over a shared Table: the
// Table.Problem error, or one result per tableSolvers entry.
type targetSolves struct {
	err    error
	solves []solved
}

// TestTableMatchesOracle solves every target of seeded random batches from
// one shared Table on several goroutines at once, then requires each result
// to equal the solve of oracleProblem's Problem for the same target and the
// Table to be unchanged. On even seeds one extra super ring overlaps two
// modules, so both constructions must also refuse the same targets.
func TestTableMatchesOracle(t *testing.T) {
	reqs := []diversity.Requirement{{C: 0.6, L: 5}, {C: 1, L: 3}, {C: 0.3, L: 2}, {C: 2, L: 8}, {C: 3, L: 20}}
	const workers = 4
	var sat, unsat, refused int
	for seed := int64(1); seed <= 4; seed++ {
		universe, supers, fresh, origin := randomDecomposition(seed, 60+20*int(seed))
		if seed%2 == 0 {
			supers = append(supers, Super{Ring: rec(len(supers), universe[0], universe[len(universe)/2])})
		}
		tab := NewTable(universe, supers, fresh, origin)
		before := tableState(tab)
		for _, req := range reqs {
			got := make([]targetSolves, len(universe))
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for k := w; k < len(universe); k += workers {
						p, err := tab.Problem(universe[k], req)
						if err != nil {
							got[k].err = err
							continue
						}
						for _, s := range tableSolvers {
							res, err := s.solve(p, seed*1000+int64(k))
							got[k].solves = append(got[k].solves, solved{res, err})
						}
					}
				}(w)
			}
			wg.Wait()
			for k, target := range universe {
				p, _, err := oracleProblem(target, supers, fresh, origin, req)
				if (err == nil) != (got[k].err == nil) {
					t.Fatalf("seed %d target %v: oracleProblem err %v, Table.Problem err %v", seed, target, err, got[k].err)
				}
				if err != nil {
					refused++
					continue
				}
				for i, s := range tableSolvers {
					want, wantErr := s.solve(p, seed*1000+int64(k))
					g := got[k].solves[i]
					assertSameResult(t, s.name, g.res, want, g.err, wantErr)
					if g.err == nil {
						sat++
					} else {
						unsat++
					}
				}
			}
		}
		if !reflect.DeepEqual(before, tableState(tab)) {
			t.Fatalf("seed %d: solving mutated the shared table", seed)
		}
	}
	// Every outcome must be exercised, or the comparison proves little.
	if sat == 0 || unsat == 0 || refused == 0 {
		t.Fatalf("%d solved, %d infeasible solves and %d refused targets, want all three", sat, unsat, refused)
	}
	t.Logf("%d solved, %d infeasible, %d refused targets", sat, unsat, refused)
}

// TestTableProblemShape pins what a table-built Problem carries: the
// requirement, the target, the shared table itself and, at the mandatory
// index, the module the oracle finds for the target.
func TestTableProblemShape(t *testing.T) {
	universe, supers, fresh, origin := randomDecomposition(7, 40)
	tab := NewTable(universe, supers, fresh, origin)
	req := diversity.Requirement{C: 1, L: 3}
	for _, target := range universe {
		p, err := tab.Problem(target, req)
		if err != nil {
			t.Fatal(err)
		}
		ref, _, err := oracleProblem(target, supers, fresh, origin, req)
		if err != nil {
			t.Fatal(err)
		}
		if p.tab != tab || !reflect.DeepEqual(p.tab.mods[p.mand], p.Mandatory) {
			t.Fatalf("target %v: Problem does not point into the shared table", target)
		}
		if !reflect.DeepEqual(p.Mandatory, ref.Mandatory) || p.Target != target || p.Req != req {
			t.Fatalf("target %v: Problem %+v, oracle %+v", target, p, ref)
		}
	}
}

// TestTableProblemErrors requires Table.Problem to fail wherever the oracle
// does: an invalid requirement, a target outside the universe, and a target
// two super rings claim.
func TestTableProblemErrors(t *testing.T) {
	origin := originOf(map[chain.TokenID]chain.TxID{})
	universe := chain.NewTokenSet(1, 2, 3, 4, 5)
	supers := []Super{
		{Ring: rec(0, 1, 2, 3)},
		{Ring: rec(1, 3, 4)},
	}
	fresh := chain.NewTokenSet(5)
	tab := NewTable(universe, supers, fresh, origin)
	ok := diversity.Requirement{C: 1, L: 2}
	for _, tc := range []struct {
		target chain.TokenID
		req    diversity.Requirement
	}{
		{1, diversity.Requirement{C: -1, L: 0}},
		{9, ok},
		{3, ok},
	} {
		_, _, refErr := oracleProblem(tc.target, supers, fresh, origin, tc.req)
		_, err := tab.Problem(tc.target, tc.req)
		if refErr == nil || err == nil {
			t.Fatalf("target %v req %v: oracle err %v, Table.Problem err %v", tc.target, tc.req, refErr, err)
		}
	}
	for _, target := range []chain.TokenID{1, 4, 5} {
		if _, err := tab.Problem(target, ok); err != nil {
			t.Fatalf("target %v: %v", target, err)
		}
	}
}

// TestExactModularOnTableProblem requires the exact modular optimum of a
// table-built Problem to equal the oracle's on small seeded batches.
func TestExactModularOnTableProblem(t *testing.T) {
	reqs := []diversity.Requirement{{C: 0.6, L: 3}, {C: 1, L: 4}, {C: 0.3, L: 2}}
	for seed := int64(1); seed <= 6; seed++ {
		universe, supers, fresh, origin := randomDecomposition(seed, 16)
		tab := NewTable(universe, supers, fresh, origin)
		for _, req := range reqs {
			for _, target := range universe {
				p, err := tab.Problem(target, req)
				if err != nil {
					t.Fatal(err)
				}
				ref, _, err := oracleProblem(target, supers, fresh, origin, req)
				if err != nil {
					t.Fatal(err)
				}
				got, gotErr := ExactModular(p, 0)
				want, wantErr := ExactModular(ref, 0)
				if !errors.Is(gotErr, wantErr) {
					t.Fatalf("seed %d target %v: err %v, oracle err %v", seed, target, gotErr, wantErr)
				}
				assertSameResult(t, "ExactModular", got, want, gotErr, wantErr)
			}
		}
	}
}

// TestTableProblemAllocsFlat pins the point of the Table: building one
// target's Problem and solving it with TM_P allocates the same handful of
// objects on a ~100-module and a ~800-module table. The per-target
// construction it replaced (oracleProblem) allocates about four objects
// per module.
func TestTableProblemAllocsFlat(t *testing.T) {
	const maxDiff = 2
	req := diversity.Requirement{C: 1, L: 3}
	allocs := func(n int) (float64, int) {
		universe, supers, fresh, origin := randomDecomposition(11, n)
		tab := NewTable(universe, supers, fresh, origin)
		target := fresh[0]
		if _, err := ProgressiveCtx(context.Background(), mustProblem(t, tab, target, req)); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, func() {
			p, _ := tab.Problem(target, req)
			_, _ = ProgressiveCtx(context.Background(), p)
		}), len(tab.mods)
	}
	small, smallMods := allocs(180)
	large, largeMods := allocs(1450)
	t.Logf("allocs/candidate: %v over %d modules, %v over %d modules", small, smallMods, large, largeMods)
	if smallMods < 80 || smallMods > 120 || largeMods < 700 || largeMods > 900 {
		t.Fatalf("table sizes %d and %d, want about 100 and 800", smallMods, largeMods)
	}
	if d := large - small; d > maxDiff || d < -maxDiff {
		t.Fatalf("allocs/candidate %v at %d modules vs %v at %d: differ by more than %d", large, largeMods, small, smallMods, maxDiff)
	}
}

func mustProblem(t *testing.T, tab *Table, target chain.TokenID, req diversity.Requirement) *Problem {
	t.Helper()
	p, err := tab.Problem(target, req)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// FuzzTableEquivalence draws small random decompositions, modules that
// overlap and targets outside the universe included, and requires
// Table.Problem to agree with oracleProblem on whether a Problem exists
// and, for every practical solver, on the result: tokens, module count and
// Iterations. With 12 modules or fewer the exact modular optimum must agree
// too.
func FuzzTableEquivalence(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(4*seed+3))
	}
	f.Fuzz(func(t *testing.T, seed int64, size uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(size)%24
		tokens := make(chain.TokenSet, n)
		hts := make(map[chain.TokenID]chain.TxID, n)
		nTx := 1 + rng.Intn(n)
		for i := range tokens {
			tokens[i] = chain.TokenID(10 + 2*i)
			hts[tokens[i]] = chain.TxID(rng.Intn(nTx))
		}
		overlap := rng.Intn(3) == 0
		perm := rng.Perm(n)
		var supers []Super
		next := 0
		for next < n && rng.Intn(3) > 0 {
			width := 1 + rng.Intn(4)
			var ring []chain.TokenID
			for k := 0; k < width && next < n; k++ {
				ring = append(ring, tokens[perm[next]])
				next++
			}
			if overlap && len(supers) > 0 {
				prev := supers[rng.Intn(len(supers))].Ring.Tokens
				ring = append(ring, prev[rng.Intn(len(prev))])
			}
			supers = append(supers, Super{Ring: rec(len(supers), ring...)})
		}
		var fresh []chain.TokenID
		for _, k := range perm[next:] {
			fresh = append(fresh, tokens[k])
		}
		if overlap && next > 0 {
			fresh = append(fresh, tokens[perm[rng.Intn(next)]])
		}
		freshSet := chain.NewTokenSet(fresh...)
		var universe chain.TokenSet
		for _, s := range supers {
			universe = universe.Union(s.Ring.Tokens)
		}
		universe = universe.Union(freshSet)
		origin := originOf(hts)
		tab := NewTable(universe, supers, freshSet, origin)

		req := diversity.Requirement{C: []float64{0.3, 0.5, 0.6, 1, 2}[rng.Intn(5)], L: 1 + rng.Intn(5)}
		if rng.Intn(16) == 0 {
			req.C = 0 // invalid: both sides must refuse it
		}
		targets := append(chain.TokenSet{tokens[0] - 1, tokens[n-1] + 1, tokens[0] + 1}, tokens...)
		for _, target := range targets {
			p, err := tab.Problem(target, req)
			ref, _, refErr := oracleProblem(target, supers, freshSet, origin, req)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("target %v req %v: Table.Problem err %v, oracle err %v", target, req, err, refErr)
			}
			if err != nil {
				continue
			}
			for _, s := range tableSolvers {
				got, gotErr := s.solve(p, seed)
				want, wantErr := s.solve(ref, seed)
				assertSameResult(t, s.name, got, want, gotErr, wantErr)
			}
			if tab.Len() <= 12 {
				got, gotErr := ExactModular(p, 12)
				want, wantErr := ExactModular(ref, 12)
				if !errors.Is(gotErr, wantErr) {
					t.Fatalf("target %v: ExactModular err %v, oracle err %v", target, gotErr, wantErr)
				}
				assertSameResult(t, "ExactModular", got, want, gotErr, wantErr)
			}
		}
	})
}
