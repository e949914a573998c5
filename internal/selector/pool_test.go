package selector

// Tests for the pooled solve state: a state handed from one solve to the
// next must carry nothing over, whichever table it served before and
// whichever goroutine picks it up, and a steady-state solve must allocate
// only what it returns.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
	"tokenmagic/internal/workload"
)

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// nestedTable decomposes workload.Nested(lambda, rings, seed) and returns
// its Table with everything oracleProblem needs for the oracle side.
type nestedTable struct {
	name     string
	tab      *Table
	universe chain.TokenSet
	supers   []Super
	fresh    chain.TokenSet
	origin   func(chain.TokenID) chain.TxID
}

func newNestedTable(t *testing.T, lambda, rings int, seed int64) nestedTable {
	t.Helper()
	d, err := workload.Nested(lambda, rings, seed)
	if err != nil {
		t.Fatal(err)
	}
	supers, fresh := Decompose(d.Rings(), d.Universe)
	origin := d.Origin()
	return nestedTable{
		name:     fmt.Sprintf("nested(%d,%d,%d)", lambda, rings, seed),
		tab:      NewTable(d.Universe, supers, fresh, origin),
		universe: d.Universe,
		supers:   supers,
		fresh:    fresh,
		origin:   origin,
	}
}

// TestPooledStateReset interleaves solves over two Tables of different
// module and class counts, in a different random order on each of several
// goroutines, so pooled states keep passing between tables and solvers.
// TM_P, TM_G and TM_S must match their full-scan oracles and TM_R the
// fresh-state reference, rings, module counts and Iterations included.
func TestPooledStateReset(t *testing.T) {
	tables := []nestedTable{newNestedTable(t, 800, 400, 1), newNestedTable(t, 100, 40, 2)}
	wide, narrow := tables[0].tab, tables[1].tab
	if len(wide.mods) == len(narrow.mods) || wide.fp.classes == narrow.fp.classes {
		t.Fatalf("tables have %d/%d modules and %d/%d classes, want both to differ",
			len(wide.mods), len(narrow.mods), wide.fp.classes, narrow.fp.classes)
	}
	solvers := []struct {
		name  string
		solve func(p *Problem, seed int64) (Result, error)
		ref   func(p *Problem, cands []Module, seed int64) (Result, error)
	}{
		{"TM_P", func(p *Problem, _ int64) (Result, error) { return Progressive(p) },
			func(p *Problem, cands []Module, _ int64) (Result, error) { return refProgressive(p, cands) }},
		{"TM_G", func(p *Problem, _ int64) (Result, error) { return Game(p) },
			func(p *Problem, cands []Module, _ int64) (Result, error) { return refGame(p, cands) }},
		{"TM_S", func(p *Problem, _ int64) (Result, error) { return Smallest(p) },
			func(p *Problem, cands []Module, _ int64) (Result, error) { return refSmallest(p, cands) }},
		{"TM_R", func(p *Problem, seed int64) (Result, error) { return Random(p, rand.New(rand.NewSource(seed))) },
			func(p *Problem, cands []Module, seed int64) (Result, error) {
				return refRandom(p, cands, rand.New(rand.NewSource(seed)))
			}},
	}
	reqs := []diversity.Requirement{{C: 1, L: 4}, {C: 0.7, L: 3}, {C: 0.2, L: 40}}

	type job struct {
		tab, solver int
		target      chain.TokenID
		req         diversity.Requirement
		seed        int64
		want        solved
	}
	var jobs []job
	for ti, nt := range tables {
		stride := len(nt.universe) / 40
		for k := 0; k < len(nt.universe); k += stride {
			for _, req := range reqs {
				ref, cands, err := oracleProblem(nt.universe[k], nt.supers, nt.fresh, nt.origin, req)
				if err != nil {
					t.Fatal(err)
				}
				for si, s := range solvers {
					seed := int64(1000*ti + k)
					res, err := s.ref(ref, cands, seed)
					jobs = append(jobs, job{ti, si, nt.universe[k], req, seed, solved{res, err}})
				}
			}
		}
	}

	const workers = 4
	got := make([][]solved, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		got[w] = make([]solved, len(jobs))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, i := range rand.New(rand.NewSource(int64(w))).Perm(len(jobs)) {
				j := jobs[i]
				p, err := tables[j.tab].tab.Problem(j.target, j.req)
				if err != nil {
					got[w][i].err = err
					continue
				}
				got[w][i].res, got[w][i].err = solvers[j.solver].solve(p, j.seed)
			}
		}(w)
	}
	wg.Wait()
	sat := 0
	for _, j := range jobs {
		if j.want.err == nil {
			sat++
		}
	}
	t.Logf("%d jobs per worker, %d of them solvable", len(jobs), sat)
	if sat == 0 || sat == len(jobs) {
		t.Fatalf("%d of %d jobs solvable, want both outcomes", sat, len(jobs))
	}
	for w := range got {
		for i, j := range jobs {
			tag := fmt.Sprintf("worker %d/%s/%s/%v/target=%v", w, tables[j.tab].name, solvers[j.solver].name, j.req, j.target)
			assertSameResult(t, tag, got[w][i].res, j.want.res, got[w][i].err, j.want.err)
		}
	}
}

// TestProgressiveSolveAllocs pins a steady-state TM_P solve over a Table
// Problem at two allocations, the Problem and the ring: the solve scratch
// comes from the pool, so nothing it allocates grows with the module count.
func TestProgressiveSolveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	nt := newNestedTable(t, 800, 400, 1)
	req := diversity.Requirement{C: 1, L: 4}
	target := nt.fresh[len(nt.fresh)/2]
	res, err := ProgressiveCtx(context.Background(), mustProblem(t, nt.tab, target, req))
	if err != nil || res.Size() < 2 {
		t.Fatalf("warm-up solve: %v, err %v", res.Tokens, err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		p, _ := nt.tab.Problem(target, req)
		_, _ = ProgressiveCtx(context.Background(), p)
	})
	if allocs > 2 {
		t.Fatalf("steady-state TM_P solve over %d modules: %v allocs, want 2 (the Problem and the ring)", len(nt.tab.mods), allocs)
	}
}
