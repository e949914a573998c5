package selector

// Solver-equivalence tests: reference implementations of the greedy solvers
// built on the pre-engine evaluation strategy (clone the histogram map, call
// Origin per token, sort frequencies from scratch) must return byte-identical
// rings and module counts to the rewritten allocation-free solvers on seeded
// instances.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
	"tokenmagic/internal/workload"
)

// refHist is the naive histogram: a count map recomputed with a sort on
// every slack query, exactly the shape of the pre-engine code path.
type refHist struct {
	counts map[chain.TxID]int
	total  int
}

func newRefHist() *refHist { return &refHist{counts: map[chain.TxID]int{}} }

func (h *refHist) add(tx chain.TxID) { h.counts[tx]++; h.total++ }

func (h *refHist) remove(tx chain.TxID) {
	if c := h.counts[tx]; c > 0 {
		if c == 1 {
			delete(h.counts, tx)
		} else {
			h.counts[tx] = c - 1
		}
		h.total--
	}
}

func (h *refHist) clone() *refHist {
	out := &refHist{counts: make(map[chain.TxID]int, len(h.counts)), total: h.total}
	for k, v := range h.counts {
		out.counts[k] = v
	}
	return out
}

func (h *refHist) classes() int { return len(h.counts) }

func (h *refHist) slack(req diversity.Requirement) float64 {
	if h.total == 0 {
		return -1
	}
	qs := make([]int, 0, len(h.counts))
	for _, c := range h.counts {
		qs = append(qs, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(qs)))
	tail := 0.0
	for i := req.L - 1; i < len(qs); i++ {
		tail += float64(qs[i])
	}
	return float64(qs[0]) - req.C*tail
}

func (h *refHist) satisfies(req diversity.Requirement) bool { return h.slack(req) < 0 }

// refState mirrors the pre-engine selection state: explicit TokenSet unions
// and per-token Origin calls over the candidate list oracleProblem returns.
type refState struct {
	p        *Problem
	cands    []Module
	tokens   chain.TokenSet
	hist     *refHist
	selected []bool
	modules  int
	iters    int
}

func newRefState(p *Problem, cands []Module) *refState {
	st := &refState{
		p:        p,
		cands:    cands,
		tokens:   p.Mandatory.Tokens.Clone(),
		hist:     newRefHist(),
		selected: make([]bool, len(cands)),
		modules:  1,
	}
	for _, t := range p.Mandatory.Tokens {
		st.hist.add(p.Origin(t))
	}
	return st
}

func (st *refState) add(i int) {
	st.selected[i] = true
	st.modules++
	for _, t := range st.cands[i].Tokens {
		st.hist.add(st.p.Origin(t))
	}
	st.tokens = st.tokens.Union(st.cands[i].Tokens)
}

func (st *refState) remove(i int) {
	st.selected[i] = false
	st.modules--
	for _, t := range st.cands[i].Tokens {
		st.hist.remove(st.p.Origin(t))
	}
	st.tokens = st.tokens.Minus(st.cands[i].Tokens)
}

func (st *refState) result() Result {
	return Result{Tokens: st.tokens, Modules: st.modules, Iterations: st.iters}
}

func (st *refState) newHTs(m Module) int {
	seen := make(map[chain.TxID]bool, len(m.Tokens))
	n := 0
	for _, t := range m.Tokens {
		h := st.p.Origin(t)
		if !seen[h] && st.hist.counts[h] == 0 {
			n++
		}
		seen[h] = true
	}
	return n
}

func (st *refState) slackWith(i int) float64 {
	h := st.hist.clone()
	for _, t := range st.cands[i].Tokens {
		h.add(st.p.Origin(t))
	}
	return h.slack(st.p.Req)
}

func (st *refState) coverHTPhase() error {
	for st.hist.classes() < st.p.Req.L {
		st.iters++
		need := st.p.Req.L - st.hist.classes()
		best := -1
		bestAlpha := math.Inf(1)
		for i, m := range st.cands {
			if st.selected[i] {
				continue
			}
			gain := st.newHTs(m)
			if gain == 0 {
				continue
			}
			denom := need
			if gain < denom {
				denom = gain
			}
			alpha := float64(m.Size()) / float64(denom)
			if alpha < bestAlpha {
				bestAlpha, best = alpha, i
			}
		}
		if best == -1 {
			return ErrNoEligible
		}
		st.add(best)
	}
	return nil
}

func refProgressive(p *Problem, cands []Module) (Result, error) {
	st := newRefState(p, cands)
	if st.hist.satisfies(p.Req) {
		return st.result(), nil
	}
	if err := st.coverHTPhase(); err != nil {
		return Result{}, err
	}
	for !st.hist.satisfies(p.Req) {
		st.iters++
		delta := st.hist.slack(p.Req)
		best := -1
		bestBeta := math.Inf(-1)
		for i, m := range cands {
			if st.selected[i] {
				continue
			}
			beta := (delta - st.slackWith(i)) / float64(m.Size())
			if beta > bestBeta {
				bestBeta, best = beta, i
			}
		}
		if best == -1 {
			return Result{}, ErrNoEligible
		}
		st.add(best)
	}
	return st.result(), nil
}

func refGame(p *Problem, cands []Module) (Result, error) {
	st := newRefState(p, cands)
	if !st.hist.satisfies(p.Req) {
		if err := st.coverHTPhase(); err != nil {
			return Result{}, err
		}
	}
	nPlayers := len(cands)
	if nPlayers == 0 {
		if st.hist.satisfies(p.Req) {
			return st.result(), nil
		}
		return Result{}, ErrNoEligible
	}
	cost := func() float64 {
		if st.hist.satisfies(p.Req) {
			return float64(len(st.tokens)) / float64(nPlayers)
		}
		return math.Inf(1)
	}
	order := make([]int, nPlayers)
	for i := range order {
		order[i] = i
	}
	sortBySizeAsc(order, cands)
	maxSweeps := 4*nPlayers + 16
	for sweep := 0; sweep < maxSweeps; sweep++ {
		st.iters++
		changed := false
		for _, i := range order {
			wasSelected := st.selected[i]
			if !wasSelected {
				st.add(i)
			}
			costSel := cost()
			st.remove(i)
			costUnsel := cost()
			wantSelected := costSel <= costUnsel
			if wantSelected {
				st.add(i)
			}
			if wantSelected != wasSelected {
				changed = true
			}
		}
		if !changed {
			if !st.hist.satisfies(p.Req) {
				return Result{}, ErrNoEligible
			}
			return st.result(), nil
		}
	}
	if st.hist.satisfies(p.Req) {
		return st.result(), nil
	}
	return Result{}, ErrNoEligible
}

func refSmallest(p *Problem, cands []Module) (Result, error) {
	st := newRefState(p, cands)
	for !st.hist.satisfies(p.Req) {
		st.iters++
		best := -1
		for i, m := range cands {
			if st.selected[i] {
				continue
			}
			if best == -1 || m.Size() < cands[best].Size() {
				best = i
			}
		}
		if best == -1 {
			return Result{}, ErrNoEligible
		}
		st.add(best)
	}
	return st.result(), nil
}

func refRandom(p *Problem, cands []Module, rng *rand.Rand) (Result, error) {
	st := newRefState(p, cands)
	var unselected []int
	for i := range cands {
		unselected = append(unselected, i)
	}
	for !st.hist.satisfies(p.Req) {
		st.iters++
		if len(unselected) == 0 {
			return Result{}, ErrNoEligible
		}
		k := rng.Intn(len(unselected))
		st.add(unselected[k])
		unselected[k] = unselected[len(unselected)-1]
		unselected = unselected[:len(unselected)-1]
	}
	return st.result(), nil
}

func assertSameResult(t *testing.T, tag string, got, want Result, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: err %v, reference err %v", tag, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if !got.Tokens.Equal(want.Tokens) {
		t.Fatalf("%s: tokens differ\n got %v\nwant %v", tag, got.Tokens, want.Tokens)
	}
	if got.Modules != want.Modules {
		t.Fatalf("%s: modules %d, reference %d", tag, got.Modules, want.Modules)
	}
	if got.Iterations != want.Iterations {
		t.Fatalf("%s: iterations %d, reference %d", tag, got.Iterations, want.Iterations)
	}
}

func equivalenceDatasets(t *testing.T) map[string]*workload.Dataset {
	t.Helper()
	out := make(map[string]*workload.Dataset)
	real, err := workload.RealMonero(1)
	if err != nil {
		t.Fatal(err)
	}
	out["real"] = real
	for _, seed := range []int64{2, 3, 5} {
		p := workload.DefaultSynthetic()
		p.Seed = seed
		d, err := workload.Synthetic(p)
		if err != nil {
			t.Fatal(err)
		}
		out[string(rune('a'+seed))+"synthetic"] = d
	}
	return out
}

// TestSolverEquivalence runs every practical solver on Table-built Problems
// against its reference implementation on the oracle's Problems, over
// seeded real and synthetic instances, and requires identical rings, module
// counts and iteration counts.
func TestSolverEquivalence(t *testing.T) {
	for name, d := range equivalenceDatasets(t) {
		rings := d.Rings()
		supers, fresh := Decompose(rings, d.Universe)
		origin := d.Origin()
		tab := NewTable(d.Universe, supers, fresh, origin)
		reqs := []diversity.Requirement{
			{C: 0.6, L: 41}, {C: 0.6, L: 11}, {C: 1, L: 5}, {C: 0.3, L: 2},
		}
		rng := rand.New(rand.NewSource(42))
		for _, req := range reqs {
			for n := 0; n < 25; n++ {
				target := d.Universe[rng.Intn(len(d.Universe))]
				p, err := tab.Problem(target, req)
				if err != nil {
					t.Fatal(err)
				}
				pRef, cands, err := oracleProblem(target, supers, fresh, origin, req)
				if err != nil {
					t.Fatal(err)
				}

				got, gotErr := Progressive(p)
				want, wantErr := refProgressive(pRef, cands)
				assertSameResult(t, name+"/TM_P", got, want, gotErr, wantErr)

				got, gotErr = Game(p)
				want, wantErr = refGame(pRef, cands)
				assertSameResult(t, name+"/TM_G", got, want, gotErr, wantErr)

				got, gotErr = Smallest(p)
				want, wantErr = refSmallest(pRef, cands)
				assertSameResult(t, name+"/TM_S", got, want, gotErr, wantErr)

				rngA := rand.New(rand.NewSource(int64(n)))
				rngB := rand.New(rand.NewSource(int64(n)))
				got, gotErr = Random(p, rngA)
				want, wantErr = refRandom(pRef, cands, rngB)
				assertSameResult(t, name+"/TM_R", got, want, gotErr, wantErr)
			}
		}
	}
}

// TestSolverEquivalenceWide runs Table-built Problems against the
// full-scan oracles on a λ=800 batch with nested committed rings: super
// modules come first in table order and hundreds of fresh modules tie at
// α = 1 and β = c, which is where the greedy scans stop at their bound.
// Every batch token is solved as target, with dyadic c (the phase-2 exit
// fires) and non-dyadic c (it must not).
func TestSolverEquivalenceWide(t *testing.T) {
	d, err := workload.Nested(800, 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	supers, fresh := Decompose(d.Rings(), d.Universe)
	if len(fresh) < 200 {
		t.Fatalf("fixture has %d fresh modules, want hundreds", len(fresh))
	}
	origin := d.Origin()
	tab := NewTable(d.Universe, supers, fresh, origin)
	solvers := []struct {
		name     string
		solve    func(*Problem) (Result, error)
		solveRef func(*Problem, []Module) (Result, error)
	}{
		{"TM_P", Progressive, refProgressive},
		{"TM_G", Game, refGame},
		{"TM_S", Smallest, refSmallest},
	}
	for _, c := range []float64{1, 0.5, 0.7, 0.3} {
		for _, l := range []int{3, 4} {
			req := diversity.Requirement{C: c, L: l}
			for _, target := range d.Universe {
				p, err := tab.Problem(target, req)
				if err != nil {
					t.Fatal(err)
				}
				pRef, cands, err := oracleProblem(target, supers, fresh, origin, req)
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range solvers {
					got, gotErr := s.solve(p)
					want, wantErr := s.solveRef(pRef, cands)
					assertSameResult(t, fmt.Sprintf("wide/%s/%v/target=%d", s.name, req, target), got, want, gotErr, wantErr)
				}
			}
		}
	}
}
