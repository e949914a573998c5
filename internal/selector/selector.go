// Package selector implements the paper's DA-MS solvers:
//
//   - BFS: the exact breadth-first search (Algorithm 2 + GetDTRSs), feasible
//     only on small universes; it realises the full Definition-5 constraint
//     set (diversity, non-eliminated, immutability) via exact enumeration.
//   - Progressive: the two-phase greedy approximation (Algorithm 4) with
//     ratio ε + q_M·z_M·10^γ (Theorem 6.5).
//   - Game: the potential-game best-response algorithm (Algorithm 5),
//     convergent in O(n³) (Theorem 6.6) with PoS ≤ 1 (Theorem 6.7).
//   - Smallest, Random: the paper's two baselines (TM_S, TM_R).
//
// All practical solvers work under the paper's two practical configurations:
// a new ring is a union of "modules" (super rings and fresh tokens,
// Definitions 7–8), and its HT multiset must satisfy the headroom
// requirement (c, ℓ+1) so that every DTRS retains (c, ℓ) (Theorem 6.4) and
// existing rings keep their declared diversity (immutability for free).
//
// The greedy hot loops are allocation-free: each module's HT footprint
// (distinct HTs plus multiplicities) is computed once per Problem, slack
// probes are delta evaluations against the incremental diversity index
// (diversity.Histogram), and the running selection tracks only a token
// count — the result TokenSet is materialised once, at the end.
package selector

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
)

// cancelled is the cooperative cancellation probe the solver loops poll at
// iteration boundaries. It never blocks.
func cancelled(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

// ctxErr wraps a context failure so callers can both errors.Is it against
// context.Canceled/DeadlineExceeded and tell it apart from ErrNoEligible.
func ctxErr(ctx context.Context) error {
	return fmt.Errorf("selector: solve cancelled: %w", ctx.Err())
}

// Module is a selectable unit under the first practical configuration:
// either one super ring signature or one fresh token.
type Module struct {
	Tokens chain.TokenSet
	Fresh  bool       // true when the module is a single fresh token
	Super  chain.RSID // the super ring's id when !Fresh
}

// Size returns |x_i|, the token count of the module.
func (m Module) Size() int { return len(m.Tokens) }

// footprint is a module's HT profile: the distinct HTs its tokens map to and
// how many tokens map to each. Precomputed once per Problem so the greedy
// loops never call Origin or build scratch maps.
type footprint struct {
	txs []chain.TxID
	ns  []int
}

func footprintOf(m Module, origin func(chain.TokenID) chain.TxID) footprint {
	var fp footprint
	for _, t := range m.Tokens {
		h := origin(t)
		found := false
		for j, x := range fp.txs {
			if x == h {
				fp.ns[j]++
				found = true
				break
			}
		}
		if !found {
			fp.txs = append(fp.txs, h)
			fp.ns = append(fp.ns, 1)
		}
	}
	return fp
}

// Super is a super ring signature (Definition 7) with its subset count v.
type Super struct {
	Ring        chain.RingRecord
	SubsetCount int // v: rings in R_π^T that are subsets of this ring (incl. itself)
}

// Decompose splits the related RS set over a universe into super rings and
// fresh tokens (Definitions 7 and 8). rings must be in proposal order.
// A ring is super when no later ring is a superset of it; a token is fresh
// when no ring contains it.
//
// Rings are scanned in one sorted-by-size order: a superset of r must be at
// least as large as r and a subset at most as large, so each check walks the
// size-sorted candidates and exits as soon as sizes cross |r| — O(r log r)
// for the sort plus only the size-admissible subset checks, instead of the
// former all-pairs O(r²). Neither rings nor universe is modified.
func Decompose(rings []chain.RingRecord, universe chain.TokenSet) (supers []Super, fresh chain.TokenSet) {
	n := len(rings)
	// Indices sorted by ring size, descending; sizeAsc is the same walk from
	// the other end.
	bySizeDesc := make([]int, n)
	for i := range bySizeDesc {
		bySizeDesc[i] = i
	}
	sort.SliceStable(bySizeDesc, func(a, b int) bool {
		return len(rings[bySizeDesc[a]].Tokens) > len(rings[bySizeDesc[b]].Tokens)
	})

	var coveredIDs []chain.TokenID
	for _, r := range rings {
		coveredIDs = append(coveredIDs, r.Tokens...)
	}

	for i, ri := range rings {
		size := len(ri.Tokens)
		isSuper := true
		for _, j := range bySizeDesc {
			if len(rings[j].Tokens) < size {
				break // early exit: no smaller ring can be a superset
			}
			if j > i && ri.Tokens.SubsetOf(rings[j].Tokens) {
				isSuper = false
				break
			}
		}
		if !isSuper {
			continue
		}
		v := 0
		for k := n - 1; k >= 0; k-- {
			j := bySizeDesc[k]
			if len(rings[j].Tokens) > size {
				break // early exit: no larger ring can be a subset
			}
			if rings[j].Tokens.SubsetOf(ri.Tokens) {
				v++
			}
		}
		supers = append(supers, Super{Ring: ri, SubsetCount: v})
	}
	fresh = universe.Minus(chain.NewTokenSet(coveredIDs...))
	return supers, fresh
}

// Problem is one modular DA-MS instance: choose a minimum-cardinality union
// of modules containing the mandatory module such that the union's HT
// multiset satisfies Req.
type Problem struct {
	// Target is the token being consumed.
	Target chain.TokenID
	// Mandatory is the module containing Target (its super ring, or the
	// token itself when fresh). It is always part of the result.
	Mandatory Module
	// Candidates are the other selectable modules.
	Candidates []Module
	// Origin maps tokens to historical transactions.
	Origin func(chain.TokenID) chain.TxID
	// Req is the effective diversity requirement the result's HT multiset
	// must satisfy. Callers wanting the second practical configuration pass
	// the user requirement tightened via Requirement.WithHeadroom.
	Req diversity.Requirement

	// Precomputed HT footprints (mandatory module, then one per candidate),
	// filled by NewProblem or lazily on first solve.
	mandFP   footprint
	candFP   []footprint
	prepared bool
}

// prepare computes the per-module HT footprints once. NewProblem calls it
// eagerly; Problems assembled by hand get it on first solve.
func (p *Problem) prepare() {
	if p.prepared {
		return
	}
	p.mandFP = footprintOf(p.Mandatory, p.Origin)
	p.candFP = make([]footprint, len(p.Candidates))
	for i := range p.Candidates {
		p.candFP[i] = footprintOf(p.Candidates[i], p.Origin)
	}
	p.prepared = true
}

// NewProblem assembles a Problem from a decomposition. It locates the module
// containing target among supers/fresh and returns an error if the target is
// not in the universe described by the decomposition.
func NewProblem(target chain.TokenID, supers []Super, fresh chain.TokenSet, origin func(chain.TokenID) chain.TxID, req diversity.Requirement) (*Problem, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	p := &Problem{Target: target, Origin: origin, Req: req}
	found := false
	for _, s := range supers {
		m := Module{Tokens: s.Ring.Tokens, Super: s.Ring.ID}
		if s.Ring.Tokens.Contains(target) {
			if found {
				return nil, fmt.Errorf("selector: target %v in multiple super rings (configuration violated)", target)
			}
			p.Mandatory = m
			found = true
			continue
		}
		p.Candidates = append(p.Candidates, m)
	}
	for _, t := range fresh {
		m := Module{Tokens: chain.NewTokenSet(t), Fresh: true}
		if t == target {
			if found {
				return nil, fmt.Errorf("selector: target %v is both fresh and in a super ring", target)
			}
			p.Mandatory = m
			found = true
			continue
		}
		p.Candidates = append(p.Candidates, m)
	}
	if !found {
		return nil, fmt.Errorf("selector: target %v not in universe", target)
	}
	p.prepare()
	return p, nil
}

// Result is a solved DA-MS instance.
type Result struct {
	// Tokens is the full new ring signature: the consuming token plus
	// mixins, as the union of the chosen modules.
	Tokens chain.TokenSet
	// Modules is how many modules were chosen (including the mandatory one).
	Modules int
	// Iterations counts algorithm-specific work: greedy steps for
	// Progressive/Smallest/Random, best-response passes for Game, candidate
	// rings examined for BFS.
	Iterations int
}

// Size returns the cardinality of the new ring.
func (r Result) Size() int { return len(r.Tokens) }

// ErrNoEligible is returned when no ring satisfying the constraints exists
// over the given modules; per Section 4 the user should relax (c, ℓ) —
// increase c or decrease ℓ — and retry.
var ErrNoEligible = errors.New("selector: no eligible ring signature exists; relax the diversity requirement")

// state tracks the running selection shared by the greedy algorithms. Module
// unions are tracked as an incremental HT histogram plus a token count;
// modules never overlap under the first practical configuration, so the
// union's cardinality is the sum of the selected modules' sizes and the full
// TokenSet only needs materialising once, in result().
type state struct {
	p        *Problem
	hist     *diversity.Histogram
	selected []bool // over p.Candidates
	modules  int
	nTokens  int // |union of selected modules|
	iters    int
}

func newState(p *Problem) *state {
	p.prepare()
	st := &state{
		p:        p,
		hist:     diversity.NewHistogram(),
		selected: make([]bool, len(p.Candidates)),
		modules:  1,
		nTokens:  len(p.Mandatory.Tokens),
	}
	fp := &p.mandFP
	for j, tx := range fp.txs {
		st.hist.AddN(tx, fp.ns[j])
	}
	return st
}

// add selects candidate i.
//
//tmlint:hotpath
func (st *state) add(i int) {
	st.selected[i] = true
	st.modules++
	st.nTokens += st.p.Candidates[i].Size()
	fp := &st.p.candFP[i]
	for j, tx := range fp.txs {
		st.hist.AddN(tx, fp.ns[j])
	}
}

// remove deselects candidate i. Only valid when modules do not overlap
// (guaranteed under the first practical configuration).
//
//tmlint:hotpath
func (st *state) remove(i int) {
	st.selected[i] = false
	st.modules--
	st.nTokens -= st.p.Candidates[i].Size()
	fp := &st.p.candFP[i]
	for j, tx := range fp.txs {
		st.hist.RemoveN(tx, fp.ns[j])
	}
}

// result materialises the selection as a TokenSet.
func (st *state) result() Result {
	ids := make([]chain.TokenID, 0, st.nTokens)
	ids = append(ids, st.p.Mandatory.Tokens...)
	for i, sel := range st.selected {
		if sel {
			ids = append(ids, st.p.Candidates[i].Tokens...)
		}
	}
	return Result{Tokens: chain.NewTokenSet(ids...), Modules: st.modules, Iterations: st.iters}
}

// newHTs counts |H_i \ H|: distinct HTs candidate i would newly contribute.
//
//tmlint:hotpath
func (st *state) newHTs(i int) int {
	n := 0
	for _, tx := range st.p.candFP[i].txs {
		if st.hist.Count(tx) == 0 {
			n++
		}
	}
	return n
}

// slackWith returns δ_i: the requirement slack if candidate i were added.
// It is a read-only delta probe against the incremental index: the module's
// precomputed footprint is overlaid on the count-of-counts walk without
// mutating the histogram — no cloning, no allocation, no undo step.
//
//tmlint:hotpath
func (st *state) slackWith(i int) float64 {
	fp := &st.p.candFP[i]
	return st.hist.SlackIfAddedN(st.p.Req, fp.txs, fp.ns)
}

// coverHTPhase runs the shared first phase of Progressive and Game
// (Algorithm 4 lines 2–4 / Algorithm 5 lines 2–4): greedily add the module
// with minimal α_i = |x_i| / min(ℓ−|H|, |H_i \ H|) until the selection spans
// at least ℓ distinct HTs. Cancellation is checked once per greedy step.
func (st *state) coverHTPhase(ctx context.Context) error {
	for st.hist.Classes() < st.p.Req.L {
		if cancelled(ctx) {
			return ctxErr(ctx)
		}
		st.iters++
		need := st.p.Req.L - st.hist.Classes()
		best := -1
		bestAlpha := math.Inf(1)
		for i, m := range st.p.Candidates {
			if st.selected[i] {
				continue
			}
			gain := st.newHTs(i)
			if gain == 0 {
				continue // α_i = ∞
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
			return ErrNoEligible // universe cannot span ℓ distinct HTs
		}
		st.add(best)
	}
	return nil
}
