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
// The greedy hot loops are allocation-free. Each module's HT footprint
// (distinct HTs plus multiplicities) is computed once per module Table —
// once per decomposition, shared by every target's Problem — with every HT
// interned as a dense class id, so the incremental diversity index
// (diversity.Histogram) is a slice index, not a map lookup. Slack probes
// are delta evaluations against that index. The running selection lives in
// pooled scratch that records its picks and a token count, and the result
// TokenSet is materialised once, at the end, from the picks, so a TM_P
// solve allocates only its Problem and its ring. Every greedy scan stops
// at the first module that reaches its proven bound (α_i ≥ 1 in the
// HT-cover phase, β_i ≤ c in Progressive's second phase when c is dyadic,
// |x_i| ≥ 1 for Smallest); it keeps the first strictly better value, so it
// returns the module a full scan would (DESIGN.md, "Incremental
// diversity-slack engine").
package selector

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

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

// footprints holds the HT footprint of every module of a Table in one flat
// layout: module i's distinct HTs are cls[off[i]:off[i+1]], and ns[j] of
// its tokens map to cls[j]. Each HT is a dense class id 0..classes−1,
// interned once per Table in module order, so the greedy loops index the
// histogram's counts instead of hashing HTs, and never call Origin or
// build scratch maps. tokens is the table's token count, which bounds
// every count a slack evaluation reads.
type footprints struct {
	off     []int
	cls     []int
	ns      []int
	classes int
	tokens  int
}

func footprintsOf(mods []Module, origin func(chain.TokenID) chain.TxID) footprints {
	total := 0
	for _, m := range mods {
		total += m.Size()
	}
	fp := footprints{
		off:    make([]int, 1, len(mods)+1),
		cls:    make([]int, 0, total),
		ns:     make([]int, 0, total),
		tokens: total,
	}
	ids := make(map[chain.TxID]int)
	for _, m := range mods {
		start := len(fp.cls)
		for _, t := range m.Tokens {
			c := intern(ids, origin(t))
			found := false
			for j := start; j < len(fp.cls); j++ {
				if fp.cls[j] == c {
					fp.ns[j]++
					found = true
					break
				}
			}
			if !found {
				fp.cls = append(fp.cls, c)
				fp.ns = append(fp.ns, 1)
			}
		}
		fp.off = append(fp.off, len(fp.cls))
	}
	fp.classes = len(ids)
	return fp
}

// intern returns tx's dense class id in ids, assigning the next free one
// the first time tx is seen.
func intern(ids map[chain.TxID]int, tx chain.TxID) int {
	c, ok := ids[tx]
	if !ok {
		c = len(ids)
		ids[tx] = c
	}
	return c
}

// of returns module i's distinct HT classes and their multiplicities.
//
//tmlint:hotpath
func (fp *footprints) of(i int) ([]int, []int) {
	lo, hi := fp.off[i], fp.off[i+1]
	return fp.cls[lo:hi], fp.ns[lo:hi]
}

// Super is a super ring signature (Definition 7).
type Super struct {
	Ring chain.RingRecord
}

// Decompose splits the related RS set over a universe into super rings and
// fresh tokens (Definitions 7 and 8). rings must be in proposal order.
// A ring is super when no later ring is a superset of it; a token is fresh
// when no ring contains it.
//
// Rings are scanned in one sorted-by-size order: a superset of r must be at
// least as large as r, so each check walks the size-sorted candidates and
// exits as soon as they are smaller than r — O(r log r) for the sort plus
// only the size-admissible subset checks, instead of the former all-pairs
// O(r²). Neither rings nor universe is modified.
func Decompose(rings []chain.RingRecord, universe chain.TokenSet) (supers []Super, fresh chain.TokenSet) {
	// Indices sorted by ring size, descending.
	bySizeDesc := make([]int, len(rings))
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
		if isSuper {
			supers = append(supers, Super{Ring: ri})
		}
	}
	fresh = universe.Minus(chain.NewTokenSet(coveredIDs...))
	return supers, fresh
}

// Problem is one modular DA-MS instance: choose a minimum-cardinality union
// of modules containing the mandatory module such that the union's HT
// multiset satisfies Req.
//
// A Problem is a view of one module Table: the table (every module with its
// HT footprint) plus the index of the mandatory module in it. Table.Problem
// is the only way to build one.
type Problem struct {
	// Target is the token being consumed.
	Target chain.TokenID
	// Mandatory is the module containing Target (its super ring, or the
	// token itself when fresh). It is always part of the result.
	Mandatory Module
	// Origin maps tokens to historical transactions.
	Origin func(chain.TokenID) chain.TxID
	// Req is the effective diversity requirement the result's HT multiset
	// must satisfy. Callers wanting the second practical configuration pass
	// the user requirement tightened via Requirement.WithHeadroom.
	Req diversity.Requirement

	tab  *Table // every module, the mandatory one included; read-only
	mand int    // index of Mandatory in tab.mods
}

// NewProblem builds the module table of one decomposition, over the sorted
// union of its tokens, and returns the Problem for target. A caller solving
// for more than one target of a decomposition builds the Table once and
// calls Table.Problem instead. Its only non-test caller is the
// selector.problem_us probe of the benchmark (benchmark/probe.go).
func NewProblem(target chain.TokenID, supers []Super, fresh chain.TokenSet, origin func(chain.TokenID) chain.TxID, req diversity.Requirement) (*Problem, error) {
	ids := slices.Clone(fresh)
	for _, s := range supers {
		ids = append(ids, s.Ring.Tokens...)
	}
	slices.Sort(ids)
	return NewTable(slices.Compact(ids), supers, fresh, origin).Problem(target, req)
}

// Table is the module table of one decomposition: every module (super
// rings, then fresh tokens), their HT footprints in one flat layout, and
// the module holding each universe token. It is built once per
// decomposition and read-only afterwards, so one Table serves any number
// of concurrent Table.Problem calls and solves.
type Table struct {
	universe chain.TokenSet
	mods     []Module
	fp       footprints
	// owner[k] is the index of the module holding universe[k], or one of
	// the sentinels below.
	owner  []int32
	origin func(chain.TokenID) chain.TxID
}

// owner sentinels: a universe token no module holds, and one that two
// modules hold (the first practical configuration is violated).
const (
	ownerNone  = -1
	ownerMulti = -2
)

// NewTable builds the module table of a decomposition over universe (the
// sorted tokens of one batch). Super modules share their ring's token set
// and fresh modules share one-element sub-slices of fresh; neither is
// copied, and both must stay unmodified while the Table is in use.
func NewTable(universe chain.TokenSet, supers []Super, fresh chain.TokenSet, origin func(chain.TokenID) chain.TxID) *Table {
	mods := make([]Module, 0, len(supers)+len(fresh))
	for _, s := range supers {
		mods = append(mods, Module{Tokens: s.Ring.Tokens, Super: s.Ring.ID})
	}
	for i := range fresh {
		mods = append(mods, Module{Tokens: fresh[i : i+1 : i+1], Fresh: true})
	}
	owner := make([]int32, len(universe))
	for k := range owner {
		owner[k] = ownerNone
	}
	for i, m := range mods {
		for _, t := range m.Tokens {
			k, ok := slices.BinarySearch(universe, t)
			if !ok {
				continue
			}
			if owner[k] == ownerNone {
				owner[k] = int32(i)
			} else {
				owner[k] = ownerMulti
			}
		}
	}
	return &Table{universe: universe, mods: mods, fp: footprintsOf(mods, origin), owner: owner, origin: origin}
}

// Problem returns the modular problem for consuming target. It allocates
// only the Problem itself: the module list and footprints are the Table's,
// shared read-only, and the solvers skip the mandatory module by index.
// It fails for an invalid requirement, a target outside the universe, and a
// target more than one module holds (the first practical configuration is
// violated).
func (t *Table) Problem(target chain.TokenID, req diversity.Requirement) (*Problem, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	k, ok := slices.BinarySearch(t.universe, target)
	if !ok || t.owner[k] == ownerNone {
		return nil, fmt.Errorf("selector: target %v not in universe", target)
	}
	m := int(t.owner[k])
	if m == ownerMulti {
		return nil, fmt.Errorf("selector: target %v in more than one module (configuration violated)", target)
	}
	return &Problem{Target: target, Mandatory: t.mods[m], Origin: t.origin, Req: req, tab: t, mand: m}, nil
}

// Len returns the number of modules in the table.
func (t *Table) Len() int { return len(t.mods) }

// ModuleAt returns the index of the module holding the k-th universe token,
// or -1 when no module or more than one holds it (Problem rejects those
// tokens). Tokens with the same index share their Problem's mandatory
// module, so a solver that never reads Problem.Target returns one result
// for all of them.
func (t *Table) ModuleAt(k int) int {
	if m := t.owner[k]; m >= 0 {
		return int(m)
	}
	return -1
}

// candidates returns the indices of every module but the mandatory one, in
// table order.
func (p *Problem) candidates() []int {
	out := make([]int, 0, len(p.tab.mods)-1)
	for i := range p.tab.mods {
		if i != p.mand {
			out = append(out, i)
		}
	}
	return out
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
// unions are tracked as an incremental HT histogram over the table's class
// ids plus a token count; modules never overlap under the first practical
// configuration, so the union's cardinality is the sum of the selected
// modules' sizes and the full TokenSet only needs materialising once, in
// result(), from the list of picks.
//
// The selection ranges over the problem's whole module table with the
// mandatory module pre-selected, so every candidate loop skips it through
// selected and visits the other modules in table order: super rings, then
// fresh tokens.
//
// A state is solve scratch: newState takes one from statePool and sizes it
// for the problem, and the solver hands it back with release when it
// returns. Reset invariant: newState overwrites or clears every field, so
// nothing of an earlier solve — another table's size, class count, picks or
// iteration count — reaches the next one.
type state struct {
	p        *Problem
	mods     []Module
	fp       *footprints
	hist     diversity.Histogram // over fp's class ids
	selected []bool              // over mods; the mandatory module is always selected
	picks    []int               // the selected modules, in no particular order
	nTokens  int                 // |union of selected modules|
	iters    int
}

// statePool recycles solve states, so a steady-state solve allocates no
// scratch that grows with the table. It holds nothing between solves but
// the capacity of the slices.
var statePool = sync.Pool{New: func() any { return new(state) }}

func newState(p *Problem) *state {
	st := statePool.Get().(*state)
	n := len(p.tab.mods)
	st.p, st.mods, st.fp = p, p.tab.mods, &p.tab.fp
	st.hist.Reset(p.tab.fp.classes)
	if cap(st.selected) < n {
		st.selected = make([]bool, n)
	} else {
		st.selected = st.selected[:n]
		clear(st.selected)
	}
	st.picks = st.picks[:0]
	st.nTokens, st.iters = 0, 0
	st.add(p.mand)
	return st
}

// release returns the state to statePool. The solver must not touch it
// afterwards; a Result from result() owns its tokens and stays valid.
func (st *state) release() {
	st.p, st.mods, st.fp = nil, nil, nil
	statePool.Put(st)
}

// add selects module i.
//
//tmlint:hotpath
func (st *state) add(i int) {
	st.selected[i] = true
	st.picks = append(st.picks, i)
	st.nTokens += st.mods[i].Size()
	cls, ns := st.fp.of(i)
	for j, c := range cls {
		st.hist.AddN(c, ns[j])
	}
}

// remove deselects module i, swap-deleting it from the picks. Only valid
// when modules do not overlap (guaranteed under the first practical
// configuration).
//
//tmlint:hotpath
func (st *state) remove(i int) {
	st.selected[i] = false
	last := len(st.picks) - 1
	for k, j := range st.picks {
		if j == i {
			st.picks[k] = st.picks[last]
			break
		}
	}
	st.picks = st.picks[:last]
	st.nTokens -= st.mods[i].Size()
	cls, ns := st.fp.of(i)
	for j, c := range cls {
		st.hist.RemoveN(c, ns[j])
	}
}

// result materialises the selection as a TokenSet: the picked modules'
// tokens, sorted and deduplicated exactly as chain.NewTokenSet would.
func (st *state) result() Result {
	ids := make(chain.TokenSet, 0, st.nTokens)
	for _, i := range st.picks {
		ids = append(ids, st.mods[i].Tokens...)
	}
	slices.Sort(ids)
	return Result{Tokens: slices.Compact(ids), Modules: len(st.picks), Iterations: st.iters}
}

// newHTs counts |H_i \ H|: distinct HTs candidate i would newly contribute.
//
//tmlint:hotpath
func (st *state) newHTs(i int) int {
	n := 0
	cls, _ := st.fp.of(i)
	for _, c := range cls {
		if st.hist.Count(c) == 0 {
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
	cls, ns := st.fp.of(i)
	return st.hist.SlackIfAddedN(st.p.Req, cls, ns)
}

// coverHTPhase runs the shared first phase of Progressive and Game
// (Algorithm 4 lines 2–4 / Algorithm 5 lines 2–4): greedily add the module
// with minimal α_i = |x_i| / min(ℓ−|H|, |H_i \ H|) until the selection spans
// at least ℓ distinct HTs. Cancellation is checked once per greedy step.
//
// A module adds at most |x_i| distinct HTs, so α_i ≥ 1, and the quotient of
// two small integers is correctly rounded, so the computed α_i is 1.0
// exactly when |x_i| equals the denominator. The scan stops at the first
// α_i == 1: it keeps the first strictly smaller value, so that module is
// the one a full scan returns.
func (st *state) coverHTPhase(ctx context.Context) error {
	for st.hist.Classes() < st.p.Req.L {
		if cancelled(ctx) {
			return ctxErr(ctx)
		}
		st.iters++
		need := st.p.Req.L - st.hist.Classes()
		best := -1
		bestAlpha := math.Inf(1)
		for i, m := range st.mods {
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
				if alpha == 1 {
					break // α_i ≥ 1 for every module: none later is strictly smaller
				}
			}
		}
		if best == -1 {
			return ErrNoEligible // universe cannot span ℓ distinct HTs
		}
		st.add(best)
	}
	return nil
}
