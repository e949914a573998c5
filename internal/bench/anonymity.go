package bench

import (
	"fmt"
	"math/rand"
	"runtime"

	"tokenmagic/internal/adversary/graphattack"
	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
	"tokenmagic/internal/tokenmagic"
	"tokenmagic/internal/workload"
)

// AnonymityRow is one (solver, attack) cell of the anonymity-under-attack
// matrix: the metrics of one static attack run over a ledger built by one
// solver.
type AnonymityRow struct {
	Solver        string  `json:"solver"`
	Attack        string  `json:"attack"`
	Rings         int     `json:"rings"`
	Traced        int     `json:"traced"`
	TracedFrac    float64 `json:"traced_frac"`
	HTRevealed    int     `json:"ht_revealed"`
	HTFrac        float64 `json:"ht_frac"`
	MeanAnonymity float64 `json:"mean_anonymity"`
	MinAnonymity  int     `json:"min_anonymity"`
	Consumed      int     `json:"consumed"`
}

// AnonymityReport is the tracked BENCH_anonymity.json artefact: the full
// solver × attack sweep plus the parameters that reproduce it. The CI gate
// (cmd/anonaudit -assert) reads the committed copy as the regression
// baseline and fails the build when any cell's min_anonymity drops below
// it. Commit names the checkout it was measured at (the caller fills it
// in); GOMAXPROCS and NumCPU record the measuring machine. The gate reads
// only the rows.
type AnonymityReport struct {
	GeneratedBy string         `json:"generated_by"`
	Commit      string         `json:"commit"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	NumCPU      int            `json:"num_cpu"`
	Seed        int64          `json:"seed"`
	Spends      int            `json:"spends"`
	BFSSpends   int            `json:"bfs_spends"`
	Window      int            `json:"window"`
	Rows        []AnonymityRow `json:"rows"`
}

// sweepSolvers lists the audited solvers in run order: the paper's two
// contributions, its two baselines, and the exact search.
var sweepSolvers = []tokenmagic.Algorithm{
	tokenmagic.Progressive,
	tokenmagic.Game,
	tokenmagic.Smallest,
	tokenmagic.RandomPick,
	tokenmagic.BFS,
}

// BuildSolverLedger drives the traceability workload shape (a virgin
// synthetic batch, spending tokens in order) through the framework with the
// given solver and returns the resulting data set plus the number of rings
// committed. Shared by the anonymity sweep and cmd/anonaudit's sim mode so
// the CI gate audits exactly what the tracked artefact measured.
func BuildSolverLedger(algo tokenmagic.Algorithm, spends int, seed int64) (*workload.Dataset, int, error) {
	poolSize := spends + spends/4 + 4
	d, err := workload.Synthetic(workload.SyntheticParams{
		NumSupers:    0, // virgin batch: all tokens fresh
		SuperSizeMin: 1,
		SuperSizeMax: 1,
		NumFresh:     poolSize,
		Sigma:        6,
		Seed:         seed,
	})
	if err != nil {
		return nil, 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	cfg := tokenmagic.Config{
		Lambda:    d.Ledger.NumTokens(),
		Eta:       0.1,
		Headroom:  true,
		Algorithm: algo,
	}
	f, err := tokenmagic.New(d.Ledger, cfg, rng)
	if err != nil {
		return nil, 0, err
	}
	req := diversity.Requirement{C: 1, L: 3}
	committed := 0
	for i := 0; i < spends && i < len(d.Universe); i++ {
		if _, _, err := f.GenerateAndCommit(d.Universe[i], req); err != nil {
			continue
		}
		committed++
	}
	return d, committed, nil
}

// AuditRows runs the full graphattack suite over one ring set and flattens
// each attack's report into a labelled matrix row.
func AuditRows(solver string, rings []chain.RingRecord, origin func(chain.TokenID) chain.TxID, opts graphattack.Options) []AnonymityRow {
	var out []AnonymityRow
	for _, rep := range graphattack.Audit(rings, origin, opts) {
		m := rep.Metrics
		row := AnonymityRow{
			Solver:        solver,
			Attack:        rep.Attack,
			Rings:         m.Rings,
			Traced:        m.Traced,
			HTRevealed:    m.HTRevealed,
			MeanAnonymity: m.AvgAnonymity,
			MinAnonymity:  m.MinAnonymity,
			Consumed:      m.ConsumedTokens,
		}
		if m.Rings > 0 {
			row.TracedFrac = float64(m.Traced) / float64(m.Rings)
			row.HTFrac = float64(m.HTRevealed) / float64(m.Rings)
		}
		out = append(out, row)
	}
	return out
}

// SolverNames returns the sweep's solver labels in run order.
func SolverNames() []string {
	out := make([]string, len(sweepSolvers))
	for i, a := range sweepSolvers {
		out[i] = a.String()
	}
	return out
}

// AnonymitySweep builds one ledger per solver and runs every attack over
// each, producing the solver × attack matrix. The exact TM_B solver runs on
// a smaller instance (bfsSpends) — its search is exponential in ring count —
// so its rows are comparable in kind, not in scale, with the others. window
// configures the temporal adversary's guess-newest prior.
func AnonymitySweep(spends, bfsSpends int, seed int64, window int) (*AnonymityReport, error) {
	return AnonymitySweepSubset(nil, nil, spends, bfsSpends, seed, window)
}

// AnonymitySweepSubset is AnonymitySweep restricted to the named solvers and
// attacks (nil = all). cmd/anonaudit uses it so an operator can gate on a
// slice of the matrix without paying for the rest. Unknown solver names are
// an error — a gate that silently audits nothing would always pass.
func AnonymitySweepSubset(solvers, attacks []string, spends, bfsSpends int, seed int64, window int) (*AnonymityReport, error) {
	want := make(map[string]bool, len(solvers))
	for _, s := range solvers {
		want[s] = true
	}
	rep := &AnonymityReport{
		GeneratedBy: "cmd/benchfigures -bench-anonymity (or cmd/anonaudit -out)",
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Seed:        seed,
		Spends:      spends,
		BFSSpends:   bfsSpends,
		Window:      window,
	}
	opts := graphattack.Options{
		Temporal: graphattack.TemporalOptions{Window: window},
		Attacks:  attacks,
	}
	matched := 0
	for _, algo := range sweepSolvers {
		if len(solvers) > 0 && !want[algo.String()] {
			continue
		}
		matched++
		n := spends
		if algo == tokenmagic.BFS {
			n = bfsSpends
		}
		d, _, err := BuildSolverLedger(algo, n, seed)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, AuditRows(algo.String(), d.Ledger.Rings(), d.Origin(), opts)...)
	}
	if len(solvers) > 0 && matched != len(want) {
		return nil, fmt.Errorf("bench: unknown solver in %v (have %v)", solvers, SolverNames())
	}
	return rep, nil
}
