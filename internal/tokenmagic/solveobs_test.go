package tokenmagic

import (
	"context"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
	"tokenmagic/internal/obs"
	"tokenmagic/internal/obs/trace"
)

// Framework.solve is the one instrument of a solve. A randomized TM_P
// request solves once per batch module (Algorithm 1, one solve shared by a
// super ring's tokens); with Randomize off it solves once. Either way the
// registry count, the latency histogram's count and the sample span's
// solves must agree, the span's solve_us must equal the
// histogram's sum (one duration per solve, fed to both), and the trace
// holds that one sample span and no per-candidate or per-solve span. The
// solver package records nothing, so no selector.* metric reaches the
// process-wide registry.
func TestSolveMeasuredOnce(t *testing.T) {
	const universe = 24 // 12 two-output txs in one λ=100 batch
	// super is one committed ring over six tokens of six different txs; the
	// consuming token 4 is in it. Its tokens form one module, so the batch
	// has 24 − 6 + 1 modules.
	super := chain.NewTokenSet(0, 2, 4, 6, 8, 10)
	const superModules = universe - 6 + 1
	for _, tc := range []struct {
		name           string
		randomize      bool
		rings          []chain.TokenSet // committed before the framework is built
		wantSolves     int64
		wantModules    int64
		wantCandidates int64 // at most
	}{
		{"sweep", true, nil, universe, universe, universe},
		{"sweep-super-ring", true, []chain.TokenSet{super}, superModules, superModules, universe},
		{"single-solve", false, nil, 1, universe, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			cfg := Config{Lambda: 100, Headroom: true, Algorithm: Progressive, Randomize: tc.randomize, Metrics: reg}
			l := samplingLedger(t, 12)
			for _, r := range tc.rings {
				if _, err := l.AppendRS(r, 1, 3); err != nil {
					t.Fatal(err)
				}
			}
			f, err := New(l, cfg, rand.New(rand.NewSource(5)))
			if err != nil {
				t.Fatal(err)
			}
			col := trace.NewCollector()
			ctx, tr := trace.New(context.Background(), col, "test.generate")
			if _, err := f.GenerateRSContext(ctx, 4, diversity.Requirement{C: 1, L: 3}); err != nil {
				t.Fatal(err)
			}
			tr.Finish("ok")

			got := col.Snapshot("", 1).Recent[0]
			if len(got.Spans) != 1 || got.Spans[0].Name != "sample" {
				t.Fatalf("spans %+v, want exactly one sample span", got.Spans)
			}
			ann := got.Spans[0].Annotations
			num := func(key string) int64 {
				v, err := strconv.ParseInt(ann[key], 10, 64)
				if err != nil {
					t.Fatalf("sample annotation %s=%q: %v", key, ann[key], err)
				}
				return v
			}
			snap := reg.Snapshot()
			count := snap.Counters["framework.solve.TM_P.count"]
			hist := snap.Histograms["framework.solve.TM_P.latency_us"]
			if count != tc.wantSolves || int64(hist.Count) != count || num("solves") != count {
				t.Fatalf("registry count %d, histogram count %d, sample solves %d: want all %d",
					count, hist.Count, num("solves"), tc.wantSolves)
			}
			if num("solve_us") != hist.Sum {
				t.Fatalf("sample solve_us %d, histogram sum %d: want equal", num("solve_us"), hist.Sum)
			}
			if s := ReadStats(reg); s.Solves != count {
				t.Fatalf("ReadStats solves %d, registry %d", s.Solves, count)
			}
			if num("universe") != universe {
				t.Fatalf("sample universe %d, want %d", num("universe"), universe)
			}
			if num("modules") != tc.wantModules {
				t.Fatalf("sample modules %d, want %d", num("modules"), tc.wantModules)
			}
			if c := num("candidates"); c < 1 || c > tc.wantCandidates {
				t.Fatalf("sample candidates %d, want 1..%d", c, tc.wantCandidates)
			}
		})
	}

	var dump strings.Builder
	if err := obs.Default().WriteText(&dump); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(dump.String(), " selector.") {
		t.Errorf("process registry holds solver metrics:\n%s", dump.String())
	}
}
