package tokenmagic

import (
	"context"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"tokenmagic/internal/diversity"
	"tokenmagic/internal/obs"
	"tokenmagic/internal/obs/trace"
)

// Framework.solve is the one instrument of a solve. A randomized request
// solves once per batch token (Algorithm 1); with Randomize off it solves
// once. Either way the registry count, the latency histogram's count and
// the sample span's solves must agree, the span's solve_us must equal the
// histogram's sum (one duration per solve, fed to both), and the trace
// holds that one sample span and no per-candidate or per-solve span. The
// solver package records nothing, so no selector.* metric reaches the
// process-wide registry.
func TestSolveMeasuredOnce(t *testing.T) {
	const universe = 24 // 12 two-output txs in one λ=100 batch
	for _, tc := range []struct {
		name       string
		randomize  bool
		wantSolves int64
	}{
		{"sweep", true, universe},
		{"single-solve", false, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			cfg := Config{Lambda: 100, Headroom: true, Algorithm: Progressive, Randomize: tc.randomize, Metrics: reg}
			f, err := New(samplingLedger(t, 12), cfg, rand.New(rand.NewSource(5)))
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
			if c := num("candidates"); c < 1 || c > tc.wantSolves {
				t.Fatalf("sample candidates %d, want 1..%d", c, tc.wantSolves)
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
