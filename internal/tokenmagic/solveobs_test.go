package tokenmagic

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"tokenmagic/internal/diversity"
	"tokenmagic/internal/obs"
	"tokenmagic/internal/obs/trace"
)

// Framework.solve is the one instrument of a solve: a randomized request
// solves once per batch token (Algorithm 1), and the registry count, the
// trace's solve spans and the universe size must all agree. The solver
// package records nothing, so no selector.* metric reaches the process-wide
// registry.
func TestSolveMeasuredOnce(t *testing.T) {
	l := samplingLedger(t, 12)
	reg := obs.NewRegistry()
	f, err := New(l, Config{Lambda: 100, Headroom: true, Algorithm: Progressive, Randomize: true, Metrics: reg}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	col := trace.NewCollector()
	ctx, tr := trace.New(context.Background(), col, "test.generate")
	const target = 4
	if _, err := f.GenerateRSContext(ctx, target, diversity.Requirement{C: 1, L: 3}); err != nil {
		t.Fatal(err)
	}
	tr.Finish("ok")
	universe, err := f.Batches().Universe(target)
	if err != nil {
		t.Fatal(err)
	}

	solves := reg.Snapshot().Counters["framework.solve.TM_P.count"]
	spans := col.StageSnapshot()["solve"].Count
	if solves != int64(len(universe)) || spans != solves {
		t.Fatalf("solve count %d, solve spans %d, universe %d: want all equal", solves, spans, len(universe))
	}
	if s := ReadStats(reg); s.Solves != solves {
		t.Fatalf("ReadStats solves %d, registry %d", s.Solves, solves)
	}

	// Each solve span hangs under its candidate and names solver and size.
	got := col.Snapshot("", 1).Recent[0]
	for _, sp := range got.Spans {
		if sp.Name != "solve" {
			continue
		}
		if got.Spans[sp.Parent].Name != "candidate" {
			t.Fatalf("solve span parent %q, want candidate", got.Spans[sp.Parent].Name)
		}
		if sp.Annotations["solver"] != "TM_P" || sp.Annotations["ring_size"] == "" {
			t.Fatalf("solve span annotations %v", sp.Annotations)
		}
	}

	var dump strings.Builder
	if err := obs.Default().WriteText(&dump); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(dump.String(), " selector.") {
		t.Errorf("process registry holds solver metrics:\n%s", dump.String())
	}
}
