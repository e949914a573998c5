package bench

// go test -bench entries for the solver hot-path arms, so the CI bench smoke
// job keeps them compiling and running.

import (
	"testing"

	"tokenmagic/internal/tokenmagic"
)

func BenchmarkSlackEvalReference(b *testing.B)   { BenchSlackReference(b) }
func BenchmarkSlackEvalIncremental(b *testing.B) { BenchSlackIncremental(b) }

func BenchmarkSolveProgressive(b *testing.B) { BenchSolve(b, tokenmagic.Progressive) }
func BenchmarkSolveGame(b *testing.B)        { BenchSolve(b, tokenmagic.Game) }
func BenchmarkSolveSmallest(b *testing.B)    { BenchSolve(b, tokenmagic.Smallest) }

func BenchmarkSweepWide(b *testing.B) { BenchSweepWide(b) }

func BenchmarkGenerateRSLambda100(b *testing.B) { BenchGenerateRS(b, 100, nil) }
func BenchmarkGenerateRSLambda800(b *testing.B) { BenchGenerateRS(b, 800, nil) }

// TestSolverBaselineShape guards the committed baseline table: names must
// match the arms SolverBenchmarks emits so before/after stay comparable.
func TestSolverBaselineShape(t *testing.T) {
	want := map[string]bool{
		"slack_eval":               true,
		"solve/TM_P":               true,
		"solve/TM_G":               true,
		"generate/TM_P/lambda=100": true,
		"generate/TM_P/lambda=800": true,
	}
	for _, r := range SolverBaseline {
		if !want[r.Name] {
			t.Fatalf("unexpected baseline arm %q", r.Name)
		}
		if r.NsPerOp <= 0 {
			t.Fatalf("baseline arm %q has no timing", r.Name)
		}
	}
}
