package trace

import (
	"context"
	"testing"
)

// BenchmarkSpendTrace records one spend-shaped trace per iteration: the
// spans a single-attempt POST /v1/spend opens, with their annotations, and
// the Finish that files the trace in the collector.
func BenchmarkSpendTrace(b *testing.B) {
	c := NewCollector()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx, tr := New(context.Background(), c, "bench")
		_, qw := StartSpan(ctx, "queue-wait")
		qw.End()
		_, sample := StartSpan(ctx, "sample")
		sample.AnnotateInt("universe", 100)
		sample.AnnotateInt("solves", 100)
		sample.AnnotateInt("candidates", 12)
		sample.AnnotateInt("solve_us", 4200)
		sample.End()
		for _, name := range []string{"sign", "verify-sig"} {
			_, sp := StartSpan(ctx, name)
			sp.AnnotateInt("ring_size", 12)
			sp.End()
		}
		cctx, commit := StartSpan(ctx, "commit")
		_, verify := StartSpan(cctx, "verify")
		verify.Annotate("verdict", "admit")
		verify.End()
		commit.End()
		tr.Finish("200")
	}
}
