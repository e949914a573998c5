package analyzers

import (
	"tokenmagic/internal/analysis"
	"tokenmagic/internal/analysis/dataflow"
)

// Hotalloc keeps the //tmlint:hotpath functions — the diversity slack
// probes, the solvers' inner loops and the candidate sweep's seed
// derivation, whose 0 allocs/op the benchmarks assert —
// free of allocating constructs: map/slice literals, make/new, append
// whose result escapes its source, closures capturing outer variables, and
// concrete→interface boxing at call sites. Callees are checked one level
// deep: a hotpath function calling a helper that allocates is reported at
// the call site (//lint:ignore hotalloc on the helper's line declassifies
// it everywhere, so amortized warm-ups stay allowed with one reason).
var Hotalloc = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "//tmlint:hotpath functions must not allocate (literals, make/new, " +
		"escaping append, capturing closures, interface boxing), callees checked depth-1",
	Run: runHotalloc,
}

func runHotalloc(pass *analysis.Pass) error {
	prog, err := dataflow.Get(pass)
	if err != nil {
		return err
	}
	for _, fn := range prog.FuncsIn(pass.Pkg.Path()) {
		if !fn.Hotpath {
			continue
		}
		for _, a := range prog.AllocsOf(fn) {
			pass.Reportf(a.Pos, "hotpath function %s allocates: %s", fn.Name(), a.What)
		}
		for _, c := range fn.Calls {
			callee := prog.FuncAt(c.Callee)
			if callee == nil || callee.Hotpath {
				// Hotpath callees are reported on their own declarations.
				continue
			}
			if allocs := prog.AllocsOf(callee); len(allocs) > 0 {
				pass.Reportf(c.Site.Pos(), "hotpath function %s calls %s, which allocates (%s)",
					fn.Name(), callee.Name(), allocs[0].What)
			}
		}
	}
	return nil
}
