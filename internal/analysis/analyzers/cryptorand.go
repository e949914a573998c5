package analyzers

import (
	"go/ast"

	"tokenmagic/internal/analysis"
)

// Cryptorand forbids math/rand in the anonymity-critical paths. The bLSAG
// layer's unlinkability is only as good as its signer randomness (cf.
// "Privacy on the Blockchain: Unique Ring Signatures"), so inside
// internal/ringsig and the TokenMagic sampling layer any call that draws
// from math/rand's global source — or constructs a generator locally — is
// a finding. Holding an injected *rand.Rand (which
// tokenmagic.New seeds from crypto/rand unless the caller supplies a
// deterministic one for sim/tests) is allowed: the construction site, not
// the use site, is where seed quality is decided.
var Cryptorand = &analysis.Analyzer{
	Name: "cryptorand",
	Doc: "forbid math/rand calls in signing/selection paths " +
		"(internal/ringsig, internal/tokenmagic); " +
		"randomness must be injected, crypto-seeded by default",
	Scope: []string{
		"tokenmagic/internal/ringsig",
		"tokenmagic/internal/tokenmagic",
	},
	Run: runCryptorand,
}

func runCryptorand(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil {
				return true
			}
			if pkgFunc(fn, "math/rand") || pkgFunc(fn, "math/rand/v2") {
				pass.Reportf(call.Pos(),
					"%s.%s in an anonymity-critical path: use the injected *rand.Rand (crypto-seeded by default) or crypto/rand",
					fn.Pkg().Path(), fn.Name())
			}
			return true
		})
	}
	return nil
}
