package dataflow

// Constant-time discipline analysis (the cttime analyzer's engine).
//
// The question is "does a secret-derived value influence TIMING?" — by
// reaching a branch, loop or switch condition, a slice/array/map index, a
// variable-width math/big accessor (Bytes, BitLen, …), or a function
// annotated //tmlint:vartime (the verification kernels, whose ladder branch
// pattern follows operand digits).
//
// Two deliberate design choices:
//
//   - math/big is NOT a declassification boundary. Arithmetic results stay
//     tainted (c·x is as secret as x for timing purposes), FillBytes taints
//     its destination buffer, and the variable-width accessors are sinks.
//     Other unknown external calls still declassify: the stock
//     crypto/elliptic P-256 ops are constant-time with respect to scalar
//     value, and sha256 output is public.
//
//   - The per-function pass is FLOW-SENSITIVE over the cfg package's
//     statement-granular CFG. The signing hot path writes the secret
//     closing response into s[π] AFTER the decoy loop has fed s[i] to the
//     variable-time kernels; a flow-insensitive pass would smear that
//     late secret write over the whole slice and flag every decoy read.
//     Flow-sensitivity keeps the real code clean without suppressions
//     while still catching a secret that flows into the loop.
//
// Soundness caveats (documented in DESIGN.md "Constant-time policy"):
// returning a value declassifies it — published outputs (the closing
// response scalar s = α − c·x, the signature struct) are public by
// construction, and functions whose results genuinely stay secret must say
// so with //tmlint:secret. Error-typed values are likewise public
// control-flow signals. math/big arithmetic itself (Mul, Mod, ModInverse)
// is big-int limb arithmetic and not strictly constant-time; the scheme
// necessarily computes on secrets, so arithmetic is propagation, not a
// sink. Range loop trip counts and aggregate element/length conflation are
// tracked coarsely: ranging over a tainted collection taints the iteration
// variables but is not itself a sink.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"tokenmagic/internal/analysis/cfg"
)

// Taint masks: bit min(i, 61) means "derived from parameter i", ctRecvBit
// "derived from the receiver", and secretBit "derived from a declared
// secret" (a //tmlint:secret field, parameter, or result).
const (
	ctRecvBit uint64 = 1 << 62
	secretBit uint64 = 1 << 63
)

// SinkFlow records that a parameter's value reaches a timing sink.
type SinkFlow struct {
	// Sink names the sink ("branch condition", "variable-width big.Int.Bytes").
	Sink string
	// Via names the intermediate module function when the flow is
	// indirect, "" for a direct sink in the summarized function.
	Via string
}

// CTSummary is the cttime fact for one function: which parameters reach
// timing sinks (directly or through callees) and which flow to results.
// Key -1 stands for the method receiver.
type CTSummary struct {
	ParamSinks    map[int]SinkFlow
	ParamToResult map[int]bool
}

func newCTSummary() *CTSummary {
	return &CTSummary{ParamSinks: make(map[int]SinkFlow), ParamToResult: make(map[int]bool)}
}

func (s *CTSummary) equal(o *CTSummary) bool {
	if len(s.ParamSinks) != len(o.ParamSinks) || len(s.ParamToResult) != len(o.ParamToResult) {
		return false
	}
	for k, v := range s.ParamSinks {
		if o.ParamSinks[k] != v {
			return false
		}
	}
	for k := range s.ParamToResult {
		if !o.ParamToResult[k] {
			return false
		}
	}
	return true
}

// ctVarWidth lists the math/big methods whose running time (or output
// length) depends on the receiver's value: the width side channels.
// Cmp/Sign/Bit are excluded — their results propagate taint and the branch
// they feed is the reported sink.
var ctVarWidth = map[string]bool{
	"Bytes": true, "Bits": true, "BitLen": true, "TrailingZeroBits": true,
	"Text": true, "String": true, "Append": true, "Format": true,
	"MarshalText": true, "MarshalJSON": true, "GobEncode": true,
}

var ctErrorType = types.Universe.Lookup("error").Type()

// CTTime computes every function's constant-time summary to fixpoint, then
// collects secret-timing findings. The result is memoized on the Program.
func (p *Program) CTTime() []Finding {
	p.ctOnce.Do(func() {
		infos := make(map[*Func]*ctFuncInfo, len(p.ordered))
		for _, fn := range p.ordered {
			fn.ct = newCTSummary()
			infos[fn] = buildCTInfo(fn)
		}
		for round := 0; round < len(p.ordered)+2; round++ {
			changed := false
			for _, fn := range p.ordered {
				sum, _ := p.ctAnalyze(fn, infos[fn], false)
				if !sum.equal(fn.ct) {
					fn.ct = sum
					changed = true
				}
			}
			if !changed {
				break
			}
		}
		var out []Finding
		seen := make(map[string]bool)
		for _, fn := range p.ordered {
			_, fs := p.ctAnalyze(fn, infos[fn], true)
			for _, f := range fs {
				key := fmt.Sprintf("%d:%s", f.Pos, f.Message)
				if !seen[key] {
					seen[key] = true
					out = append(out, f)
				}
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
		p.ctFindings = out
	})
	return p.ctFindings
}

// ctFuncInfo caches the per-function structures the rounds reuse: the CFG,
// the condition expressions (which the CFG wraps in synthetic ExprStmts),
// the range statements keyed by their range expression, and the graphs of
// nested function literals.
type ctFuncInfo struct {
	graph     *cfg.Graph
	conds     map[ast.Expr]string
	ranges    map[ast.Expr]*ast.RangeStmt
	litGraphs []*cfg.Graph
}

func buildCTInfo(fn *Func) *ctFuncInfo {
	info := &ctFuncInfo{
		graph:  cfg.New(fn.Decl.Body),
		conds:  make(map[ast.Expr]string),
		ranges: make(map[ast.Expr]*ast.RangeStmt),
	}
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			info.conds[n.Cond] = "branch condition"
		case *ast.ForStmt:
			if n.Cond != nil {
				info.conds[n.Cond] = "loop condition"
			}
		case *ast.SwitchStmt:
			if n.Tag != nil {
				info.conds[n.Tag] = "switch condition"
			}
		case *ast.RangeStmt:
			info.ranges[n.X] = n
		case *ast.FuncLit:
			info.litGraphs = append(info.litGraphs, cfg.New(n.Body))
		}
		return true
	})
	return info
}

// ctEnv maps objects to taint masks at one program point.
type ctEnv map[types.Object]uint64

func cloneEnv(e ctEnv) ctEnv {
	out := make(ctEnv, len(e))
	for k, v := range e {
		out[k] = v
	}
	return out
}

// mergeEnv unions src into dst, reporting whether dst changed.
func mergeEnv(dst, src ctEnv) bool {
	changed := false
	for k, v := range src {
		if dst[k]|v != dst[k] {
			dst[k] |= v
			changed = true
		}
	}
	return changed
}

// ctAnalyze runs the flow-sensitive pass over one function (body plus
// nested literals) and returns its summary and, when record is set, its
// findings.
func (p *Program) ctAnalyze(fn *Func, info *ctFuncInfo, record bool) (*CTSummary, []Finding) {
	st := &ctState{prog: p, fn: fn, info: info, sum: newCTSummary(), record: record}
	pool := st.run(info.graph, st.paramEnv())
	for _, g := range info.litGraphs {
		// A closure runs at unknown times with respect to the enclosing
		// body, so it sees a conservative union of every state the
		// enclosing analysis ever computed (plus earlier literals').
		litUnion := st.run(g, cloneEnv(pool))
		mergeEnv(pool, litUnion)
	}
	return st.sum, st.findings
}

// ctState evaluates one function; cur is the env at the statement being
// transferred.
type ctState struct {
	prog     *Program
	fn       *Func
	info     *ctFuncInfo
	sum      *CTSummary
	cur      ctEnv
	collect  bool // record summary flows and findings (post-fixpoint sweep)
	record   bool
	findings []Finding
}

func (st *ctState) paramEnv() ctEnv {
	env := make(ctEnv)
	sig := st.fn.Obj.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		mask := uint64(1) << uint(min(i, 61))
		if st.fn.SecretParams[i] {
			mask |= secretBit
		}
		env[sig.Params().At(i)] = mask
	}
	if recv := sig.Recv(); recv != nil {
		env[recv] = ctRecvBit
	}
	return env
}

// run iterates the worklist over one graph to fixpoint, then sweeps every
// reached block once with collection on. It returns the union of all final
// block states (the seed for nested literals).
func (st *ctState) run(g *cfg.Graph, entry ctEnv) ctEnv {
	in := make([]ctEnv, len(g.Blocks))
	in[g.Entry.Index] = entry
	work := []*cfg.Block{g.Entry}
	queued := make([]bool, len(g.Blocks))
	queued[g.Entry.Index] = true

	st.collect = false
	for guard := 0; len(work) > 0 && guard < 1<<20; guard++ {
		b := work[0]
		work = work[1:]
		queued[b.Index] = false
		st.cur = cloneEnv(in[b.Index])
		for _, s := range b.Stmts {
			st.transferStmt(s)
		}
		for _, succ := range b.Succs {
			if in[succ.Index] == nil {
				in[succ.Index] = cloneEnv(st.cur)
			} else if !mergeEnv(in[succ.Index], st.cur) {
				continue
			}
			if !queued[succ.Index] {
				queued[succ.Index] = true
				work = append(work, succ)
			}
		}
	}

	st.collect = true
	union := make(ctEnv)
	for i, b := range g.Blocks {
		if in[i] == nil {
			continue // unreachable (dead code): nothing flows here
		}
		st.cur = cloneEnv(in[i])
		for _, s := range b.Stmts {
			st.transferStmt(s)
		}
		mergeEnv(union, st.cur)
	}
	st.collect = false
	return union
}

func (st *ctState) transferStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if kind, ok := st.info.conds[s.X]; ok {
			st.sink(st.eval(s.X), s.X.Pos(), kind, "")
			return
		}
		if r, ok := st.info.ranges[s.X]; ok {
			m := st.eval(s.X)
			if r.Key != nil {
				st.assignOne(r.Key, m)
			}
			if r.Value != nil {
				st.assignOne(r.Value, m)
			}
			return
		}
		st.eval(s.X)
	case *ast.AssignStmt:
		if s.Tok != token.ASSIGN && s.Tok != token.DEFINE && len(s.Lhs) == 1 && len(s.Rhs) == 1 {
			// Compound assignment (x += y) keeps x's own taint.
			st.assignOne(s.Lhs[0], st.eval(s.Lhs[0])|st.eval(s.Rhs[0]))
			return
		}
		st.assign(s.Lhs, s.Rhs)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, id := range vs.Names {
						lhs[i] = id
					}
					st.assign(lhs, vs.Values)
				}
			}
		}
	case *ast.IncDecStmt:
		st.eval(s.X)
	case *ast.ReturnStmt:
		for _, res := range s.Results {
			m := st.eval(res)
			if !st.collect {
				continue
			}
			for b := 0; b < 62; b++ {
				if m&(1<<uint(b)) != 0 {
					st.sum.ParamToResult[b] = true
				}
			}
			if m&ctRecvBit != 0 {
				st.sum.ParamToResult[-1] = true
			}
		}
	case *ast.SendStmt:
		st.eval(s.Chan)
		st.eval(s.Value)
	case *ast.GoStmt:
		st.eval(s.Call)
	case *ast.DeferStmt:
		st.eval(s.Call)
	}
}

func (st *ctState) assign(lhs, rhs []ast.Expr) {
	if len(rhs) == 1 && len(lhs) > 1 {
		m := st.eval(rhs[0])
		for _, l := range lhs {
			st.assignOne(l, m)
		}
		return
	}
	for i, l := range lhs {
		if i < len(rhs) {
			st.assignOne(l, st.eval(rhs[i]))
		}
	}
}

// assignOne writes mask into the target: strong update for plain
// identifiers (so a clean overwrite really cleans), weak (accumulating)
// update through fields, indices and pointers, which may alias.
func (st *ctState) assignOne(l ast.Expr, m uint64) {
	if t := st.fn.Pkg.Info.TypeOf(l); t != nil && types.Identical(t, ctErrorType) {
		// Errors are public control-flow signals: `if err != nil` after a
		// call with secret operands is not a timing leak of the secret.
		m = 0
	}
	switch l := ast.Unparen(l).(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		var obj types.Object = st.fn.Pkg.Info.Defs[l]
		if obj == nil {
			obj = st.fn.Pkg.Info.Uses[l]
		}
		if obj != nil {
			st.cur[obj] = m
		}
	case *ast.SelectorExpr:
		st.taintWeak(l.X, m)
	case *ast.IndexExpr:
		st.sinkIndex(l)
		st.taintWeak(l.X, m)
	case *ast.StarExpr:
		st.taintWeak(l.X, m)
	}
}

// taintWeak ORs mask into the object behind an assignable expression.
func (st *ctState) taintWeak(e ast.Expr, m uint64) {
	if m == 0 {
		return
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return
		}
		var obj types.Object = st.fn.Pkg.Info.Defs[e]
		if obj == nil {
			obj = st.fn.Pkg.Info.Uses[e]
		}
		if obj != nil {
			st.cur[obj] |= m
		}
	case *ast.SelectorExpr:
		st.taintWeak(e.X, m)
	case *ast.IndexExpr:
		st.taintWeak(e.X, m)
	case *ast.StarExpr:
		st.taintWeak(e.X, m)
	case *ast.SliceExpr:
		st.taintWeak(e.X, m)
	}
}

func (st *ctState) isNil(e ast.Expr) bool {
	tv, ok := st.fn.Pkg.Info.Types[e]
	return ok && tv.IsNil()
}

// sinkIndex reports the index/key expression of an element access when it
// is secret-derived (table lookups and map probes are address side
// channels).
func (st *ctState) sinkIndex(e *ast.IndexExpr) {
	st.sink(st.eval(e.Index), e.Index.Pos(), "slice/map index", "")
}

func (st *ctState) eval(e ast.Expr) uint64 {
	// Compile-time constants are public whatever they mention — len of a
	// fixed-size array over a secret buffer is the type's length, not data.
	if tv, ok := st.fn.Pkg.Info.Types[e]; ok && tv.Value != nil {
		return 0
	}
	switch e := e.(type) {
	case *ast.Ident:
		var obj types.Object = st.fn.Pkg.Info.Uses[e]
		if obj == nil {
			obj = st.fn.Pkg.Info.Defs[e]
		}
		return st.cur[obj]
	case *ast.SelectorExpr:
		var m uint64
		if sel, ok := st.fn.Pkg.Info.Selections[e]; ok {
			if v, isVar := sel.Obj().(*types.Var); isVar && st.prog.SecretFields[v] {
				m |= secretBit
			}
			m |= st.eval(e.X)
			return m
		}
		if obj := st.fn.Pkg.Info.Uses[e.Sel]; obj != nil {
			if v, isVar := obj.(*types.Var); isVar && st.prog.SecretFields[v] {
				return secretBit
			}
			return st.cur[obj]
		}
		return 0
	case *ast.CallExpr:
		return st.evalCall(e)
	case *ast.BinaryExpr:
		// A pointer/interface nil check observes structure, not the
		// secret's value; branching on it is not a data-dependent leak.
		if (e.Op == token.EQL || e.Op == token.NEQ) && (st.isNil(e.X) || st.isNil(e.Y)) {
			return 0
		}
		return st.eval(e.X) | st.eval(e.Y)
	case *ast.UnaryExpr:
		return st.eval(e.X)
	case *ast.StarExpr:
		return st.eval(e.X)
	case *ast.ParenExpr:
		return st.eval(e.X)
	case *ast.IndexExpr:
		if tv, ok := st.fn.Pkg.Info.Types[e.X]; ok && tv.IsType() {
			return 0 // generic instantiation, not an element access
		}
		st.sinkIndex(e)
		return st.eval(e.X) | st.eval(e.Index)
	case *ast.SliceExpr:
		m := st.eval(e.X)
		if e.Low != nil {
			m |= st.eval(e.Low)
		}
		if e.High != nil {
			m |= st.eval(e.High)
		}
		if e.Max != nil {
			m |= st.eval(e.Max)
		}
		return m
	case *ast.TypeAssertExpr:
		return st.eval(e.X)
	case *ast.CompositeLit:
		var m uint64
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				m |= st.eval(kv.Value)
			} else {
				m |= st.eval(el)
			}
		}
		return m
	case *ast.KeyValueExpr:
		return st.eval(e.Value)
	}
	return 0
}

func (st *ctState) evalCall(call *ast.CallExpr) uint64 {
	args := make([]uint64, len(call.Args))
	var all uint64
	for i, a := range call.Args {
		args[i] = st.eval(a)
		all |= args[i]
	}
	// Builtins (append, copy, len, min, max, …) pass taint through: the
	// length of a secret-derived value is itself secret-derived.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := st.fn.Pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			return all
		}
	}
	callee := CalleeOf(st.fn.Pkg.Info, call)
	if callee == nil {
		// Conversions pass taint through; indirect calls drop it.
		if tv, ok := st.fn.Pkg.Info.Types[call.Fun]; ok && tv.IsType() {
			return all
		}
		return 0
	}
	var recvMask uint64
	var recvExpr ast.Expr
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if sig, isSig := callee.Type().(*types.Signature); isSig && sig.Recv() != nil {
			recvExpr = sel.X
			recvMask = st.eval(sel.X)
		}
	}
	if callee.Pkg() != nil && callee.Pkg().Path() == "math/big" && recvExpr != nil {
		// math/big arithmetic propagates (c·x is as secret as x for timing
		// purposes); the variable-width accessors are sinks; FillBytes is
		// the sanctioned fixed-width encoder but taints its buffer.
		m := recvMask | all
		if ctVarWidth[callee.Name()] {
			st.sink(recvMask, call.Pos(), "variable-width big.Int."+callee.Name(), "")
		}
		if callee.Name() == "FillBytes" && len(call.Args) == 1 {
			st.taintWeak(call.Args[0], m)
		}
		// Most big.Int methods mutate their receiver (z.Mul(x, y) sets z).
		st.taintWeak(recvExpr, m)
		return m
	}
	local := st.prog.Funcs[callee]
	if local == nil {
		// Unknown external call: declassification boundary. The stock
		// crypto/elliptic P-256 ops are constant-time in the scalar and
		// hash outputs are public.
		return 0
	}
	sig := callee.Type().(*types.Signature)
	if local.Vartime {
		vt := "variable-time function " + local.Name()
		if recvExpr != nil {
			st.sink(recvMask, recvExpr.Pos(), vt, "")
		}
		for i, m := range args {
			st.sink(m, call.Args[i].Pos(), vt, "")
		}
	}
	sum := local.ct
	if sum == nil {
		sum = newCTSummary()
	}
	var res uint64
	apply := func(pi int, m uint64, pos token.Pos) {
		if m == 0 {
			return
		}
		// A vartime callee's internal flows are subsumed by the vartime
		// report above; only its result propagation still applies.
		if !local.Vartime {
			if flow, ok := sum.ParamSinks[pi]; ok {
				st.sink(m, pos, flow.Sink, local.Name())
			}
		}
		if sum.ParamToResult[pi] {
			res |= m
		}
	}
	if recvExpr != nil {
		apply(-1, recvMask, recvExpr.Pos())
	}
	for i, m := range args {
		pi := paramIndex(sig, i)
		if pi < 0 {
			continue
		}
		apply(pi, m, call.Args[i].Pos())
	}
	if local.SecretResults {
		res |= secretBit
	}
	return res
}

// sink records a flow into a timing sink: a summary entry for every
// parameter/receiver bit in mask, and (in the findings sweep) a diagnostic
// when the value is secret-derived.
func (st *ctState) sink(mask uint64, pos token.Pos, sinkName, via string) {
	if mask == 0 || !st.collect {
		return
	}
	flow := SinkFlow{Sink: sinkName, Via: via}
	for b := 0; b < 62; b++ {
		if mask&(1<<uint(b)) == 0 {
			continue
		}
		if _, ok := st.sum.ParamSinks[b]; !ok {
			st.sum.ParamSinks[b] = flow
		}
	}
	if mask&ctRecvBit != 0 {
		if _, ok := st.sum.ParamSinks[-1]; !ok {
			st.sum.ParamSinks[-1] = flow
		}
	}
	if st.record && mask&secretBit != 0 {
		if via != "" {
			st.finding(pos, "secret-dependent value reaches %s via call to %s", sinkName, via)
		} else {
			st.finding(pos, "secret-dependent value reaches %s", sinkName)
		}
	}
}

func (st *ctState) finding(pos token.Pos, format string, a ...any) {
	st.findings = append(st.findings, Finding{
		Pos:     pos,
		PkgPath: st.fn.Pkg.Path,
		Message: fmt.Sprintf(format, a...),
	})
}
