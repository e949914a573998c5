// Package cfg builds per-function control-flow graphs over go/ast function
// bodies, using only the standard library. It is the path backbone of
// tmlint's dataflow layer: the flow-sensitive cttime analysis walks these
// graphs instead of guessing at source order.
//
// The graph is statement-granular: each basic block holds a run of
// statements with no internal control transfer, and Succs lists the blocks
// control can reach next. Expressions are not split — analyses that care
// about evaluation order inside one statement scan the statement's AST
// in source order, which matches Go's left-to-right evaluation closely
// enough for the properties tmlint checks.
//
// Conservative choices (soundness caveats, also documented in DESIGN.md):
//
//   - A nested function literal is opaque: its body is NOT part of the
//     enclosing graph. Analyses visit literals as separate functions.
//   - `goto` resolves to its label when the label exists in the body;
//     a goto to an unknown label (malformed code) falls through.
//   - `select` and `switch` without a default keep an edge to the join
//     block, modelling "no case ran" (for switch) and "blocked forever is
//     not a path we reason about" (for select).
//   - panic/os.Exit style no-return calls are not modelled; the block
//     keeps its fall-through edge. This only ever makes analyses report
//     less, never more.
package cfg

import (
	"fmt"
	"go/ast"
	"strings"
)

// Block is one basic block: statements executed in order with no internal
// branching, plus the successor edges.
type Block struct {
	// Index is the block's position in Graph.Blocks (stable, deterministic:
	// blocks are numbered in creation order, which follows source order).
	Index int
	// Stmts are the statements of the block in execution order. A
	// *ast.DeferStmt appears here at the point it registers, not where it
	// runs; Graph-level analyses model the deferred call at exits.
	Stmts []ast.Stmt
	// Succs are the blocks control may transfer to after the last
	// statement. The exit block has none.
	Succs []*Block
}

// Graph is the CFG of one function body.
type Graph struct {
	// Entry is where control enters; Exit is the single virtual exit every
	// return and the fall-off-the-end path lead to. Exit holds no
	// statements.
	Entry, Exit *Block
	// Blocks lists every block, Entry first, in creation order.
	Blocks []*Block
}

// builder carries the construction state.
type builder struct {
	g *Graph
	// breakTo / continueTo are the innermost targets; label* the labelled
	// ones.
	breakTo    []*Block
	continueTo []*Block
	labelBreak map[string]*Block
	labelCont  map[string]*Block
	labelStart map[string]*Block
	// pendingGoto records goto statements seen before their label.
	pendingGoto map[string][]*Block
}

// New builds the CFG of a function body. A nil body yields a two-block
// graph (entry → exit) so callers need not special-case extern functions.
func New(body *ast.BlockStmt) *Graph {
	g := &Graph{}
	b := &builder{
		g:           g,
		labelBreak:  make(map[string]*Block),
		labelCont:   make(map[string]*Block),
		labelStart:  make(map[string]*Block),
		pendingGoto: make(map[string][]*Block),
	}
	g.Entry = b.newBlock()
	g.Exit = b.newBlock()
	if body == nil {
		b.edge(g.Entry, g.Exit)
		return g
	}
	last := b.stmtList(g.Entry, body.List)
	if last != nil {
		b.edge(last, g.Exit)
	}
	// Unresolved gotos (labels that never appeared) fall through to exit so
	// the graph stays connected.
	for _, blocks := range b.pendingGoto {
		for _, from := range blocks {
			b.edge(from, g.Exit)
		}
	}
	return g
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// stmtList threads a statement list through the graph starting at cur.
// It returns the block holding control after the list, or nil when every
// path inside transferred away (return/break/…).
func (b *builder) stmtList(cur *Block, list []ast.Stmt) *Block {
	for _, s := range list {
		if cur == nil {
			// Dead code after a terminating statement still gets blocks so
			// analyses see its statements, but nothing flows into them.
			cur = b.newBlock()
		}
		cur = b.stmt(cur, s)
	}
	return cur
}

// stmt adds one statement, returning the live continuation block (nil when
// control never falls through).
func (b *builder) stmt(cur *Block, s ast.Stmt) *Block {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		cur.Stmts = append(cur.Stmts, s)
		b.edge(cur, b.g.Exit)
		return nil

	case *ast.BranchStmt:
		cur.Stmts = append(cur.Stmts, s)
		return b.branch(cur, s)

	case *ast.BlockStmt:
		return b.stmtList(cur, s.List)

	case *ast.IfStmt:
		return b.ifStmt(cur, s)

	case *ast.ForStmt:
		return b.forStmt(cur, s, "")

	case *ast.RangeStmt:
		return b.rangeStmt(cur, s, "")

	case *ast.SwitchStmt:
		return b.switchStmt(cur, s.Init, s.Tag, bodyOf(s.Body), "")

	case *ast.TypeSwitchStmt:
		return b.switchStmt(cur, s.Init, nil, bodyOf(s.Body), "")

	case *ast.SelectStmt:
		return b.selectStmt(cur, s, "")

	case *ast.LabeledStmt:
		return b.labeled(cur, s)

	default:
		// Plain statements (assign, expr, defer, go, send, incdec, decl,
		// empty) stay in the current block.
		cur.Stmts = append(cur.Stmts, s)
		return cur
	}
}

// labeled handles `L: stmt` by exposing L as a goto/break/continue target.
func (b *builder) labeled(cur *Block, s *ast.LabeledStmt) *Block {
	name := s.Label.Name
	// The label starts a fresh block so gotos have a landing point.
	start := b.newBlock()
	b.edge(cur, start)
	b.labelStart[name] = start
	for _, from := range b.pendingGoto[name] {
		b.edge(from, start)
	}
	delete(b.pendingGoto, name)

	switch inner := s.Stmt.(type) {
	case *ast.ForStmt:
		return b.forStmt(start, inner, name)
	case *ast.RangeStmt:
		return b.rangeStmt(start, inner, name)
	case *ast.SwitchStmt:
		return b.switchStmt(start, inner.Init, inner.Tag, bodyOf(inner.Body), name)
	case *ast.TypeSwitchStmt:
		return b.switchStmt(start, inner.Init, nil, bodyOf(inner.Body), name)
	case *ast.SelectStmt:
		return b.selectStmt(start, inner, name)
	default:
		return b.stmt(start, s.Stmt)
	}
}

func (b *builder) branch(cur *Block, s *ast.BranchStmt) *Block {
	switch s.Tok.String() {
	case "break":
		if t := b.branchTarget(s, b.breakTo, b.labelBreak); t != nil {
			b.edge(cur, t)
		}
		return nil
	case "continue":
		if t := b.branchTarget(s, b.continueTo, b.labelCont); t != nil {
			b.edge(cur, t)
		}
		return nil
	case "goto":
		if s.Label != nil {
			if t, ok := b.labelStart[s.Label.Name]; ok {
				b.edge(cur, t)
			} else {
				b.pendingGoto[s.Label.Name] = append(b.pendingGoto[s.Label.Name], cur)
			}
		}
		return nil
	default: // fallthrough is handled by switchStmt; elsewhere it is a no-op
		return cur
	}
}

func (b *builder) branchTarget(s *ast.BranchStmt, stack []*Block, labelled map[string]*Block) *Block {
	if s.Label != nil {
		return labelled[s.Label.Name]
	}
	if len(stack) == 0 {
		return nil
	}
	return stack[len(stack)-1]
}

func (b *builder) ifStmt(cur *Block, s *ast.IfStmt) *Block {
	if s.Init != nil {
		cur = b.stmt(cur, s.Init)
	}
	// The condition evaluates in the current block.
	cur.Stmts = append(cur.Stmts, &ast.ExprStmt{X: s.Cond})
	join := b.newBlock()

	thenBlk := b.newBlock()
	b.edge(cur, thenBlk)
	if after := b.stmtList(thenBlk, s.Body.List); after != nil {
		b.edge(after, join)
	}

	if s.Else != nil {
		elseBlk := b.newBlock()
		b.edge(cur, elseBlk)
		if after := b.stmt(elseBlk, s.Else); after != nil {
			b.edge(after, join)
		}
	} else {
		b.edge(cur, join)
	}
	if len(join.Succs) == 0 && !hasPred(b.g, join) {
		// Both arms terminated; join is dead but harmless.
	}
	return join
}

func (b *builder) forStmt(cur *Block, s *ast.ForStmt, label string) *Block {
	if s.Init != nil {
		cur = b.stmt(cur, s.Init)
	}
	head := b.newBlock()
	b.edge(cur, head)
	if s.Cond != nil {
		head.Stmts = append(head.Stmts, &ast.ExprStmt{X: s.Cond})
	}
	after := b.newBlock()
	post := b.newBlock()

	if s.Cond != nil {
		b.edge(head, after) // condition false
	}
	body := b.newBlock()
	b.edge(head, body)

	b.pushLoop(after, post, label)
	if end := b.stmtList(body, s.Body.List); end != nil {
		b.edge(end, post)
	}
	b.popLoop(label)

	if s.Post != nil {
		post.Stmts = append(post.Stmts, s.Post)
	}
	b.edge(post, head)
	return after
}

func (b *builder) rangeStmt(cur *Block, s *ast.RangeStmt, label string) *Block {
	// Model the range expression evaluation in the current block.
	cur.Stmts = append(cur.Stmts, &ast.ExprStmt{X: s.X})
	head := b.newBlock()
	b.edge(cur, head)
	after := b.newBlock()
	b.edge(head, after) // zero iterations

	body := b.newBlock()
	b.edge(head, body)
	b.pushLoop(after, head, label)
	if end := b.stmtList(body, s.Body.List); end != nil {
		b.edge(end, head)
	}
	b.popLoop(label)
	return after
}

func (b *builder) pushLoop(brk, cont *Block, label string) {
	b.breakTo = append(b.breakTo, brk)
	b.continueTo = append(b.continueTo, cont)
	if label != "" {
		b.labelBreak[label] = brk
		b.labelCont[label] = cont
	}
}

func (b *builder) popLoop(label string) {
	b.breakTo = b.breakTo[:len(b.breakTo)-1]
	b.continueTo = b.continueTo[:len(b.continueTo)-1]
	if label != "" {
		delete(b.labelBreak, label)
		delete(b.labelCont, label)
	}
}

func bodyOf(body *ast.BlockStmt) []ast.Stmt {
	if body == nil {
		return nil
	}
	return body.List
}

// switchStmt covers switch and type switch: each case body branches from
// the head; fallthrough chains to the next case body. A non-nil tag
// expression evaluates in the head block (as a synthetic ExprStmt, like
// if/for conditions), so dataflow analyses see switch dispatch operands.
func (b *builder) switchStmt(cur *Block, init ast.Stmt, tag ast.Expr, clauses []ast.Stmt, label string) *Block {
	if init != nil {
		cur = b.stmt(cur, init)
	}
	if tag != nil {
		cur.Stmts = append(cur.Stmts, &ast.ExprStmt{X: tag})
	}
	join := b.newBlock()
	b.breakTo = append(b.breakTo, join)
	if label != "" {
		b.labelBreak[label] = join
	}

	// First pass: create one body block per clause so fallthrough can jump
	// forward.
	bodies := make([]*Block, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		bodies[i] = b.newBlock()
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			hasDefault = true
		}
	}
	for i, c := range clauses {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		b.edge(cur, bodies[i])
		end := bodies[i]
		for _, s := range cc.Body {
			if br, isBr := s.(*ast.BranchStmt); isBr && br.Tok.String() == "fallthrough" {
				if i+1 < len(bodies) && end != nil {
					b.edge(end, bodies[i+1])
					end = nil
				}
				continue
			}
			if end == nil {
				end = b.newBlock()
			}
			end = b.stmt(end, s)
		}
		if end != nil {
			b.edge(end, join)
		}
	}
	if !hasDefault {
		b.edge(cur, join) // no case matched
	}
	b.breakTo = b.breakTo[:len(b.breakTo)-1]
	if label != "" {
		delete(b.labelBreak, label)
	}
	return join
}

func (b *builder) selectStmt(cur *Block, s *ast.SelectStmt, label string) *Block {
	join := b.newBlock()
	b.breakTo = append(b.breakTo, join)
	if label != "" {
		b.labelBreak[label] = join
	}
	for _, c := range bodyOf(s.Body) {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		body := b.newBlock()
		b.edge(cur, body)
		if cc.Comm != nil {
			body.Stmts = append(body.Stmts, cc.Comm)
		}
		if end := b.stmtList(body, cc.Body); end != nil {
			b.edge(end, join)
		}
	}
	// A select with no ready case blocks; treat "never proceeds" as not a
	// path, but keep the graph connected when the select has no clauses.
	if len(bodyOf(s.Body)) == 0 {
		b.edge(cur, join)
	}
	b.breakTo = b.breakTo[:len(b.breakTo)-1]
	if label != "" {
		delete(b.labelBreak, label)
	}
	return join
}

func hasPred(g *Graph, blk *Block) bool {
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if s == blk {
				return true
			}
		}
	}
	return false
}

// String renders the graph for debugging and tests: one line per block with
// its statement count and successor indices.
func (g *Graph) String() string {
	var sb strings.Builder
	for _, blk := range g.Blocks {
		//lint:ignore errdrop strings.Builder's Write never returns an error
		fmt.Fprintf(&sb, "b%d[%d]:", blk.Index, len(blk.Stmts))
		for _, s := range blk.Succs {
			//lint:ignore errdrop strings.Builder's Write never returns an error
			fmt.Fprintf(&sb, " b%d", s.Index)
		}
		if blk == g.Exit {
			sb.WriteString(" (exit)")
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
