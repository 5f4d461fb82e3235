package lint

import (
	"go/ast"
	"go/token"
)

// This file builds intraprocedural control-flow graphs over Go function
// bodies, the substrate for nrmi-vet's flow-sensitive checks. The design
// goal is faithfulness over the statement forms the repo actually uses —
// if/else, for, range, switch, type switch, select, labeled break and
// continue, goto, defer, early return, panic — with a representation
// simple enough that a check's transfer function is a plain switch over
// ast.Node kinds.
//
// Convention: control-flow statements never appear whole as CFG nodes
// (their bodies are laid out as blocks instead). What appears in
// Block.Nodes is the part of the statement that *executes* when control
// passes through the block:
//
//   - *ast.IfStmt:        its Init statement and Cond expression
//   - *ast.ForStmt:       Init / Cond / Post in their own blocks
//   - *ast.RangeStmt:     the RangeStmt itself, meaning only the header
//     binding (Key, Value := range X) — never the body
//   - *ast.SwitchStmt:    Init, the Tag expression, and each case's
//     comparison expressions at the top of its block
//   - *ast.TypeSwitchStmt: Init and the Assign statement
//   - *ast.SelectStmt:    each clause's Comm statement at the top of its
//     case block
//   - *ast.ReturnStmt:    the statement itself (results are evaluated),
//     followed by an edge to Exit
//
// A call to the predeclared panic terminates its path with no successor
// edge: the function never reaches Exit that way, so must-reach-exit
// properties are not charged to panic paths.
type CFG struct {
	// Entry is the block control enters first; Exit is the single
	// synthetic block every return (and the implicit fallthrough end of
	// the body) flows into.
	Entry, Exit *Block
	// Blocks lists every block, Entry and Exit included, in creation
	// order (entry first, exit second).
	Blocks []*Block
	// Defers lists the defer statements of the function in syntactic
	// (registration) order. Deferred calls run at function exit in
	// reverse of this order; flow-sensitive checks that care model the
	// registration point, which is where the DeferStmt node sits.
	Defers []*ast.DeferStmt
}

// Block is one basic block: nodes execute in order, then control follows
// exactly one successor edge.
type Block struct {
	// Index is the block's position in CFG.Blocks.
	Index int
	// Kind labels the block's syntactic role ("entry", "if.then",
	// "for.head", ...) for tests and debugging.
	Kind string
	// Nodes are the executed statements and expressions, in order.
	Nodes []ast.Node
	// Succs and Preds are the outgoing and incoming edges.
	Succs, Preds []*Edge
}

// Edge is one control-flow edge, optionally guarded by a branch
// condition: when Cond is non-nil the edge is taken exactly when Cond
// evaluates to true (Negated false) or false (Negated true). Dataflow
// analyses may refine facts on guarded edges (see Analysis.TransferEdge).
type Edge struct {
	From, To *Block
	Cond     ast.Expr
	Negated  bool
}

// BuildCFG constructs the control-flow graph of one function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}}
	b.cfg.Entry = b.newBlock("entry")
	b.cfg.Exit = b.newBlock("exit")
	b.cur = b.cfg.Entry
	b.stmtList(body.List)
	if b.cur != nil {
		b.edge(b.cur, b.cfg.Exit, nil, false)
	}
	b.resolveGotos()
	return b.cfg
}

// ctrlFrame tracks the break/continue targets of one enclosing breakable
// construct (loop, switch, or select), with its label when it has one.
type ctrlFrame struct {
	label      string
	breakTo    *Block
	continueTo *Block // non-nil only for loops
}

// pendingGoto is a goto whose label had not been seen yet.
type pendingGoto struct {
	from  *Block
	label string
	pos   token.Pos
}

type cfgBuilder struct {
	cfg *CFG
	// cur is the block under construction; nil after a terminator
	// (return, goto, break, continue, panic) until new reachable code
	// begins.
	cur      *Block
	frames   []ctrlFrame
	labels   map[string]*Block
	gotos    []pendingGoto
	nextCase *Block // fallthrough target while building a switch case
	// pendingLabel is the label to attach to the next loop/switch/select,
	// set while unwrapping a LabeledStmt.
	pendingLabel string
}

func (b *cfgBuilder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.cfg.Blocks), Kind: kind}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block, cond ast.Expr, negated bool) {
	e := &Edge{From: from, To: to, Cond: cond, Negated: negated}
	from.Succs = append(from.Succs, e)
	to.Preds = append(to.Preds, e)
}

// node appends an executed node to the current block, opening a detached
// (unreachable) block when the previous statement terminated the path.
func (b *cfgBuilder) node(n ast.Node) {
	if n == nil {
		return
	}
	b.ensure("dead")
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// ensure guarantees a current block exists.
func (b *cfgBuilder) ensure(kind string) {
	if b.cur == nil {
		b.cur = b.newBlock(kind)
	}
}

func (b *cfgBuilder) stmtList(stmts []ast.Stmt) {
	for _, s := range stmts {
		b.stmt(s)
	}
}

// takeLabel consumes the pending label for a labeled loop/switch/select.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(st.List)

	case *ast.LabeledStmt:
		b.ensure("label." + st.Label.Name)
		// Give the label its own block so gotos have a join point.
		lb := b.newBlock("label." + st.Label.Name)
		b.edge(b.cur, lb, nil, false)
		b.cur = lb
		if b.labels == nil {
			b.labels = make(map[string]*Block)
		}
		b.labels[st.Label.Name] = lb
		b.pendingLabel = st.Label.Name
		b.stmt(st.Stmt)
		b.pendingLabel = ""

	case *ast.IfStmt:
		b.ifStmt(st)

	case *ast.ForStmt:
		b.forStmt(st)

	case *ast.RangeStmt:
		b.rangeStmt(st)

	case *ast.SwitchStmt:
		b.switchStmt(st)

	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(st)

	case *ast.SelectStmt:
		b.selectStmt(st)

	case *ast.ReturnStmt:
		b.node(st)
		b.edge(b.cur, b.cfg.Exit, nil, false)
		b.cur = nil

	case *ast.BranchStmt:
		b.branchStmt(st)

	case *ast.DeferStmt:
		b.node(st)
		b.cfg.Defers = append(b.cfg.Defers, st)

	case *ast.ExprStmt:
		b.node(st)
		if isPanicCall(st.X) {
			b.cur = nil // the path ends here; no edge, not even to Exit
		}

	case *ast.EmptyStmt:
		// nothing executes

	default:
		// AssignStmt, DeclStmt, IncDecStmt, SendStmt, GoStmt, ...
		b.node(st)
	}
}

// isPanicCall reports whether e is a direct call to the predeclared
// panic. Shadowed local panics are rare enough to ignore: treating a
// shadowing call as a terminator only under-approximates reachable code.
func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

func (b *cfgBuilder) ifStmt(st *ast.IfStmt) {
	b.node(st.Init)
	b.node(st.Cond)
	cond := b.cur
	join := b.newBlock("if.join")
	then := b.newBlock("if.then")
	b.edge(cond, then, st.Cond, false)
	b.cur = then
	b.stmtList(st.Body.List)
	if b.cur != nil {
		b.edge(b.cur, join, nil, false)
	}
	if st.Else != nil {
		els := b.newBlock("if.else")
		b.edge(cond, els, st.Cond, true)
		b.cur = els
		b.stmt(st.Else)
		if b.cur != nil {
			b.edge(b.cur, join, nil, false)
		}
	} else {
		b.edge(cond, join, st.Cond, true)
	}
	b.cur = join
}

func (b *cfgBuilder) forStmt(st *ast.ForStmt) {
	label := b.takeLabel()
	b.node(st.Init)
	head := b.newBlock("for.head")
	b.ensure("dead")
	b.edge(b.cur, head, nil, false)
	body := b.newBlock("for.body")
	join := b.newBlock("for.join")
	if st.Cond != nil {
		head.Nodes = append(head.Nodes, st.Cond)
		b.edge(head, body, st.Cond, false)
		b.edge(head, join, st.Cond, true)
	} else {
		b.edge(head, body, nil, false)
	}
	// continue runs Post (when present) before re-testing the condition.
	backTo := head
	var post *Block
	if st.Post != nil {
		post = b.newBlock("for.post")
		post.Nodes = append(post.Nodes, st.Post)
		b.edge(post, head, nil, false)
		backTo = post
	}
	b.frames = append(b.frames, ctrlFrame{label: label, breakTo: join, continueTo: backTo})
	b.cur = body
	b.stmtList(st.Body.List)
	if b.cur != nil {
		b.edge(b.cur, backTo, nil, false)
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = join
}

func (b *cfgBuilder) rangeStmt(st *ast.RangeStmt) {
	label := b.takeLabel()
	head := b.newBlock("range.head")
	b.ensure("dead")
	b.edge(b.cur, head, nil, false)
	// The RangeStmt node stands for its header only: the binding of
	// Key, Value from the ranged expression on each iteration.
	head.Nodes = append(head.Nodes, st)
	body := b.newBlock("range.body")
	join := b.newBlock("range.join")
	b.edge(head, body, nil, false)
	b.edge(head, join, nil, false)
	b.frames = append(b.frames, ctrlFrame{label: label, breakTo: join, continueTo: head})
	b.cur = body
	b.stmtList(st.Body.List)
	if b.cur != nil {
		b.edge(b.cur, head, nil, false)
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = join
}

func (b *cfgBuilder) switchStmt(st *ast.SwitchStmt) {
	label := b.takeLabel()
	b.node(st.Init)
	b.node(st.Tag)
	header := b.cur
	join := b.newBlock("switch.join")
	b.frames = append(b.frames, ctrlFrame{label: label, breakTo: join})

	var caseBlocks []*Block
	var clauses []*ast.CaseClause
	hasDefault := false
	for _, c := range st.Body.List {
		cc := c.(*ast.CaseClause)
		cb := b.newBlock("switch.case")
		for _, e := range cc.List {
			cb.Nodes = append(cb.Nodes, e)
		}
		if cc.List == nil {
			hasDefault = true
		}
		b.edge(header, cb, nil, false)
		caseBlocks = append(caseBlocks, cb)
		clauses = append(clauses, cc)
	}
	if !hasDefault {
		b.edge(header, join, nil, false)
	}
	for i, cc := range clauses {
		b.cur = caseBlocks[i]
		b.nextCase = nil
		if i+1 < len(caseBlocks) {
			b.nextCase = caseBlocks[i+1]
		}
		b.stmtList(cc.Body)
		b.nextCase = nil
		if b.cur != nil {
			b.edge(b.cur, join, nil, false)
		}
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = join
}

func (b *cfgBuilder) typeSwitchStmt(st *ast.TypeSwitchStmt) {
	label := b.takeLabel()
	b.node(st.Init)
	b.node(st.Assign)
	header := b.cur
	join := b.newBlock("typeswitch.join")
	b.frames = append(b.frames, ctrlFrame{label: label, breakTo: join})
	hasDefault := false
	for _, c := range st.Body.List {
		cc := c.(*ast.CaseClause)
		cb := b.newBlock("typeswitch.case")
		if cc.List == nil {
			hasDefault = true
		}
		b.edge(header, cb, nil, false)
		b.cur = cb
		b.stmtList(cc.Body)
		if b.cur != nil {
			b.edge(b.cur, join, nil, false)
		}
	}
	if !hasDefault {
		b.edge(header, join, nil, false)
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = join
}

func (b *cfgBuilder) selectStmt(st *ast.SelectStmt) {
	label := b.takeLabel()
	b.ensure("select.head")
	header := b.cur
	join := b.newBlock("select.join")
	b.frames = append(b.frames, ctrlFrame{label: label, breakTo: join})
	for _, c := range st.Body.List {
		cc := c.(*ast.CommClause)
		cb := b.newBlock("select.case")
		if cc.Comm != nil {
			cb.Nodes = append(cb.Nodes, cc.Comm)
		}
		b.edge(header, cb, nil, false)
		b.cur = cb
		b.stmtList(cc.Body)
		if b.cur != nil {
			b.edge(b.cur, join, nil, false)
		}
	}
	// A select blocks until one of its cases fires: with no clauses at
	// all (select {}) it blocks forever, so the join is unreachable.
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = join
}

func (b *cfgBuilder) branchStmt(st *ast.BranchStmt) {
	b.ensure("dead")
	switch st.Tok {
	case token.BREAK:
		for i := len(b.frames) - 1; i >= 0; i-- {
			f := b.frames[i]
			if f.breakTo == nil {
				continue
			}
			if st.Label == nil || f.label == st.Label.Name {
				b.edge(b.cur, f.breakTo, nil, false)
				break
			}
		}
	case token.CONTINUE:
		for i := len(b.frames) - 1; i >= 0; i-- {
			f := b.frames[i]
			if f.continueTo == nil {
				continue
			}
			if st.Label == nil || f.label == st.Label.Name {
				b.edge(b.cur, f.continueTo, nil, false)
				break
			}
		}
	case token.GOTO:
		if st.Label != nil {
			if target, ok := b.labels[st.Label.Name]; ok {
				b.edge(b.cur, target, nil, false)
			} else {
				b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: st.Label.Name, pos: st.Pos()})
			}
		}
	case token.FALLTHROUGH:
		if b.nextCase != nil {
			b.edge(b.cur, b.nextCase, nil, false)
		}
	}
	b.cur = nil
}

// resolveGotos patches forward gotos once every label block exists.
// A goto to a label that never appears (a compile error) is dropped.
func (b *cfgBuilder) resolveGotos() {
	for _, g := range b.gotos {
		if target, ok := b.labels[g.label]; ok {
			b.edge(g.from, target, nil, false)
		}
	}
	b.gotos = nil
}

// Reachable returns the set of blocks reachable from Entry.
func (g *CFG) Reachable() map[*Block]bool {
	seen := make(map[*Block]bool)
	stack := []*Block{g.Entry}
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[blk] {
			continue
		}
		seen[blk] = true
		for _, e := range blk.Succs {
			if !seen[e.To] {
				stack = append(stack, e.To)
			}
		}
	}
	return seen
}
