package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// checkInterceptorDiscipline implements the interceptor-discipline
// check. An Interceptor receives the continuation as its next parameter;
// the contract is: invoke next exactly once to proceed, or return a
// non-nil error to veto. Three violations are flagged:
//
//   - the body never references next at all: the remote call can never
//     proceed, yet the signature promises a pass-through;
//   - a path returns a literal nil without having invoked next: the
//     caller observes success for a call that never ran;
//   - next may be invoked more than once (two sequential calls, or a
//     call inside a loop): the remote method would execute twice,
//     breaking at-most-once semantics.
//
// Handing next a fresh context.Background()/TODO() is ctx-propagation's
// finding: an interceptor is one more function that receives a context.
//
// When next escapes as a value (assigned, passed along — as in
// ChainInterceptors), the body is skipped: the analysis only reasons
// about direct calls.
func checkInterceptorDiscipline(p *Package) []Diagnostic {
	if p.Pkg == nil {
		return nil
	}
	var diags []Diagnostic
	emit := func(pos token.Pos, msg string) {
		diags = append(diags, Diagnostic{
			Pos:     p.Fset.Position(pos),
			Check:   "interceptor-discipline",
			Message: msg,
		})
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var ftype *ast.FuncType
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Recv != nil || fn.Body == nil {
					return true
				}
				ftype, body = fn.Type, fn.Body
			case *ast.FuncLit:
				ftype, body = fn.Type, fn.Body
			default:
				return true
			}
			sig, ok := p.Info.Types[toExpr(n)].Type.(*types.Signature)
			if !ok {
				if decl, isDecl := n.(*ast.FuncDecl); isDecl {
					if obj, okd := p.Info.Defs[decl.Name].(*types.Func); okd {
						sig, ok = obj.Type().(*types.Signature), true
					}
				}
			}
			if !ok || sig == nil || !isInterceptorSig(sig) {
				return true
			}
			analyzeInterceptorBody(p, ftype, body, emit)
			return true
		})
	}
	return diags
}

// toExpr returns n as an expression when it is one (FuncLit), nil
// otherwise; used to look up the literal's type.
func toExpr(n ast.Node) ast.Expr {
	if e, ok := n.(*ast.FuncLit); ok {
		return e
	}
	return nil
}

// isInterceptorSig matches the Interceptor shape:
// func(context.Context, CallInfo, func(context.Context) error) error.
// The middle parameter must be a named type called CallInfo, keeping the
// check precise without requiring an import of nrmi.
func isInterceptorSig(sig *types.Signature) bool {
	if sig.Params().Len() != 3 || sig.Results().Len() != 1 || sig.Variadic() {
		return false
	}
	if !isContextType(sig.Params().At(0).Type()) {
		return false
	}
	info, ok := types.Unalias(sig.Params().At(1).Type()).(*types.Named)
	if !ok || info.Obj().Name() != "CallInfo" {
		return false
	}
	next, ok := sig.Params().At(2).Type().Underlying().(*types.Signature)
	if !ok || next.Params().Len() != 1 || next.Results().Len() != 1 {
		return false
	}
	return isContextType(next.Params().At(0).Type()) && isErrorType(next.Results().At(0).Type()) &&
		isErrorType(sig.Results().At(0).Type())
}

func isErrorType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

// analyzeInterceptorBody resolves the next parameter and runs the path
// analysis over the body.
func analyzeInterceptorBody(p *Package, ftype *ast.FuncType, body *ast.BlockStmt, emit func(token.Pos, string)) {
	nextIdent := paramIdent(ftype, 2)
	if nextIdent == nil || nextIdent.Name == "_" {
		emit(ftype.Pos(), "interceptor discards its next parameter; the remote call can never proceed")
		return
	}
	nextObj := p.Info.Defs[nextIdent]
	if nextObj == nil {
		return
	}

	referenced, escapes := false, false
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || p.Info.Uses[id] != nextObj {
			return true
		}
		referenced = true
		if !isDirectCallee(body, id) {
			escapes = true
		}
		return true
	})
	if !referenced {
		emit(ftype.Pos(), "interceptor never invokes next; the remote call is dropped on every path")
		return
	}

	if escapes {
		return // next is forwarded as a value; out of scope for direct-call analysis
	}

	a := &interceptorAnalysis{p: p, nextObj: nextObj, emit: emit}
	a.scanStmts(body.List, callCount{})
}

// paramIdent returns the name of the i-th parameter, counting across
// grouped parameter declarations.
func paramIdent(ftype *ast.FuncType, i int) *ast.Ident {
	n := 0
	for _, field := range ftype.Params.List {
		names := field.Names
		if len(names) == 0 {
			if n == i {
				return nil // unnamed parameter
			}
			n++
			continue
		}
		for _, name := range names {
			if n == i {
				return name
			}
			n++
		}
	}
	return nil
}

// isDirectCallee reports whether id appears exactly as the function
// operand of a call expression.
func isDirectCallee(root ast.Node, id *ast.Ident) bool {
	direct := false
	ast.Inspect(root, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if ok && call.Fun == id {
			direct = true
			return false
		}
		return true
	})
	return direct
}

// callCount tracks how many times next has been invoked along the
// current path, as a (min, max) interval capped at 2.
type callCount struct{ min, max int }

func (c callCount) add(n int) callCount {
	return callCount{min: cap2(c.min + n), max: cap2(c.max + n)}
}

func cap2(n int) int {
	if n > 2 {
		return 2
	}
	return n
}

// mergeCounts joins the states of alternative branches.
func mergeCounts(a, b callCount) callCount {
	out := a
	if b.min < out.min {
		out.min = b.min
	}
	if b.max > out.max {
		out.max = b.max
	}
	return out
}

// interceptorAnalysis walks statements maintaining the next-call count
// interval, emitting diagnostics at returns and repeated calls.
type interceptorAnalysis struct {
	p       *Package
	nextObj types.Object
	emit    func(token.Pos, string)
}

// callsIn returns the direct next(...) call sites syntactically inside n.
func (a *interceptorAnalysis) callsIn(n ast.Node) []*ast.CallExpr {
	if n == nil {
		return nil
	}
	var calls []*ast.CallExpr
	ast.Inspect(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, okID := call.Fun.(*ast.Ident); okID && a.p.Info.Uses[id] == a.nextObj {
			calls = append(calls, call)
		}
		return true
	})
	return calls
}

// countNode folds the next-calls inside one expression-bearing node into
// the path state, flagging possible double invocation.
func (a *interceptorAnalysis) countNode(n ast.Node, in callCount) callCount {
	calls := a.callsIn(n)
	for i, call := range calls {
		if in.max+i >= 1 {
			a.emit(call.Pos(), "next may be invoked more than once on this path; the remote method would execute twice")
		}
	}
	return in.add(len(calls))
}

// scanStmts processes a statement list, returning the state at its end
// and whether every path through it terminates (returns).
func (a *interceptorAnalysis) scanStmts(stmts []ast.Stmt, in callCount) (out callCount, terminated bool) {
	cur := in
	for _, s := range stmts {
		var done bool
		cur, done = a.scanStmt(s, cur)
		if done {
			return cur, true
		}
	}
	return cur, false
}

// scanStmt processes one statement.
func (a *interceptorAnalysis) scanStmt(s ast.Stmt, in callCount) (out callCount, terminated bool) {
	switch st := s.(type) {
	case *ast.ReturnStmt:
		cur := in
		for _, res := range st.Results {
			cur = a.countNode(res, cur)
		}
		if cur.min == 0 && len(st.Results) == 1 && isNilIdent(st.Results[0]) {
			a.emit(st.Pos(), "interceptor returns nil without invoking next; the dropped call is reported as success")
		}
		return cur, true

	case *ast.BlockStmt:
		return a.scanStmts(st.List, in)

	case *ast.IfStmt:
		cur := in
		if st.Init != nil {
			cur, _ = a.scanStmt(st.Init, cur)
		}
		cur = a.countNode(st.Cond, cur)
		thenOut, thenDone := a.scanStmts(st.Body.List, cur)
		elseOut, elseDone := cur, false
		if st.Else != nil {
			elseOut, elseDone = a.scanStmt(st.Else, cur)
		}
		switch {
		case thenDone && elseDone:
			return cur, true
		case thenDone:
			return elseOut, false
		case elseDone:
			return thenOut, false
		default:
			return mergeCounts(thenOut, elseOut), false
		}

	case *ast.ForStmt, *ast.RangeStmt:
		var body *ast.BlockStmt
		var header []ast.Node
		switch loop := st.(type) {
		case *ast.ForStmt:
			body = loop.Body
			for _, n := range []ast.Node{loop.Init, loop.Cond, loop.Post} {
				if n != nil {
					header = append(header, n)
				}
			}
		case *ast.RangeStmt:
			body = loop.Body
			header = append(header, loop.X)
		}
		cur := in
		for _, h := range header {
			cur = a.countNode(h, cur)
		}
		if calls := a.callsIn(body); len(calls) > 0 {
			a.emit(calls[0].Pos(), "next is invoked inside a loop; the remote method may execute more than once")
			cur.max = 2
		}
		// The loop may run zero times, so min is unchanged; nested
		// returns inside loop bodies are not modeled path-precisely.
		return cur, false

	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		var clauses []ast.Stmt
		cur := in
		switch sw := st.(type) {
		case *ast.SwitchStmt:
			if sw.Init != nil {
				cur, _ = a.scanStmt(sw.Init, cur)
			}
			if sw.Tag != nil {
				cur = a.countNode(sw.Tag, cur)
			}
			clauses = sw.Body.List
		case *ast.TypeSwitchStmt:
			if sw.Init != nil {
				cur, _ = a.scanStmt(sw.Init, cur)
			}
			cur = a.countNode(sw.Assign, cur)
			clauses = sw.Body.List
		case *ast.SelectStmt:
			clauses = sw.Body.List
		}
		merged := callCount{min: 3, max: -1} // identity for merge
		hasDefault := false
		allDone := true
		for _, c := range clauses {
			var body []ast.Stmt
			switch cc := c.(type) {
			case *ast.CaseClause:
				for _, e := range cc.List {
					cur = a.countNode(e, cur)
				}
				if cc.List == nil {
					hasDefault = true
				}
				body = cc.Body
			case *ast.CommClause:
				if cc.Comm != nil {
					cur, _ = a.scanStmt(cc.Comm, cur)
				} else {
					hasDefault = true
				}
				body = cc.Body
			}
			o, done := a.scanStmts(body, cur)
			if !done {
				allDone = false
				merged = mergeCounts(merged, o)
			}
		}
		if !hasDefault {
			allDone = false
			merged = mergeCounts(merged, cur)
		}
		if len(clauses) > 0 && allDone {
			return cur, true
		}
		if merged.min == 3 { // nothing merged
			merged = cur
		}
		return merged, false

	case *ast.LabeledStmt:
		return a.scanStmt(st.Stmt, in)

	default:
		return a.countNode(s, in), false
	}
}

// isNilIdent reports whether e is the predeclared nil.
func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}
