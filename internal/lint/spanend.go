package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// checkSpanEnd implements the span-end check. A phase Span accumulates its
// elapsed time into the call's collector only when End (or EndBytes/EndN)
// runs; a span left open when the function returns silently drops the
// phase from every histogram and trace — a measurement bug no test
// notices, because nothing crashes. The repo's instrumentation discipline
// is therefore: end every span before the first return statement that
// follows its Start, or defer the End. The check enforces that discipline
// positionally, within one function body:
//
//   - an assignment whose RHS call yields a span type (a named type called
//     Span carrying an End method) opens an obligation;
//   - a deferred End-family call (End, EndBytes, EndN) on the span
//     discharges it for the whole function;
//   - otherwise the first End-family call on the span after the Start
//     discharges it, and every return statement between the Start and that
//     End is flagged: that path leaves the span open;
//   - a span with no End-family call at all is flagged at its Start.
//
// The check is positional, not path-sensitive: ending a span inside one
// branch while another branch returns is rejected by construction, which
// is exactly the shape the discipline forbids (factor the branch into a
// helper instead — see internal/core and internal/rmi for the idiom).
// Nested function literals are separate functions: an End inside a closure
// does not discharge the enclosing function's obligation.
func checkSpanEnd(p *Package) []Diagnostic {
	if p.Pkg == nil {
		return nil
	}
	var diags []Diagnostic
	emit := func(pos token.Pos, msg string) {
		diags = append(diags, Diagnostic{
			Pos:     p.Fset.Position(pos),
			Check:   "span-end",
			Message: msg,
		})
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				checkSpansInBody(p, body, emit)
			}
			return true // nested function literals are visited on their own
		})
	}
	return diags
}

// checkSpansInBody enforces the span-end discipline for the spans started
// directly inside body.
func checkSpansInBody(p *Package, body *ast.BlockStmt, emit func(token.Pos, string)) {
	inspectSameFunc(body, func(n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return
		}
		if _, isCall := as.Rhs[0].(*ast.CallExpr); !isCall {
			return
		}
		obj := spanObject(p, as.Lhs[0])
		if obj == nil {
			return
		}
		if spanDeferred(p, body, obj) {
			return
		}
		endPos := firstEndAfter(p, body, obj, as.Pos())
		if endPos == token.NoPos {
			emit(as.Pos(),
				obj.Name()+" starts a phase span that is never ended in this function; "+
					"its time is silently dropped from every histogram and trace")
			return
		}
		inspectSameFunc(body, func(m ast.Node) {
			ret, isRet := m.(*ast.ReturnStmt)
			if !isRet || ret.Pos() <= as.Pos() || ret.Pos() >= endPos {
				return
			}
			emit(ret.Pos(),
				"return between "+obj.Name()+"'s Start and End leaves the span open on this path; "+
					"end it before every return, or defer the End")
		})
	})
}

// spanObject resolves an assignment LHS to the local object when its
// static type is a span type; nil otherwise.
func spanObject(p *Package, lhs ast.Expr) types.Object {
	id, ok := lhs.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	obj := p.Info.Defs[id]
	if obj == nil {
		obj = p.Info.Uses[id]
	}
	if obj == nil || !isSpanType(obj.Type()) {
		return nil
	}
	return obj
}

// isSpanType matches the span shape structurally (the testdata mirror has
// no import path in common with the real package): a named type called
// Span whose pointer method set includes a niladic End.
func isSpanType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok || named.Obj().Name() != "Span" {
		return false
	}
	end, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, named.Obj().Pkg(), "End")
	fn, ok := end.(*types.Func)
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	return sig.Params().Len() == 0 && sig.Results().Len() == 0
}

// isEndName reports whether a method name belongs to the span End family.
func isEndName(name string) bool {
	return name == "End" || name == "EndBytes" || name == "EndN"
}

// endCallOn reports whether call is an End-family call on obj.
func endCallOn(p *Package, call *ast.CallExpr, obj types.Object) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !isEndName(sel.Sel.Name) {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && p.Info.Uses[id] == obj
}

// spanDeferred reports whether body defers an End-family call on obj.
func spanDeferred(p *Package, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	inspectSameFunc(body, func(n ast.Node) {
		d, ok := n.(*ast.DeferStmt)
		if ok && !found && endCallOn(p, d.Call, obj) {
			found = true
		}
	})
	return found
}

// firstEndAfter returns the position of the first non-deferred End-family
// call on obj after pos, or NoPos.
func firstEndAfter(p *Package, body *ast.BlockStmt, obj types.Object, pos token.Pos) token.Pos {
	best := token.NoPos
	inspectSameFunc(body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= pos || !endCallOn(p, call, obj) {
			return
		}
		if best == token.NoPos || call.Pos() < best {
			best = call.Pos()
		}
	})
	return best
}

// inspectSameFunc walks body like ast.Inspect but does not descend into
// nested function literals.
func inspectSameFunc(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}
