package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// checkGuardedEscape implements the guarded-escape check. Guarded.With
// grants exclusive access to the root for the duration of the closure;
// any reference to the root that survives the closure is accessed
// without the lock and races with the restore phase of a concurrent
// Guarded.Call. Three escape routes are flagged inside With closures:
//
//   - assignment of root-derived reference state to a variable declared
//     outside the closure;
//   - sending root-derived reference state on a channel;
//   - launching a goroutine that captures the root.
//
// Only pointer-bearing values count: copying a scalar field out of the
// root is a snapshot, not an escape.
func checkGuardedEscape(p *Package) []Diagnostic {
	if p.Pkg == nil {
		return nil
	}
	var diags []Diagnostic
	emit := func(pos token.Pos, msg string) {
		diags = append(diags, Diagnostic{
			Pos:     p.Fset.Position(pos),
			Check:   "guarded-escape",
			Message: msg,
		})
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "With" || len(call.Args) != 1 {
				return true
			}
			if !isGuardedReceiver(p, sel.X) {
				return true
			}
			lit, ok := call.Args[0].(*ast.FuncLit)
			if !ok || len(lit.Type.Params.List) != 1 || len(lit.Type.Params.List[0].Names) != 1 {
				return true
			}
			rootObj := p.Info.Defs[lit.Type.Params.List[0].Names[0]]
			if rootObj == nil {
				return true
			}
			inspectWithClosure(p, lit, rootObj, emit)
			return true
		})
	}
	return diags
}

// isGuardedReceiver reports whether expr's type is (a pointer to) a
// named type called Guarded — matched structurally so the check also
// covers test doubles without importing nrmi.
func isGuardedReceiver(p *Package, expr ast.Expr) bool {
	tv, ok := p.Info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	t := types.Unalias(tv.Type)
	if ptr, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = types.Unalias(ptr.Elem())
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Guarded"
}

// inspectWithClosure flags root escapes within one With closure.
func inspectWithClosure(p *Package, lit *ast.FuncLit, rootObj types.Object, emit func(token.Pos, string)) {
	mentionsRoot := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && p.Info.Uses[id] == rootObj {
				found = true
				return false
			}
			return true
		})
		return found
	}
	exprPointerBearing := func(e ast.Expr) bool {
		tv, ok := p.Info.Types[e]
		return ok && tv.Type != nil && pointerBearing(tv.Type)
	}

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if st.Tok == token.DEFINE {
				return true // new local; stays inside the closure
			}
			for i, lhs := range st.Lhs {
				if i >= len(st.Rhs) {
					break // e.g. x, y = f(); values untraceable, skip
				}
				rhs := st.Rhs[i]
				if !mentionsRoot(rhs) || !exprPointerBearing(rhs) {
					continue
				}
				if base := baseIdent(lhs); base != nil && declaredOutside(p, base, lit) {
					emit(st.Pos(),
						"the guarded root escapes the With closure via assignment to "+base.Name+
							"; access after the lock is released races with a concurrent restore")
				}
			}
		case *ast.SendStmt:
			if mentionsRoot(st.Value) && exprPointerBearing(st.Value) {
				emit(st.Pos(),
					"the guarded root escapes the With closure via a channel send; the receiver accesses it without the lock")
			}
		case *ast.GoStmt:
			if mentionsRoot(st.Call.Fun) || anyMentions(st.Call.Args, mentionsRoot) {
				emit(st.Pos(),
					"the guarded root is captured by a goroutine launched inside With; it outlives the critical section")
			}
			return false // already flagged; don't double-report its body
		}
		return true
	})
}

// anyMentions reports whether pred holds for any expression.
func anyMentions(exprs []ast.Expr, pred func(ast.Expr) bool) bool {
	for _, e := range exprs {
		if pred(e) {
			return true
		}
	}
	return false
}

// baseIdent unwraps selectors, indexes, parens, and derefs down to the
// base identifier of an assignable expression.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// declaredOutside reports whether id resolves to an object declared
// outside the closure's body (an outer local, package variable, or
// captured variable).
func declaredOutside(p *Package, id *ast.Ident, lit *ast.FuncLit) bool {
	obj := p.Info.Uses[id]
	if obj == nil {
		obj = p.Info.Defs[id]
	}
	if obj == nil || id.Name == "_" {
		return false
	}
	pos := obj.Pos()
	return pos < lit.Pos() || pos > lit.End()
}

// pointerBearing reports whether values of t can contain (directly or
// transitively, by value) pointers, maps, slices, interfaces, or other
// reference state — the static mirror of hasIdentityBearing in
// internal/graph/walk.go. Type parameters are treated as opaque.
func pointerBearing(t types.Type) bool {
	return pointerBearingRec(t, make(map[types.Type]bool))
}

func pointerBearingRec(t types.Type, seen map[types.Type]bool) bool {
	t = types.Unalias(t)
	if seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Slice, *types.Interface,
		*types.Chan, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	case *types.Array:
		return pointerBearingRec(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if pointerBearingRec(u.Field(i).Type(), seen) {
				return true
			}
		}
	}
	return false
}
