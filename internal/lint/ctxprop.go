package lint

import (
	"go/ast"
	"go/types"
)

// checkCtxPropagation implements the ctx-propagation check. A function
// that receives a context.Context has accepted responsibility for the
// caller's deadline and cancellation; a context.Background() or
// context.TODO() anywhere in its body mints a root that is detached from
// that chain, so whatever runs under it outlives the caller's cancel and
// ignores its deadline. The rule is syntactic and has no exceptions: a
// function with a named context.Context parameter contains no call to
// either constructor. A nested function literal is a separate function
// judged by its own parameters (and is itself checked if it declares a
// context), so deliberately detached background work stays expressible
// as `go func() { ... context.Background() ... }()`.
func checkCtxPropagation(p *Package) []Diagnostic {
	if p.Pkg == nil {
		return nil
	}
	var diags []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var ftype *ast.FuncType
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				ftype, body = fn.Type, fn.Body
			case *ast.FuncLit:
				ftype, body = fn.Type, fn.Body
			default:
				return true
			}
			ctx := ctxParamIdent(p, ftype)
			if body == nil || ctx == nil {
				return true
			}
			inspectSameFunc(body, func(m ast.Node) {
				e, ok := m.(ast.Expr)
				if !ok {
					return
				}
				if name := freshContextCall(p, e); name != "" {
					diags = append(diags, Diagnostic{
						Pos:   p.Fset.Position(e.Pos()),
						Check: "ctx-propagation",
						Message: "context." + name + "() in a function that receives " + ctx.Name +
							"; derive from " + ctx.Name + " so the caller's cancellation and deadline propagate",
					})
				}
			})
			return true // nested function literals are visited on their own
		})
	}
	return diags
}

// ctxParamIdent returns the first named, non-blank context.Context
// parameter of the function type, or nil. Functions without one have
// no inbound context to thread and are exempt.
func ctxParamIdent(p *Package, ftype *ast.FuncType) *ast.Ident {
	if ftype.Params == nil {
		return nil
	}
	for _, field := range ftype.Params.List {
		t := p.Info.TypeOf(field.Type)
		if t == nil || !isContextType(t) {
			continue
		}
		for _, name := range field.Names {
			if name.Name != "_" {
				return name
			}
		}
	}
	return nil
}

// freshContextCall reports whether e is a call to context.Background or
// context.TODO, returning the function name ("" when it is neither).
func freshContextCall(p *Package, e ast.Expr) string {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return ""
	}
	if name := fn.Name(); name == "Background" || name == "TODO" {
		return name
	}
	return ""
}

func isContextType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	return ok && named.Obj().Name() == "Context" &&
		named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "context"
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
