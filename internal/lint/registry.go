package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
)

// checkRegistryCoverage implements the registry-coverage check. The wire
// layer resolves every named type crossing the wire through a name
// registry; a type that is never registered fails at decode time with
// ErrTypeNotRegistered, typically on the server, long after the mistake.
// Statically, the check:
//
//   - collects wire.Register / RegisterAuto / RegisterStrict /
//     Registry.Register call sites and records (name, type) pairs where
//     both are statically known;
//   - flags conflicting registrations (one name for two types, one type
//     under two names) — the runtime registry rejects these too, but only
//     in whichever endpoint happens to register second;
//   - computes the set of named concrete types reachable by value from
//     remote-call signatures — Stub.Call and Guarded.Call argument types,
//     and the exported method signatures of objects passed to
//     Server.Export — and flags any that the package never registers.
//
// Packages that register types dynamically (non-constant names, samples
// typed as interfaces, reflect-based RegisterType) or register nothing at
// all are assumed to delegate registration elsewhere; only conflict
// detection applies to them.
func checkRegistryCoverage(p *Package) []Diagnostic {
	if p.Pkg == nil {
		return nil
	}
	c := &coverage{p: p, registered: make(map[string]regEntry)}
	for _, f := range p.Files {
		ast.Inspect(f, c.collectRegistration)
	}
	var diags []Diagnostic
	diags = append(diags, c.conflicts()...)
	if len(c.registered) > 0 && !c.dynamic {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool { return c.collectRequired(n) })
		}
		diags = append(diags, c.missing()...)
	}
	return diags
}

// regEntry is one statically understood registration.
type regEntry struct {
	name string
	t    types.Type
	pos  token.Pos
}

// requiredType is one named type a remote-call signature reaches.
type requiredType struct {
	named *types.Named
	pos   token.Pos
	via   string
}

type coverage struct {
	p          *Package
	entries    []regEntry
	registered map[string]regEntry // by type string
	dynamic    bool
	required   []requiredType
}

// calleeFunc resolves the called function object of a call expression.
func (c *coverage) calleeFunc(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := c.p.Info.Uses[id].(*types.Func)
	return fn
}

// isWireFunc reports whether fn belongs to the wire surface: a function
// in a package named nrmi or wire, or a method on a type named Registry.
func isWireFunc(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	if recv := sig.Recv(); recv != nil {
		t := types.Unalias(recv.Type())
		if ptr, isPtr := t.(*types.Pointer); isPtr {
			t = types.Unalias(ptr.Elem())
		}
		named, okN := t.(*types.Named)
		return okN && named.Obj().Name() == "Registry"
	}
	pkg := fn.Pkg()
	return pkg != nil && (pkg.Name() == "nrmi" || pkg.Name() == "wire")
}

// collectRegistration records Register-family call sites.
func (c *coverage) collectRegistration(n ast.Node) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return true
	}
	fn := c.calleeFunc(call)
	if fn == nil || !isWireFunc(fn) {
		return true
	}
	switch fn.Name() {
	case "Register", "RegisterStrict":
		if len(call.Args) != 2 {
			return true
		}
		name, nameOK := c.constString(call.Args[0])
		t, typeOK := c.sampleType(call.Args[1])
		if !nameOK || !typeOK {
			c.dynamic = true
			return true
		}
		c.record(regEntry{name: name, t: t, pos: call.Pos()})
	case "RegisterAuto":
		if len(call.Args) != 1 {
			return true
		}
		t, typeOK := c.sampleType(call.Args[0])
		if !typeOK {
			c.dynamic = true
			return true
		}
		c.record(regEntry{name: canonicalTypeName(t), t: t, pos: call.Pos()})
	case "RegisterType":
		// The reflect.Type operand is opaque to static analysis.
		c.dynamic = true
	}
	return true
}

// record stores one registration in both indexes.
func (c *coverage) record(e regEntry) {
	c.entries = append(c.entries, e)
	key := e.t.String()
	if _, exists := c.registered[key]; !exists {
		c.registered[key] = e
	}
}

// constString evaluates e as a constant string.
func (c *coverage) constString(e ast.Expr) (string, bool) {
	tv, ok := c.p.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// sampleType resolves the static type of a registration sample,
// dereferencing pointers the way Registry.Register does. Interface-typed
// samples are dynamic.
func (c *coverage) sampleType(e ast.Expr) (types.Type, bool) {
	tv, ok := c.p.Info.Types[e]
	if !ok || tv.Type == nil {
		return nil, false
	}
	t := types.Unalias(tv.Type)
	for {
		ptr, isPtr := t.Underlying().(*types.Pointer)
		if !isPtr {
			break
		}
		t = types.Unalias(ptr.Elem())
	}
	if _, isIface := t.Underlying().(*types.Interface); isIface {
		return nil, false
	}
	return t, true
}

// canonicalTypeName mirrors wire.RegisterAuto's name: pkgpath.Name for named
// types, "" otherwise.
func canonicalTypeName(t types.Type) string {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}

// conflicts reports duplicate registrations within the package.
func (c *coverage) conflicts() []Diagnostic {
	var diags []Diagnostic
	byName := make(map[string]regEntry)
	byType := make(map[string]regEntry)
	for _, e := range c.entries {
		if prev, ok := byName[e.name]; ok && !types.Identical(prev.t, e.t) {
			diags = append(diags, Diagnostic{
				Pos:   c.p.Fset.Position(e.pos),
				Check: "registry-coverage",
				Message: fmt.Sprintf("wire name %q registered for both %s and %s; the second registration fails at runtime",
					e.name, prev.t, e.t),
			})
		} else {
			byName[e.name] = e
		}
		key := e.t.String()
		if prev, ok := byType[key]; ok && prev.name != e.name {
			diags = append(diags, Diagnostic{
				Pos:   c.p.Fset.Position(e.pos),
				Check: "registry-coverage",
				Message: fmt.Sprintf("type %s registered under both %q and %q; the second registration fails at runtime",
					e.t, prev.name, e.name),
			})
		} else if !ok {
			byType[key] = e
		}
	}
	return diags
}

// collectRequired records named types reachable from remote-call sites.
func (c *coverage) collectRequired(n ast.Node) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return true
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return true
	}
	recvName := receiverTypeName(c.p, sel.X)
	switch {
	case sel.Sel.Name == "Call" && recvName == "Stub":
		// Stub.Call(ctx, method, args...): wire arguments start at 2.
		c.requireArgs(call, 2, "remote call argument")
	case sel.Sel.Name == "Call" && recvName == "Guarded":
		// Guarded.Call(ctx, stub, method, extra...): the guarded root is
		// the implicit first wire argument.
		if rootT := guardedRootType(c.p, sel.X); rootT != nil {
			c.requireType(rootT, call.Pos(), "guarded root argument")
		}
		c.requireArgs(call, 3, "remote call argument")
	case sel.Sel.Name == "Export" && recvName == "Server" && len(call.Args) == 2:
		c.requireServiceMethods(call.Args[1])
	}
	return true
}

// receiverTypeName returns the named-type name of expr (through
// pointers), or "".
func receiverTypeName(p *Package, expr ast.Expr) string {
	tv, ok := p.Info.Types[expr]
	if !ok || tv.Type == nil {
		return ""
	}
	t := types.Unalias(tv.Type)
	if ptr, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = types.Unalias(ptr.Elem())
	}
	named, okN := t.(*types.Named)
	if !okN {
		return ""
	}
	return named.Obj().Name()
}

// guardedRootType extracts T from a *Guarded[T] receiver expression.
func guardedRootType(p *Package, expr ast.Expr) types.Type {
	tv, ok := p.Info.Types[expr]
	if !ok || tv.Type == nil {
		return nil
	}
	t := types.Unalias(tv.Type)
	if ptr, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = types.Unalias(ptr.Elem())
	}
	named, okN := t.(*types.Named)
	if !okN || named.TypeArgs() == nil || named.TypeArgs().Len() != 1 {
		return nil
	}
	return named.TypeArgs().At(0)
}

// requireArgs requires the closure of each argument from index from on.
func (c *coverage) requireArgs(call *ast.CallExpr, from int, via string) {
	if call.Ellipsis.IsValid() {
		return // spread []any: element types unknown
	}
	for i := from; i < len(call.Args); i++ {
		tv, ok := c.p.Info.Types[call.Args[i]]
		if !ok || tv.Type == nil {
			continue
		}
		c.requireType(tv.Type, call.Args[i].Pos(), via)
	}
}

// requireServiceMethods requires the closure of every exported method
// signature of the exported service object.
func (c *coverage) requireServiceMethods(obj ast.Expr) {
	tv, ok := c.p.Info.Types[obj]
	if !ok || tv.Type == nil {
		return
	}
	ms := types.NewMethodSet(tv.Type)
	for i := 0; i < ms.Len(); i++ {
		fn, okF := ms.At(i).Obj().(*types.Func)
		if !okF || !fn.Exported() {
			continue
		}
		sig, okS := fn.Type().(*types.Signature)
		if !okS {
			continue
		}
		for j := 0; j < sig.Params().Len(); j++ {
			c.requireType(sig.Params().At(j).Type(), obj.Pos(), "parameter of exported method "+fn.Name())
		}
		for j := 0; j < sig.Results().Len(); j++ {
			c.requireType(sig.Results().At(j).Type(), obj.Pos(), "result of exported method "+fn.Name())
		}
	}
}

// requireType collects every named type reachable by value from t.
func (c *coverage) requireType(t types.Type, pos token.Pos, via string) {
	seen := make(map[types.Type]bool)
	var walk func(t types.Type)
	walk = func(t types.Type) {
		t = types.Unalias(t)
		if seen[t] {
			return
		}
		seen[t] = true
		if named, ok := t.(*types.Named); ok {
			if named.Obj().Pkg() == nil {
				return // predeclared (error); no registration needed
			}
			if isByReference(named) {
				return // crosses as a RemoteRef, not by name
			}
			c.required = append(c.required, requiredType{named: named, pos: pos, via: via})
			walk(named.Underlying())
			return
		}
		switch u := t.(type) {
		case *types.Pointer:
			walk(u.Elem())
		case *types.Slice:
			walk(u.Elem())
		case *types.Array:
			walk(u.Elem())
		case *types.Map:
			walk(u.Key())
			walk(u.Elem())
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				walk(u.Field(i).Type())
			}
		}
		// Interfaces, type parameters, basics, funcs, chans: either
		// opaque or another check's concern.
	}
	walk(t)
}

// missing reports required types with no registration, once per type.
func (c *coverage) missing() []Diagnostic {
	var diags []Diagnostic
	reported := make(map[string]bool)
	sort.SliceStable(c.required, func(i, j int) bool { return c.required[i].pos < c.required[j].pos })
	for _, r := range c.required {
		key := r.named.String()
		if reported[key] {
			continue
		}
		if _, ok := c.registered[key]; ok {
			continue
		}
		reported[key] = true
		diags = append(diags, Diagnostic{
			Pos:   c.p.Fset.Position(r.pos),
			Check: "registry-coverage",
			Message: fmt.Sprintf("type %s is reachable as a %s but never registered in this package; decoding fails at runtime with ErrTypeNotRegistered",
				r.named, r.via),
		})
	}
	return diags
}
