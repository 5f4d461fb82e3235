package bench

import "nrmi/internal/model"

// This file is the code the paper says a programmer must write to emulate
// copy-restore with plain call-by-copy RMI (Section 5.3.2): one strategy
// per scenario, in increasing order of difficulty. It exists both as the
// Tables 3–4 baseline implementation and as the object of the usability
// claim — cmd/nrmi-bench -loc counts these lines against the two-line NRMI
// version. The BEGIN/END markers delimit what a user would have had to
// write per scenario.

// Shadow is the scenario-III helper structure: an isomorphic snapshot of
// the ORIGINAL tree structure whose nodes point at the server's (about to
// be mutated) node objects. It is "a simple way to emulate the local
// semantics by hand, but stores more information than the NRMI linear map"
// — which is exactly why the manual version ships more bytes (paper,
// Section 5.3.3).
type Shadow struct {
	// Ref is the server-side node this shadow position corresponds to.
	Ref *model.Tree
	// Left and Right mirror the original structure.
	Left, Right *Shadow
}

// BEGIN MANUAL-RETURN-TYPES
// With plain RMI, every remote method that must "restore" needs its return
// type widened to carry the parameter back (and, for scenario III, the
// shadow); the paper counts ~45 lines for these wrapper types and their
// plumbing.

// ReturnI is the widened return type for scenario I: the method's own
// result plus the mutated tree.
type ReturnI struct {
	// Result is the remote method's actual return value.
	Result int
	// Tree is the mutated parameter, sent back whole.
	Tree *model.Tree
}

// ReturnII is the widened return type for scenario II.
type ReturnII struct {
	// Result is the remote method's actual return value.
	Result int
	// Tree is the mutated parameter, sent back whole.
	Tree *model.Tree
}

// ReturnIII is the widened return type for scenario III: result, mutated
// tree, and the shadow of the original structure.
type ReturnIII struct {
	// Result is the remote method's actual return value.
	Result int
	// Tree is the mutated parameter, sent back whole.
	Tree *model.Tree
	// Shadow snapshots the original structure over the mutated objects.
	Shadow *Shadow
}

// END MANUAL-RETURN-TYPES

// BuildShadow snapshots the structure of root before mutation. Server-side
// scenario-III code must call it before touching the tree.
func BuildShadow(root *model.Tree) *Shadow {
	memo := make(map[*model.Tree]*Shadow)
	var build func(*model.Tree) *Shadow
	build = func(n *model.Tree) *Shadow {
		if n == nil {
			return nil
		}
		if s, ok := memo[n]; ok {
			return s
		}
		s := &Shadow{Ref: n}
		memo[n] = s
		s.Left = build(n.Left)
		s.Right = build(n.Right)
		return s
	}
	return build(root)
}

// BEGIN MANUAL-II
// RestoreII performs the scenario-II client-side update: the returned tree
// is isomorphic to the original (data-only changes), so a simultaneous
// traversal pairs original nodes with their replacements, aliases are
// re-pointed, and the root reference is reassigned (paper: "Both the
// original and the modified trees ... can be traversed simultaneously").

// RestoreII re-points w's aliases into newRoot and swaps the root.
func RestoreII(w *model.World, newRoot *model.Tree) {
	pairs := make(map[*model.Tree]*model.Tree)
	var walk func(o, n *model.Tree)
	walk = func(o, n *model.Tree) {
		if o == nil || n == nil {
			return
		}
		if _, done := pairs[o]; done {
			return
		}
		pairs[o] = n
		walk(o.Left, n.Left)
		walk(o.Right, n.Right)
	}
	walk(w.Root, newRoot)
	for i, a := range w.Aliases {
		if nn, ok := pairs[a]; ok {
			w.Aliases[i] = nn
		}
	}
	w.Root = newRoot
}

// END MANUAL-II

// BEGIN MANUAL-III
// RestoreIII performs the scenario-III client-side update: the shadow tree
// mirrors the ORIGINAL structure, so traversing the original client tree
// and the shadow simultaneously pairs every original node with the
// server's post-mutation version of it — including nodes the server
// unlinked. Aliases are re-pointed to those versions and the root is
// reassigned to the returned (restructured) tree.

// RestoreIII re-points w's aliases through the shadow and swaps the root.
func RestoreIII(w *model.World, newRoot *model.Tree, shadow *Shadow) {
	pairs := make(map[*model.Tree]*model.Tree)
	var walk func(o *model.Tree, s *Shadow)
	walk = func(o *model.Tree, s *Shadow) {
		if o == nil || s == nil {
			return
		}
		if _, done := pairs[o]; done {
			return
		}
		pairs[o] = s.Ref
		walk(o.Left, s.Left)
		walk(o.Right, s.Right)
	}
	walk(w.Root, shadow)
	for i, a := range w.Aliases {
		if nn, ok := pairs[a]; ok {
			w.Aliases[i] = nn
		}
	}
	w.Root = newRoot
}

// END MANUAL-III

// CopyService is the plain-RMI benchmark service: every method receives a
// by-copy tree and must hand the changes back explicitly.
type CopyService struct{}

// OneWay mutates its copy and returns nothing: the Table 2 baseline
// ("without caring to restore the changes to the client").
func (s *CopyService) OneWay(root *model.Tree, script model.Script) {
	script.Apply(root)
}

// BEGIN MANUAL-I
// MutateReturnI is the scenario-I server method: mutate, then return the
// whole parameter inside the widened return type so the client can
// reassign its root reference.

// MutateReturnI mutates the tree and returns it with a result value.
func (s *CopyService) MutateReturnI(root *model.Tree, script model.Script) ReturnI {
	script.Apply(root)
	return ReturnI{Result: len(script), Tree: root}
}

// END MANUAL-I

// MutateReturnII is the scenario-II server method (identical shape to I;
// the extra work is on the client).
func (s *CopyService) MutateReturnII(root *model.Tree, script model.Script) ReturnII {
	script.Apply(root)
	return ReturnII{Result: len(script), Tree: root}
}

// BEGIN MANUAL-III-SERVER
// MutateReturnIII is the scenario-III server method: snapshot the original
// structure as a shadow BEFORE mutating, then ship tree and shadow back.
// "Note that correct update is not possible without modifying both the
// server and the client."

// MutateReturnIII mutates the tree and returns it plus the pre-mutation
// shadow.
func (s *CopyService) MutateReturnIII(root *model.Tree, script model.Script) ReturnIII {
	shadow := BuildShadow(root)
	script.Apply(root)
	return ReturnIII{Result: len(script), Tree: root, Shadow: shadow}
}

// END MANUAL-III-SERVER
