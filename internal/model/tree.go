package model

import (
	"fmt"

	"nrmi/internal/graph"
)

// Tree is the benchmark's plain serializable binary tree: passed by copy
// under RMI semantics.
type Tree struct {
	// Data is the node payload.
	Data int
	// Left and Right are the children.
	Left, Right *Tree
}

// RTree is the restorable variant: identical shape, passed by
// copy-restore under NRMI semantics. Keeping two types mirrors the paper's
// programming model, where semantics is chosen per type.
type RTree struct {
	// Data is the node payload.
	Data int
	// Left and Right are the children.
	Left, Right *RTree
}

// NRMIRestorable marks RTree for call-by-copy-restore.
func (*RTree) NRMIRestorable() {}

// node is what scripts and conversions need of either tree type: its
// fields, by reference.
type node[N comparable] interface {
	comparable
	fields() (data *int, left, right *N)
}

func (t *Tree) fields() (*int, **Tree, **Tree)    { return &t.Data, &t.Left, &t.Right }
func (t *RTree) fields() (*int, **RTree, **RTree) { return &t.Data, &t.Left, &t.Right }

// BuildTree generates a random proper binary tree with size nodes,
// mirroring the paper's "single randomly-generated binary tree parameter".
// The same seed always yields the same shape and data.
func BuildTree(seed int64, size int) *Tree {
	if size <= 0 {
		return nil
	}
	r := newRng(seed)
	nodes := make([]*Tree, 1, size)
	nodes[0] = &Tree{Data: r.intn(100000)}
	// open tracks nodes with at least one free child slot.
	open := []*Tree{nodes[0]}
	for len(nodes) < size {
		i := r.intn(len(open))
		p := open[i]
		n := &Tree{Data: r.intn(100000)}
		if p.Left == nil {
			p.Left = n
		} else {
			p.Right = n
			// Both slots used: remove from the open set.
			open[i] = open[len(open)-1]
			open = open[:len(open)-1]
		}
		nodes = append(nodes, n)
		open = append(open, n)
	}
	return nodes[0]
}

// CollectNodes returns the nodes of a Tree or RTree graph in DFS preorder
// (node, left, right), visiting each object exactly once even in the
// presence of aliasing edges and cycles. This ordering is the node
// numbering mutation scripts refer to.
func CollectNodes[N node[N]](root N) []N {
	var none N
	var out []N
	seen := make(map[N]bool)
	var visit func(N)
	visit = func(n N) {
		if n == none || seen[n] {
			return
		}
		seen[n] = true
		out = append(out, n)
		_, l, r := n.fields()
		visit(*l)
		visit(*r)
	}
	visit(root)
	return out
}

// Scenario is one of the paper's three benchmark configurations (Section
// 5.3.2), "listed in the order of difficulty of achieving the
// call-by-copy-restore semantics by hand".
type Scenario int

const (
	// ScenarioI has no client-side aliases into the tree; data and
	// structure may change. Manual restore: return the tree, reassign the
	// root reference.
	ScenarioI Scenario = iota
	// ScenarioII has aliases, but the remote method only changes node
	// data, never structure. Manual restore: simultaneous isomorphic
	// traversal re-pointing aliases, then root reassignment.
	ScenarioII
	// ScenarioIII has aliases and arbitrary changes, including unlinking
	// aliased nodes. Manual restore requires the server to build and ship
	// a shadow tree.
	ScenarioIII
)

// String returns the scenario's roman numeral, as the paper's tables use.
func (s Scenario) String() string {
	switch s {
	case ScenarioI:
		return "I"
	case ScenarioII:
		return "II"
	case ScenarioIII:
		return "III"
	default:
		return fmt.Sprintf("Scenario(%d)", int(s))
	}
}

// Scenarios lists all three in table order.
var Scenarios = []Scenario{ScenarioI, ScenarioII, ScenarioIII}

// World is one benchmark instance: the client's tree plus its aliases, the
// structure against which the restore invariant is checked.
type World struct {
	// Root is the tree passed to the remote method.
	Root *Tree
	// Aliases are client-side references to interior nodes (empty for
	// scenario I). AliasIdx records each alias's position in the initial
	// DFS preorder, which the manual scenario-II/III strategies need.
	Aliases  []*Tree
	AliasIdx []int
}

// opsPerCall is how many mutations one remote call performs; scaled mildly
// with tree size so bigger trees see proportionally more of their nodes
// touched.
func opsPerCall(size int) int { return 8 + size/16 }

// aliasCount is how many interior aliases scenarios II and III hold.
func aliasCount(size int) int {
	return max(2, size/8)
}

// NewWorld builds a benchmark world for the scenario: tree, aliases, and
// the mutation script the remote method will execute.
func NewWorld(sc Scenario, seed int64, size int) (*World, Script) {
	root := BuildTree(seed, size)
	w := &World{Root: root}
	if sc != ScenarioI {
		nodes := CollectNodes(root)
		r := newRng(seed ^ 0xA11A5)
		for i := 0; i < aliasCount(size); i++ {
			idx := r.intn(len(nodes))
			w.Aliases = append(w.Aliases, nodes[idx])
			w.AliasIdx = append(w.AliasIdx, idx)
		}
	}
	script := GenScript(seed, size, opsPerCall(size), sc == ScenarioII)
	return w, script
}

// RWorld is World in the restorable representation used on the NRMI path.
type RWorld struct {
	// Root is the restorable tree.
	Root *RTree
	// Aliases mirror World.Aliases; AliasIdx their preorder positions.
	Aliases  []*RTree
	AliasIdx []int
}

// convert copies the graph at n into the other tree type, through memo, so
// that aliasing and cycles carry over.
func convert[A node[A], B node[B]](memo map[A]B, n A, alloc func() B) B {
	var none A
	if n == none {
		var nb B
		return nb
	}
	if m, ok := memo[n]; ok {
		return m
	}
	m := alloc()
	memo[n] = m
	d, l, r := n.fields()
	md, ml, mr := m.fields()
	*md = *d
	*ml = convert(memo, *l, alloc)
	*mr = convert(memo, *r, alloc)
	return m
}

// ToRWorld converts a world into its restorable twin, with aliases mapped
// to the corresponding converted nodes.
func ToRWorld(w *World) *RWorld {
	memo := make(map[*Tree]*RTree)
	rw := &RWorld{Root: convert(memo, w.Root, newRTree), AliasIdx: append([]int(nil), w.AliasIdx...)}
	for _, a := range w.Aliases {
		rw.Aliases = append(rw.Aliases, memo[a])
	}
	return rw
}

// ToWorld converts a restorable world back to the plain representation for
// invariant checking. An alias whose target became unreachable from the
// root is converted too, so the comparison still sees it.
func (rw *RWorld) ToWorld() *World {
	memo := make(map[*RTree]*Tree)
	w := &World{Root: convert(memo, rw.Root, newTree), AliasIdx: append([]int(nil), rw.AliasIdx...)}
	for _, a := range rw.Aliases {
		w.Aliases = append(w.Aliases, convert(memo, a, newTree))
	}
	return w
}

func newTree() *Tree   { return new(Tree) }
func newRTree() *RTree { return new(RTree) }

// Expected computes the ground-truth post-call world: the same initial
// world with the script applied locally (the paper's invariant: "as if
// both the caller and the callee were executing within the same address
// space").
func Expected(sc Scenario, seed int64, size int, script Script) *World {
	w, _ := NewWorld(sc, seed, size)
	script.Apply(w.Root)
	return w
}

// Verify checks a post-call world against the ground truth, comparing the
// full graph including alias targets.
func Verify(got, want *World) error {
	eq, err := Equal(graph.AccessExported, got, want)
	if err != nil {
		return fmt.Errorf("model: comparing worlds: %w", err)
	}
	if !eq {
		return fmt.Errorf("model: post-call world diverged from local execution")
	}
	return nil
}
