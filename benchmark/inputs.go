package main

// The benchmark's inputs, frozen here on purpose: the tree types, the
// seeded builder, the scenario-III world (aliases into interior nodes plus
// a script of relink / unlink / insert-new / mutate-data ops) and the two
// remote methods are ported from internal/bench so that a later change to
// internal/bench cannot change what this benchmark measures. Everything
// derives from one world seed; TestGeneratorPinned pins the derivation.

import "nrmi"

// Tree is the plain binary tree, passed by copy.
type Tree struct {
	Data        int
	Left, Right *Tree
}

// RTree is the same shape passed by copy-restore: as in the paper, the
// calling semantics is chosen per type.
type RTree struct {
	Data        int
	Left, Right *RTree
}

// NRMIRestorable marks RTree for call-by-copy-restore.
func (*RTree) NRMIRestorable() {}

// OpKind enumerates the script's mutations.
type OpKind int

const (
	opSetData  OpKind = iota // overwrite a node's payload
	opSetLeft                // re-point Left at another node, or unlink (nil)
	opSetRight               // re-point Right at another node, or unlink (nil)
	opNewNode                // allocate a node and attach it
)

// Op is one replayable mutation. A and B index the pre-mutation DFS
// preorder node list; B equal to the list length encodes nil.
type Op struct {
	Kind OpKind
	A, B int
	Val  int
	Side int
}

// Script is the mutation sequence one remote call performs.
type Script []Op

// registerTypes installs the wire names both processes must agree on.
func registerTypes(reg *nrmi.Registry) error {
	for _, t := range []struct {
		name   string
		sample any
	}{
		{"benchmark.Tree", Tree{}},
		{"benchmark.RTree", RTree{}},
		{"benchmark.Op", Op{}},
		{"benchmark.OpKind", OpKind(0)},
		{"benchmark.Script", Script{}},
		{"benchmark.Usage", Usage{}},
	} {
		if err := reg.Register(t.name, t.sample); err != nil {
			return err
		}
	}
	return nil
}

// rng is a splitmix64 generator: the same seed gives the same inputs on
// every platform and Go version.
type rng struct{ state uint64 }

func newRng(seed int64) *rng {
	return &rng{state: uint64(seed)*0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9}
}

func (r *rng) intn(n int) int {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int((z ^ (z >> 31)) % uint64(n))
}

// buildTree generates a random binary tree of size nodes (the paper's
// "single randomly-generated binary tree parameter").
func buildTree(seed int64, size int) *Tree {
	r := newRng(seed)
	root := &Tree{Data: r.intn(100000)}
	open := []*Tree{root} // nodes with a free child slot
	for n := 1; n < size; n++ {
		i := r.intn(len(open))
		p, c := open[i], &Tree{Data: r.intn(100000)}
		if p.Left == nil {
			p.Left = c
		} else {
			p.Right = c
			open[i] = open[len(open)-1]
			open = open[:len(open)-1]
		}
		open = append(open, c)
	}
	return root
}

// collect returns the graph's nodes in DFS preorder, each once even when
// mutations introduced aliasing or cycles: the numbering scripts refer to.
func collect(root *Tree) []*Tree {
	var out []*Tree
	seen := make(map[*Tree]bool)
	var visit func(*Tree)
	visit = func(n *Tree) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		out = append(out, n)
		visit(n.Left)
		visit(n.Right)
	}
	visit(root)
	return out
}

// collectR is collect for the restorable type.
func collectR(root *RTree) []*RTree {
	var out []*RTree
	seen := make(map[*RTree]bool)
	var visit func(*RTree)
	visit = func(n *RTree) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		out = append(out, n)
		visit(n.Left)
		visit(n.Right)
	}
	visit(root)
	return out
}

// World is one call's client-side state: the tree handed to the remote
// method and the caller's aliases into its interior (scenario III).
type World struct {
	Root    *Tree
	Aliases []*Tree
}

// RWorld is World in the restorable representation.
type RWorld struct {
	Root    *RTree
	Aliases []*RTree
}

func opsPerCall(size int) int { return 8 + size/16 }

func aliasCount(size int) int { return max(2, size/8) }

// newWorld builds the scenario-III world and script for one seed.
func newWorld(seed int64, size int) (*World, Script) {
	w := &World{Root: buildTree(seed, size)}
	nodes := collect(w.Root)
	r := newRng(seed ^ 0xA11A5)
	for i := 0; i < aliasCount(size); i++ {
		w.Aliases = append(w.Aliases, nodes[r.intn(len(nodes))])
	}
	r = newRng(seed ^ 0x5DEECE66D)
	script := make(Script, opsPerCall(size))
	for i := range script {
		script[i] = Op{
			Kind: OpKind(r.intn(4)),
			A:    r.intn(size),
			B:    r.intn(size + 1),
			Val:  r.intn(100000),
			Side: r.intn(2),
		}
	}
	return w, script
}

// apply replays the script on a plain tree.
func (s Script) apply(root *Tree) {
	nodes := collect(root)
	pick := func(i int) *Tree {
		if i >= len(nodes) {
			return nil
		}
		return nodes[i]
	}
	for _, op := range s {
		a := nodes[op.A%len(nodes)]
		switch op.Kind {
		case opSetData:
			a.Data = op.Val
		case opSetLeft:
			a.Left = pick(op.B)
		case opSetRight:
			a.Right = pick(op.B)
		case opNewNode:
			n := &Tree{Data: op.Val, Left: pick(op.B)}
			if op.Side == 0 {
				a.Left = n
			} else {
				a.Right = n
			}
		}
	}
}

// applyR replays the script on a restorable tree.
func (s Script) applyR(root *RTree) {
	nodes := collectR(root)
	pick := func(i int) *RTree {
		if i >= len(nodes) {
			return nil
		}
		return nodes[i]
	}
	for _, op := range s {
		a := nodes[op.A%len(nodes)]
		switch op.Kind {
		case opSetData:
			a.Data = op.Val
		case opSetLeft:
			a.Left = pick(op.B)
		case opSetRight:
			a.Right = pick(op.B)
		case opNewNode:
			n := &RTree{Data: op.Val, Left: pick(op.B)}
			if op.Side == 0 {
				a.Left = n
			} else {
				a.Right = n
			}
		}
	}
}

// toRWorld converts a world to its restorable twin, aliases mapped to the
// converted nodes.
func toRWorld(w *World) *RWorld {
	memo := make(map[*Tree]*RTree)
	var conv func(*Tree) *RTree
	conv = func(n *Tree) *RTree {
		if n == nil {
			return nil
		}
		if m, ok := memo[n]; ok {
			return m
		}
		m := &RTree{Data: n.Data}
		memo[n] = m
		m.Left, m.Right = conv(n.Left), conv(n.Right)
		return m
	}
	rw := &RWorld{Root: conv(w.Root)}
	for _, a := range w.Aliases {
		rw.Aliases = append(rw.Aliases, conv(a))
	}
	return rw
}

// toWorld converts back for comparison. An alias whose node the server
// unlinked is no longer reachable from the root; its subgraph is converted
// through the same memo so the comparison still sees it.
func (rw *RWorld) toWorld() *World {
	memo := make(map[*RTree]*Tree)
	var conv func(*RTree) *Tree
	conv = func(n *RTree) *Tree {
		if n == nil {
			return nil
		}
		if m, ok := memo[n]; ok {
			return m
		}
		m := &Tree{Data: n.Data}
		memo[n] = m
		m.Left, m.Right = conv(n.Left), conv(n.Right)
		return m
	}
	w := &World{Root: conv(rw.Root)}
	for _, a := range rw.Aliases {
		w.Aliases = append(w.Aliases, conv(a))
	}
	return w
}

// equalWorlds reports whether two worlds are isomorphic as graphs: same
// data, same shape, same sharing, and every alias at the corresponding
// node, reachable from the root or not.
func equalWorlds(a, b *World) bool {
	fwd, rev := make(map[*Tree]*Tree), make(map[*Tree]*Tree)
	var eq func(x, y *Tree) bool
	eq = func(x, y *Tree) bool {
		if x == nil || y == nil {
			return x == y
		}
		if p, ok := fwd[x]; ok {
			return p == y
		}
		if _, ok := rev[y]; ok {
			return false
		}
		fwd[x], rev[y] = y, x
		return x.Data == y.Data && eq(x.Left, y.Left) && eq(x.Right, y.Right)
	}
	if !eq(a.Root, b.Root) || len(a.Aliases) != len(b.Aliases) {
		return false
	}
	for i := range a.Aliases {
		if !eq(a.Aliases[i], b.Aliases[i]) {
			return false
		}
	}
	return true
}

// checksum folds data, shape and sharing of the graph into one int, so a
// by-copy call, which returns nothing to compare, is verifiable from the
// client: the server returns the checksum of its mutated copy.
func checksum(root *Tree) int {
	h := uint64(14695981039346656037)
	mix := func(v uint64) { h = (h ^ v) * 1099511628211 }
	ids := make(map[*Tree]int)
	var visit func(*Tree)
	visit = func(n *Tree) {
		if n == nil {
			mix(0)
			return
		}
		if id, ok := ids[n]; ok {
			mix(2)
			mix(uint64(id))
			return
		}
		ids[n] = len(ids)
		mix(1)
		mix(uint64(n.Data))
		visit(n.Left)
		visit(n.Right)
	}
	visit(root)
	return int(h >> 1)
}

// Service is the remote object both call shapes target. Note what is not
// here: no widened return types, no shadow trees, no client-side update
// code (the paper's usability claim, Section 4.3).
type Service struct{}

// Apply mutates the restorable tree in place; NRMI restores the changes on
// the caller.
func (*Service) Apply(root *RTree, script Script) int {
	script.applyR(root)
	return len(script)
}

// OneWay mutates its by-copy tree and returns the copy's checksum; nothing
// is restored on the caller (the paper's Table 2).
func (*Service) OneWay(root *Tree, script Script) int {
	script.apply(root)
	return checksum(root)
}
