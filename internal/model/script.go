package model

// Mutation scripts make the paper's "remote method performs random changes
// to its input tree" replayable: a script generated once from a seed can be
// applied to the client's tree (local baseline), to the server's decoded
// copy (the remote call), or through remote pointers (call-by-reference),
// and all three must converge to the same final graph.

// OpKind enumerates mutation operations.
type OpKind int

const (
	// OpSetData overwrites a node's payload.
	OpSetData OpKind = iota
	// OpSetLeft re-points a node's Left child at another node (or nil).
	OpSetLeft
	// OpSetRight re-points a node's Right child at another node (or nil).
	OpSetRight
	// OpNewNode allocates a node and attaches it under an existing one.
	OpNewNode
)

// Op is one replayable mutation. A and B index the pre-mutation DFS
// preorder node list; B equal to the list length encodes nil.
type Op struct {
	// Kind selects the operation.
	Kind OpKind
	// A is the target node index.
	A int
	// B is the source node index for structural ops (len == nil).
	B int
	// Val is the payload for data writes and new nodes.
	Val int
	// Side selects Left (0) or Right (1) for OpNewNode.
	Side int
}

// Script is an ordered mutation sequence.
type Script []Op

// GenScript generates numOps mutations against a tree of numNodes nodes.
// dataOnly restricts the script to payload writes (scenario II: "the
// structure of the tree stays the same").
func GenScript(seed int64, numNodes, numOps int, dataOnly bool) Script {
	r := newRng(seed ^ 0x5DEECE66D)
	ops := make(Script, 0, numOps)
	for i := 0; i < numOps; i++ {
		kind := OpSetData
		if !dataOnly {
			kind = OpKind(r.intn(4))
		}
		ops = append(ops, Op{
			Kind: kind,
			A:    r.intn(numNodes),
			B:    r.intn(numNodes + 1),
			Val:  r.intn(100000),
			Side: r.intn(2),
		})
	}
	return ops
}

// Apply replays the script against the tree rooted at root.
func (s Script) Apply(root *Tree) { apply(s, root, newTree) }

// ApplyR replays the script against a restorable tree.
func (s Script) ApplyR(root *RTree) { apply(s, root, newRTree) }

func apply[N node[N]](s Script, root N, alloc func() N) {
	nodes := CollectNodes(root)
	if len(nodes) == 0 {
		return
	}
	pick := func(i int) N {
		if i >= len(nodes) {
			var none N
			return none
		}
		return nodes[i]
	}
	for _, op := range s {
		data, left, right := nodes[op.A%len(nodes)].fields()
		switch op.Kind {
		case OpSetData:
			*data = op.Val
		case OpSetLeft:
			*left = pick(op.B)
		case OpSetRight:
			*right = pick(op.B)
		case OpNewNode:
			n := alloc()
			d, l, _ := n.fields()
			*d, *l = op.Val, pick(op.B)
			if op.Side == 0 {
				*left = n
			} else {
				*right = n
			}
		}
	}
}
