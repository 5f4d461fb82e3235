package bench

import (
	"context"
	"fmt"

	"nrmi/internal/model"
	"nrmi/internal/rmi"
)

// This file implements the paper's call-by-reference baseline (Figure 3,
// Table 6): the tree stays on its home machine and is manipulated through
// remote pointers, so every field access by the remote method generates
// network traffic. Nodes are accessed through the Handle interface, whose
// two implementations are a local node and a network stub; the same
// mutation code runs against either, exactly like Java code written
// against a Remote interface.

// Handle is the uniform node-access interface for the remote-pointer tree.
// Every method takes the context its round trip runs under: a server-side
// mutator passes on its own request's, which carries the caller's deadline
// and ends when the call does.
type Handle interface {
	// GetData reads the node payload.
	GetData(ctx context.Context) (int, error)
	// SetData writes the node payload.
	SetData(ctx context.Context, v int) error
	// GetLeft returns the left child handle (nil for none).
	GetLeft(ctx context.Context) (Handle, error)
	// SetLeft re-points the left child.
	SetLeft(ctx context.Context, h Handle) error
	// GetRight returns the right child handle (nil for none).
	GetRight(ctx context.Context) (Handle, error)
	// SetRight re-points the right child.
	SetRight(ctx context.Context, h Handle) error
}

// RefNode is a tree node accessed by reference: the analog of a
// UnicastRemoteObject tree node.
type RefNode struct {
	// Data is the payload.
	Data int
	// Left and Right hold either local nodes or stubs for nodes living in
	// another process.
	Left, Right Handle
}

// NRMIRemote marks RefNode for by-reference passing.
func (*RefNode) NRMIRemote() {}

// GetData implements Handle locally.
func (n *RefNode) GetData(context.Context) (int, error) { return n.Data, nil }

// SetData implements Handle locally.
func (n *RefNode) SetData(_ context.Context, v int) error { n.Data = v; return nil }

// GetLeft implements Handle locally.
func (n *RefNode) GetLeft(context.Context) (Handle, error) { return n.Left, nil }

// SetLeft implements Handle locally.
func (n *RefNode) SetLeft(_ context.Context, h Handle) error { n.Left = h; return nil }

// GetRight implements Handle locally.
func (n *RefNode) GetRight(context.Context) (Handle, error) { return n.Right, nil }

// SetRight implements Handle locally.
func (n *RefNode) SetRight(_ context.Context, h Handle) error { n.Right = h; return nil }

// RefEnv is one process's view of the remote-pointer world: its client for
// the round trips of the stubs it makes. A reference to one of the process's
// own nodes needs no stub: rmi brings it home as the node itself.
type RefEnv struct {
	// Client issues the remote field accesses.
	Client *rmi.Client
}

// Wrap is the rmi.Options.WrapRef hook: a foreign reference becomes a stub.
func (e *RefEnv) Wrap(ref *rmi.RemoteRef) (any, error) {
	return &NodeStub{env: e, ref: ref}, nil
}

// NodeStub is the remote-pointer proxy: each method is one network round
// trip (paper: "every pointer dereference has to generate network
// traffic").
type NodeStub struct {
	env *RefEnv
	ref *rmi.RemoteRef
}

// NRMIRef implements rmi.RefHolder, so stubs forward rather than re-export.
func (s *NodeStub) NRMIRef() *rmi.RemoteRef { return s.ref }

// call invokes one accessor on the remote node.
func (s *NodeStub) call(ctx context.Context, method string, args ...any) ([]any, error) {
	return s.env.Client.RefStub(s.ref).Call(ctx, method, args...)
}

// GetData implements Handle remotely.
func (s *NodeStub) GetData(ctx context.Context) (int, error) {
	rets, err := s.call(ctx, "GetData")
	if err != nil {
		return 0, err
	}
	return rets[0].(int), nil
}

// SetData implements Handle remotely.
func (s *NodeStub) SetData(ctx context.Context, v int) error {
	_, err := s.call(ctx, "SetData", v)
	return err
}

// GetLeft implements Handle remotely.
func (s *NodeStub) GetLeft(ctx context.Context) (Handle, error) { return s.getChild(ctx, "GetLeft") }

// GetRight implements Handle remotely.
func (s *NodeStub) GetRight(ctx context.Context) (Handle, error) {
	return s.getChild(ctx, "GetRight")
}

// getChild returns the child a remote getter names: nil, one of this
// process's own nodes (which rmi brings home), or a stub for a foreign one.
func (s *NodeStub) getChild(ctx context.Context, method string) (Handle, error) {
	rets, err := s.call(ctx, method)
	if err != nil {
		return nil, err
	}
	switch x := rets[0].(type) {
	case nil:
		return nil, nil
	case *RefNode:
		return x, nil
	case *rmi.RemoteRef:
		return &NodeStub{env: s.env, ref: x}, nil
	}
	return nil, fmt.Errorf("bench: %s returned %T", method, rets[0])
}

// SetLeft implements Handle remotely: a *RefNode argument is exported by
// this process's server, a *NodeStub forwards the reference it wraps.
func (s *NodeStub) SetLeft(ctx context.Context, h Handle) error {
	_, err := s.call(ctx, "SetLeft", h)
	return err
}

// SetRight implements Handle remotely, like SetLeft.
func (s *NodeStub) SetRight(ctx context.Context, h Handle) error {
	_, err := s.call(ctx, "SetRight", h)
	return err
}

// handleKey returns a stable identity for visited-set tracking across both
// handle kinds.
func handleKey(h Handle) string {
	switch x := h.(type) {
	case *RefNode:
		return fmt.Sprintf("local:%p", x)
	case *NodeStub:
		return fmt.Sprintf("%s#%d", x.ref.Addr, x.ref.ID)
	default:
		return fmt.Sprintf("?%T", h)
	}
}

// collectHandles gathers nodes in DFS preorder through handles; against a
// remote root this is itself a storm of round trips, faithfully modeling
// the paper's remote-pointer traversal costs.
func collectHandles(ctx context.Context, root Handle) ([]Handle, error) {
	var out []Handle
	seen := make(map[string]bool)
	var visit func(h Handle) error
	visit = func(h Handle) error {
		if h == nil {
			return nil
		}
		k := handleKey(h)
		if seen[k] {
			return nil
		}
		seen[k] = true
		out = append(out, h)
		l, err := h.GetLeft(ctx)
		if err != nil {
			return err
		}
		if err := visit(l); err != nil {
			return err
		}
		r, err := h.GetRight(ctx)
		if err != nil {
			return err
		}
		return visit(r)
	}
	if err := visit(root); err != nil {
		return nil, err
	}
	return out, nil
}

// ApplyHandles replays a mutation script through handles: the
// call-by-reference execution of the benchmark's remote method. New nodes
// are allocated in the executing process (the server), so structural
// changes create exactly the cross-machine references — and potential
// distributed cycles — the paper describes.
func ApplyHandles(ctx context.Context, root Handle, script model.Script) error {
	nodes, err := collectHandles(ctx, root)
	if err != nil {
		return err
	}
	if len(nodes) == 0 {
		return nil
	}
	pick := func(i int) Handle {
		if i >= len(nodes) {
			return nil
		}
		return nodes[i%len(nodes)]
	}
	for _, op := range script {
		a := nodes[op.A%len(nodes)]
		switch op.Kind {
		case model.OpSetData:
			if err := a.SetData(ctx, op.Val); err != nil {
				return err
			}
		case model.OpSetLeft:
			if err := a.SetLeft(ctx, pick(op.B)); err != nil {
				return err
			}
		case model.OpSetRight:
			if err := a.SetRight(ctx, pick(op.B)); err != nil {
				return err
			}
		case model.OpNewNode:
			n := &RefNode{Data: op.Val, Left: pick(op.B)}
			var err error
			if op.Side == 0 {
				err = a.SetLeft(ctx, n)
			} else {
				err = a.SetRight(ctx, n)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// RefMutator is the server-side service for Table 6: it receives a remote
// pointer to the client's tree and mutates it through the network.
type RefMutator struct{}

// Mutate applies the script to the remotely referenced tree. ctx is the
// request's: every round trip stops when the caller's deadline passes or
// the server closes.
func (*RefMutator) Mutate(ctx context.Context, root Handle, script model.Script) error {
	return ApplyHandles(ctx, root, script)
}

// BuildRefTree converts a plain tree into a local RefNode graph, returning
// the root and the nodes corresponding to CollectNodes order.
func BuildRefTree(t *model.Tree) (*RefNode, []*RefNode) {
	memo := make(map[*model.Tree]*RefNode)
	var conv func(*model.Tree) *RefNode
	conv = func(n *model.Tree) *RefNode {
		if n == nil {
			return nil
		}
		if m, ok := memo[n]; ok {
			return m
		}
		m := &RefNode{Data: n.Data}
		memo[n] = m
		if l := conv(n.Left); l != nil {
			m.Left = l
		}
		if r := conv(n.Right); r != nil {
			m.Right = r
		}
		return m
	}
	root := conv(t)
	var ordered []*RefNode
	for _, n := range model.CollectNodes(t) {
		ordered = append(ordered, memo[n])
	}
	return root, ordered
}
