package bench

import (
	"context"
	"fmt"

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
// outbound calls and its own server for resolving references that come home.
type RefEnv struct {
	// Client issues the remote field accesses.
	Client *rmi.Client
	// Local is this process's server (may be nil for pure clients).
	Local *rmi.Server
}

// Wrap converts a wire reference into a Handle: local references resolve
// to the live node, foreign ones become stubs.
func (e *RefEnv) Wrap(ref *rmi.RemoteRef) (Handle, error) {
	if ref == nil {
		return nil, nil
	}
	if e.Local != nil && ref.Addr == e.Local.Addr() {
		obj, ok := e.Local.ResolveRef(ref.ID)
		if !ok {
			return nil, fmt.Errorf("bench: stale local reference #%d", ref.ID)
		}
		n, ok := obj.(*RefNode)
		if !ok {
			return nil, fmt.Errorf("bench: reference #%d is %T, not *RefNode", ref.ID, obj)
		}
		return n, nil
	}
	return &NodeStub{env: e, ref: ref}, nil
}

// WrapRefHook adapts Wrap to the rmi.Options.WrapRef signature.
func (e *RefEnv) WrapRefHook(ref *rmi.RemoteRef) (any, error) {
	return e.Wrap(ref)
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

func (s *NodeStub) getChild(ctx context.Context, method string) (Handle, error) {
	rets, err := s.call(ctx, method)
	if err != nil {
		return nil, err
	}
	if rets[0] == nil {
		return nil, nil
	}
	ref, ok := rets[0].(*rmi.RemoteRef)
	if !ok {
		return nil, fmt.Errorf("bench: %s returned %T", method, rets[0])
	}
	return s.env.Wrap(ref)
}

// SetLeft implements Handle remotely.
func (s *NodeStub) SetLeft(ctx context.Context, h Handle) error {
	return s.setChild(ctx, "SetLeft", h)
}

// SetRight implements Handle remotely.
func (s *NodeStub) SetRight(ctx context.Context, h Handle) error {
	return s.setChild(ctx, "SetRight", h)
}

func (s *NodeStub) setChild(ctx context.Context, method string, h Handle) error {
	var arg any
	switch x := h.(type) {
	case nil:
		arg = nil
	case *RefNode:
		arg = x // Remote: the client exports it from its local server
	case *NodeStub:
		arg = x // RefHolder: forwards the wrapped reference
	default:
		return fmt.Errorf("bench: unknown handle type %T", h)
	}
	_, err := s.call(ctx, method, arg)
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
func ApplyHandles(ctx context.Context, root Handle, script Script) error {
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
		case OpSetData:
			if err := a.SetData(ctx, op.Val); err != nil {
				return err
			}
		case OpSetLeft:
			if err := a.SetLeft(ctx, pick(op.B)); err != nil {
				return err
			}
		case OpSetRight:
			if err := a.SetRight(ctx, pick(op.B)); err != nil {
				return err
			}
		case OpNewNode:
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
func (*RefMutator) Mutate(ctx context.Context, root Handle, script Script) error {
	return ApplyHandles(ctx, root, script)
}

// BuildRefTree converts a plain tree into a local RefNode graph, returning
// the root and the nodes corresponding to CollectNodes order.
func BuildRefTree(t *Tree) (*RefNode, []*RefNode) {
	memo := make(map[*Tree]*RefNode)
	var conv func(*Tree) *RefNode
	conv = func(n *Tree) *RefNode {
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
	for _, n := range CollectNodes(t) {
		ordered = append(ordered, memo[n])
	}
	return root, ordered
}

// SnapshotHandles reads the graph reachable from root (through the
// network where needed) into a plain Tree for invariant checking.
func SnapshotHandles(ctx context.Context, root Handle) (*Tree, error) {
	return newHandleSnapshotter().snapshot(ctx, root)
}
