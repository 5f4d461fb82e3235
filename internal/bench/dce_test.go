package bench

import (
	"context"
	"testing"

	"nrmi/internal/netsim"
	"nrmi/internal/rmi"
	"nrmi/internal/wire"
)

// paperService hosts the paper's running example on the restorable tree.
type paperService struct{}

// Foo is the paper's function foo (Section 2), verbatim.
func (*paperService) Foo(tree *RTree) {
	tree.Left.Data = 0
	tree.Right.Data = 9
	tree.Right.Right.Data = 8
	tree.Left = nil
	temp := &RTree{Data: 2, Left: tree.Right.Right}
	tree.Right.Right = nil
	tree.Right = temp
}

// paperTree builds the Figure 1 structure: t, with alias1 -> t.Left and
// alias2 -> t.Right.
func paperTree() (root, alias1, alias2, rl, rr *RTree) {
	rl = &RTree{Data: 3}
	rr = &RTree{Data: 4}
	alias1 = &RTree{Data: 1}
	alias2 = &RTree{Data: 7, Left: rl, Right: rr}
	root = &RTree{Data: 5, Left: alias1, Right: alias2}
	return root, alias1, alias2, rl, rr
}

func paperEnv(t *testing.T) (*Env, *rmi.Stub) {
	t.Helper()
	e, err := NewEnv(EnvConfig{Profile: netsim.Loopback(), Engine: wire.EngineV2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	if err := e.Server.Export("paper", &paperService{}); err != nil {
		t.Fatal(err)
	}
	return e, e.Client.Stub(ServerAddr, "paper")
}

func TestDCEPolicyReproducesFigure9(t *testing.T) {
	_, stub := paperEnv(t)
	root, a1, a2, rl, rr := paperTree()
	if _, err := CallDCE(context.Background(), stub, "Foo", root); err != nil {
		t.Fatal(err)
	}
	// Figure 9: changes to objects that became unreachable from the
	// parameter are NOT restored under DCE RPC.
	if a1.Data != 1 {
		t.Errorf("alias1.Data = %d, want 1 (DCE drops updates to unreachable objects)", a1.Data)
	}
	if a2.Data != 7 {
		t.Errorf("alias2.Data = %d, want 7 (DCE drops updates to unreachable objects)", a2.Data)
	}
	if a2.Right != rr {
		t.Error("alias2.Right must keep pointing at rr: the unlink is not restored under DCE")
	}
	// But objects still reachable are restored: the root and rr (via temp).
	if root.Left != nil {
		t.Errorf("root.Left = %v, want nil", root.Left)
	}
	if root.Right == nil || root.Right.Data != 2 || root.Right.Left != rr {
		t.Fatalf("root.Right must be the new node pointing at original rr")
	}
	if rr.Data != 8 {
		t.Errorf("rr.Data = %d, want 8 (rr stays reachable through the new node)", rr.Data)
	}
	if rl.Data != 3 {
		t.Errorf("rl.Data = %d, want 3", rl.Data)
	}
}

// TestDCEWithDeltaCombined: the emulation sits on a call whose reply
// carries only the objects the method changed — four of the five, rl
// untouched — and DCE semantics still hold: the unreachable updates are
// dropped, the reachable ones restored.
func TestDCEWithDeltaCombined(t *testing.T) {
	e, stub := paperEnv(t)
	root, a1, _, _, _ := paperTree()
	if _, err := CallDCE(context.Background(), stub, "Foo", root); err != nil {
		t.Fatal(err)
	}
	if n := e.Server.Metrics().ObjectsRestored; n != 4 {
		t.Fatalf("the reply carried %d records, want 4", n)
	}
	if a1.Data != 1 {
		t.Fatalf("a1.Data = %d, want 1 under DCE", a1.Data)
	}
	if root.Left != nil || root.Right == nil || root.Right.Data != 2 {
		t.Fatal("reachable updates must still restore")
	}
}
