package rmi

import (
	"context"
	"testing"

	"nrmi/internal/core"
	"nrmi/internal/netsim"
	"nrmi/internal/wire"
)

// Engines are a per-stream property announced in the header, so endpoints
// configured with different engines interoperate: a V1 client can call a
// V2 server and vice versa (like a JDK 1.3 client talking to a JDK 1.4
// RMI server).
func TestMixedEngineInterop(t *testing.T) {
	reg := treeRegistry(t)
	n := netsim.NewNetwork()
	t.Cleanup(func() { n.Close() })

	for _, combo := range []struct {
		name                 string
		clientEng, serverEng wire.Engine
	}{
		{"v1-client-v2-server", wire.EngineV1, wire.EngineV2},
		{"v2-client-v1-server", wire.EngineV2, wire.EngineV1},
	} {
		combo := combo
		t.Run(combo.name, func(t *testing.T) {
			addr := "srv-" + combo.name
			srv, err := NewServer(addr, Options{Core: core.Options{Engine: combo.serverEng, Registry: reg}})
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Export("trees", &TreeService{}); err != nil {
				t.Fatal(err)
			}
			ln, err := n.Listen(addr)
			if err != nil {
				t.Fatal(err)
			}
			srv.Serve(ln)
			t.Cleanup(func() { srv.Close() })

			cl, err := NewClient(n.Dial, Options{Core: core.Options{Engine: combo.clientEng, Registry: reg}})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cl.Close() })

			root, a1, a2, rl, rr := paperRTree()
			if _, err := cl.Stub(addr, "trees").Call(context.Background(), "Foo", root); err != nil {
				t.Fatal(err)
			}
			if a1.Data != 0 || a2.Data != 9 || a2.Right != nil || rr.Data != 8 || rl.Data != 3 {
				t.Fatal("cross-engine restore wrong")
			}
			if root.Right == nil || root.Right.Data != 2 || root.Right.Left != rr {
				t.Fatal("cross-engine structure wrong")
			}
		})
	}
}
