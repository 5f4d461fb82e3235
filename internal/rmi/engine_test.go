package rmi

// Cross-engine negotiation: a V3 client must interoperate with a V2-only
// peer (one-shot downgrade keyed on the "unknown engine" header rejection,
// cached per address) and a V2 client must get V2 replies from a server
// whose default engine is V3 (the server answers in the request's engine).

import (
	"context"
	"testing"
	"time"

	"nrmi/internal/bufpool"
	"nrmi/internal/core"
	"nrmi/internal/netsim"
	"nrmi/internal/wire"
)

// newEngineEnv is newEnv with independent server- and client-side core
// options, for engine-mismatch worlds.
func newEngineEnv(t *testing.T, serverCore, clientCore core.Options) *env {
	t.Helper()
	reg := wire.NewRegistry()
	for name, sample := range map[string]any{
		"RTree": RTree{}, "CTree": CTree{},
	} {
		if err := reg.Register(name, sample); err != nil {
			t.Fatal(err)
		}
	}
	serverCore.Registry = reg
	clientCore.Registry = reg
	n := netsim.NewNetwork(netsim.Loopback())
	t.Cleanup(func() { n.Close() })

	srv, err := NewServer("server", Options{Core: serverCore})
	if err != nil {
		t.Fatal(err)
	}
	svc := &TreeService{}
	if err := srv.Export("trees", svc); err != nil {
		t.Fatal(err)
	}
	ln, err := n.Listen("server")
	if err != nil {
		t.Fatal(err)
	}
	srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	cl, err := NewClient(n.Dial, Options{Core: clientCore})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return &env{net: n, server: srv, client: cl, service: svc}
}

func assertFigure2RTree(t *testing.T, root, a1, a2, rl, rr *RTree) {
	t.Helper()
	if a1.Data != 0 || a2.Data != 9 || a2.Right != nil || rr.Data != 8 || rl.Data != 3 {
		t.Fatalf("restore wrong: a1=%d a2=%d rr=%d rl=%d", a1.Data, a2.Data, rr.Data, rl.Data)
	}
	if root.Left != nil || root.Right == nil || root.Right.Data != 2 || root.Right.Left != rr {
		t.Fatal("structure wrong after restore")
	}
}

// TestV3EndToEnd: both ends speak V3; the paper's mutation restores
// correctly over the real stack with no fallback.
func TestV3EndToEnd(t *testing.T) {
	v3 := core.Options{Engine: wire.EngineV3}
	e := newEngineEnv(t, v3, v3)
	root, a1, a2, rl, rr := paperRTree()
	stub := e.client.Stub("server", "trees")
	if _, err := stub.Call(context.Background(), "Foo", root); err != nil {
		t.Fatal(err)
	}
	assertFigure2RTree(t, root, a1, a2, rl, rr)
	if fb := e.client.Metrics().EngineFallbacks; fb != 0 {
		t.Fatalf("EngineFallbacks = %d between matched V3 peers", fb)
	}
}

// TestV3ClientFallsBackToV2Peer: the server cannot decode V3; the client's
// first call is rejected at the stream header, re-encoded as V2, and
// re-sent. The downgrade is cached, so the fallback counter moves once no
// matter how many calls follow. The re-send is negotiation, not a retry:
// on either call shape it spends none of RetryPolicy.MaxAttempts and ticks
// no Retries.
func TestV3ClientFallsBackToV2Peer(t *testing.T) {
	for _, shape := range []callShape{shapeCall, shapeAsync} {
		call := shape.call
		t.Run(shape.name, func(t *testing.T) {
			e := newEngineEnv(t,
				core.Options{DisableEngineV3: true},
				core.Options{Engine: wire.EngineV3})
			e.client.opts.Retry = RetryPolicy{MaxAttempts: 2}
			stub := e.client.Stub("server", "trees")

			root, a1, a2, rl, rr := paperRTree()
			if _, err := call(stub, context.Background(), "Foo", root); err != nil {
				t.Fatalf("negotiated call failed: %v", err)
			}
			// The downgraded call must still deliver full copy-restore semantics.
			assertFigure2RTree(t, root, a1, a2, rl, rr)
			if cm := e.client.Metrics(); cm.Attempts != 2 || cm.Retries != 0 || cm.EngineFallbacks != 1 {
				t.Fatalf("after the negotiated call: Attempts=%d Retries=%d EngineFallbacks=%d, want 2, 0, 1",
					cm.Attempts, cm.Retries, cm.EngineFallbacks)
			}

			for i := 0; i < 5; i++ {
				root2, _, _, _, _ := paperRTree()
				if _, err := call(stub, context.Background(), "Foo", root2); err != nil {
					t.Fatalf("call %d after downgrade: %v", i, err)
				}
			}
			if fb := e.client.Metrics().EngineFallbacks; fb != 1 {
				t.Fatalf("EngineFallbacks = %d, want 1 (downgrade cached per address)", fb)
			}
			if calls := e.service.Calls(); calls != 6 {
				t.Fatalf("service saw %d calls, want 6 (header rejection precedes execution)", calls)
			}
		})
	}
}

// TestV2ClientAgainstV3Server: the server's own default engine is V3, but
// it must answer a V2 request in V2 — the reply engine follows the request.
func TestV2ClientAgainstV3Server(t *testing.T) {
	e := newEngineEnv(t,
		core.Options{Engine: wire.EngineV3},
		core.Options{Engine: wire.EngineV2})
	root, a1, a2, rl, rr := paperRTree()
	stub := e.client.Stub("server", "trees")
	if _, err := stub.Call(context.Background(), "Foo", root); err != nil {
		t.Fatal(err)
	}
	assertFigure2RTree(t, root, a1, a2, rl, rr)
	if fb := e.client.Metrics().EngineFallbacks; fb != 0 {
		t.Fatalf("EngineFallbacks = %d for a V2 client", fb)
	}
}

// TestV3PayloadOwnershipLedger re-runs the payload-ownership audit over the
// V3 path, where the reply payload's lifetime extends through the restore
// commit (the flat records are validated as slices of the payload itself)
// and is released only after ApplyResponseBytes returns.
func TestV3PayloadOwnershipLedger(t *testing.T) {
	bufpool.SetDebug(true)
	defer bufpool.SetDebug(false)
	v3 := core.Options{Engine: wire.EngineV3}
	e := newEngineEnv(t, v3, v3)
	stub := e.client.Stub("server", "trees")
	ctx := context.Background()

	const calls = 25
	for i := 0; i < calls; i++ {
		root, _, _, _, _ := paperRTree()
		if _, err := stub.Call(ctx, "Foo", root); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := stub.Call(ctx, "Fail"); err == nil {
		t.Fatal("Fail must surface its error")
	}

	cm := e.client.Metrics()
	if want := int64(calls); cm.PayloadsReleased != want {
		t.Errorf("PayloadsReleased = %d, want %d", cm.PayloadsReleased, want)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		s := bufpool.DebugSnapshot()
		if s.DoublePuts != 0 {
			t.Fatalf("double-Put detected: %+v", s)
		}
		if s.Outstanding == 0 {
			if s.Gets == 0 {
				t.Fatal("ledger saw no pool traffic; the test is vacuous")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("payload leak: %d buffers never returned to the pool (%+v)", s.Outstanding, s)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
