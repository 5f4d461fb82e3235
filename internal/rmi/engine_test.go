package rmi

// Cross-engine negotiation: a V3 client must interoperate with a V2-only
// peer (one-shot downgrade keyed on the "unknown engine" header rejection,
// cached per address) and a V2 client must get V2 replies from a server
// whose default engine is V3 (the server answers in the request's engine).

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"nrmi/internal/core"
	"nrmi/internal/graph"
	"nrmi/internal/leakcheck"
	"nrmi/internal/netsim"
	"nrmi/internal/transport"
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

// TestParentFormatPeerIsATypedError: a peer from before the V2 format moved
// to bare slots — here one that refuses V3 as well — answers today's V2
// format id with the rejection it has for any engine it does not know (wire's
// TestParentFormatStreamRefused is the same meeting the other way round).
// That rejection is negotiation for a V3 request only, and once: a V2 client
// returns it, typed, after its one attempt; a V3 client that such a peer made
// fall back and whose V2 re-send is refused as well returns that and does not
// fall back twice. Either way the caller's graph is untouched.
func TestParentFormatPeerIsATypedError(t *testing.T) {
	reg := wire.NewRegistry()
	if err := reg.Register("RTree", RTree{}); err != nil {
		t.Fatal(err)
	}
	n := netsim.NewNetwork(netsim.Loopback())
	t.Cleanup(func() { n.Close() })
	ln, err := n.Listen("old")
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.Serve(ln, func(_ context.Context, _ byte, payload []byte) ([]byte, error) {
		if format := payload[1]; format == 3 || format == 4 {
			return nil, fmt.Errorf("wire: corrupted or incompatible stream: unknown engine %d", format)
		}
		t.Errorf("request in a format the old peer would have decoded: % x", payload[:3])
		return nil, errors.New("unexpected format")
	})
	t.Cleanup(func() { srv.Close() })

	for _, tc := range []struct {
		name                string
		engine              wire.Engine
		attempts, fallbacks int64
	}{
		{"v2 client", wire.EngineV2, 1, 0},
		{"v3 client", wire.EngineV3, 2, 1},
	} {
		for _, shape := range []callShape{shapeCall, shapeAsync} {
			t.Run(tc.name+"/"+shape.name, func(t *testing.T) {
				cl, err := NewClient(n.Dial, Options{Core: core.Options{Engine: tc.engine, Registry: reg}, Retry: RetryPolicy{MaxAttempts: 3}})
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				root, _, _, _, _ := paperRTree()
				pristine, _, _, _, _ := paperRTree()
				_, err = shape.call(cl.Stub("old", "trees"), context.Background(), "Foo", root)
				var remote *transport.RemoteError
				if !errors.As(err, &remote) || !strings.Contains(remote.Msg, "unknown engine 4") {
					t.Fatalf("got %v, want the peer's rejection of format 4 as a RemoteError", err)
				}
				if cm := cl.Metrics(); cm.Attempts != tc.attempts || cm.Retries != 0 || cm.EngineFallbacks != tc.fallbacks {
					t.Errorf("Attempts=%d Retries=%d EngineFallbacks=%d, want %d, 0, %d",
						cm.Attempts, cm.Retries, cm.EngineFallbacks, tc.attempts, tc.fallbacks)
				}
				if eq, err := graph.Equal(graph.AccessExported, root, pristine); err != nil || !eq {
					t.Errorf("the refused call changed the caller's graph (%v)", err)
				}
			})
		}
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

	leakcheck.Settle(t)
}
