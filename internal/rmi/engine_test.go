package rmi

// Engines across the stack: a client sends the engine it is configured
// with, a call runs once whatever its error says, a server answers in the
// engine the request arrived in, and a peer that cannot decode a request's
// format answers a typed error the caller receives after one attempt.

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
	reg := treeRegistry(t)
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
// correctly over the real stack.
func TestV3EndToEnd(t *testing.T) {
	v3 := core.Options{Engine: wire.EngineV3}
	e := newEngineEnv(t, v3, v3)
	root, a1, a2, rl, rr := paperRTree()
	stub := e.client.Stub("server", "trees")
	if _, err := stub.Call(context.Background(), "Foo", root); err != nil {
		t.Fatal(err)
	}
	assertFigure2RTree(t, root, a1, a2, rl, rr)
}

// Diesel counts its invocations and fails with an application error whose
// text is what a decoder says of a format id it lacks.
func (s *TreeService) Diesel() error {
	s.mu.Lock()
	s.calls++
	s.mu.Unlock()
	return errors.New("unknown engine diesel")
}

// TestCallRunsOnce: a remote call is observationally a local call — it runs
// once. Between V3 peers a method whose own error reads "unknown engine"
// executes exactly once per call on every replying shape, with retries off
// and on: the caller gets the RemoteError after one attempt (retry.go: "the
// method ran and said no").
func TestCallRunsOnce(t *testing.T) {
	v3 := core.Options{Engine: wire.EngineV3}
	for _, retry := range []RetryPolicy{{}, {MaxAttempts: 3}} {
		for _, shape := range []callShape{shapeCall, shapeAsync} {
			t.Run(fmt.Sprintf("%s/attempts=%d", shape.name, retry.MaxAttempts), func(t *testing.T) {
				e := newEngineEnv(t, v3, v3)
				e.client.opts.Retry = retry
				_, err := shape.call(e.client.Stub("server", "trees"), context.Background(), "Diesel")
				var remote *transport.RemoteError
				if !errors.As(err, &remote) || remote.Msg != "unknown engine diesel" {
					t.Fatalf("got %v, want the method's error as a RemoteError", err)
				}
				if calls, cm := e.service.Calls(), e.client.Metrics(); calls != 1 || cm.Attempts != 1 || cm.Retries != 0 {
					t.Fatalf("executions=%d Attempts=%d Retries=%d, want 1, 1, 0", calls, cm.Attempts, cm.Retries)
				}
			})
		}
	}
}

// TestParentFormatPeerIsATypedError: a peer from before the V2 format moved
// to bare slots answers today's format id — which V3 sends too — with the
// rejection it has for any engine it does not know (wire's
// TestParentFormatStreamRefused is the same meeting the other way round).
// The caller, whichever engine it is configured with, receives that
// rejection, typed, after its one attempt — retries on — with its graph
// untouched.
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
		if format := payload[1]; format == 4 {
			return nil, fmt.Errorf("wire: corrupted or incompatible stream: unknown engine %d", format)
		}
		t.Errorf("request in a format the old peer would have decoded: % x", payload[:3])
		return nil, errors.New("unexpected format")
	})
	t.Cleanup(func() { srv.Close() })

	for _, tc := range []struct {
		name   string
		engine wire.Engine
		format int
	}{
		{"v2 client", wire.EngineV2, 4},
		{"v3 client", wire.EngineV3, 4},
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
				if !errors.As(err, &remote) || !strings.HasSuffix(remote.Msg, fmt.Sprintf("unknown engine %d", tc.format)) {
					t.Fatalf("got %v, want the peer's rejection of format %d as a RemoteError", err, tc.format)
				}
				if cm := cl.Metrics(); cm.Attempts != 1 || cm.Retries != 0 {
					t.Errorf("Attempts=%d Retries=%d, want 1, 0", cm.Attempts, cm.Retries)
				}
				if eq, err := graph.Equal(graph.AccessExported, root, pristine); err != nil || !eq {
					t.Errorf("the refused call changed the caller's graph (%v)", err)
				}
			})
		}
	}
}

// TestV2ClientAgainstV3Server: a server configured with V3 answers a client
// configured with V2 — the reply format follows the request, and both are
// V2's.
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
}

// TestV3PayloadOwnershipLedger re-runs the payload-ownership audit with V3,
// arena-backed decoders, on both ends: every reply payload is released once
// ApplyResponseBytes returns.
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
