package rmi

import (
	"context"
	"testing"
	"time"
)

// Partial-failure behaviour: the network stays visible (errors, timeouts)
// but transient failures do not permanently poison a client.

func TestClientReconnectsAfterServerRestart(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	stub := e.client.Stub("server", "trees")
	if _, err := stub.Call(ctx, "Calls"); err != nil {
		t.Fatal(err)
	}

	// Kill the server: in-flight pool entry dies.
	if err := e.server.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := stub.Call(ctx, "Calls"); err == nil {
		t.Fatal("call against a dead server must fail")
	}

	// Restart a server under the same address; the next call must dial a
	// fresh connection instead of reusing the dead one.
	srv2, err := NewServer("server", e.server.opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.Export("trees", &TreeService{}); err != nil {
		t.Fatal(err)
	}
	ln, err := e.net.Listen("server")
	if err != nil {
		t.Fatal(err)
	}
	srv2.Serve(ln)
	t.Cleanup(func() { srv2.Close() })

	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := stub.Call(ctx, "Calls"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never recovered after server restart")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestLeaseSweeperCollectsInBackground(t *testing.T) {
	e := newEnv(t)
	counter := &Counter{}
	ref, err := e.clSrv.Ref(counter)
	if err != nil {
		t.Fatal(err)
	}
	// Shrink the lease to something the sweeper will catch quickly.
	if err := (&dgc{e.clSrv}).Dirty(ref.ID, 0); err != nil {
		t.Fatal(err)
	}
	e.clSrv.StartLeaseSweeper(10 * time.Millisecond)
	e.clSrv.StartLeaseSweeper(10 * time.Millisecond) // idempotent

	deadline := time.Now().Add(5 * time.Second)
	for e.clSrv.LiveRefs() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("sweeper never collected the expired lease (live=%d)", e.clSrv.LiveRefs())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestServerMetrics(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	stub := e.client.Stub("server", "trees")
	root, _, _, _, _ := paperRTree()
	if _, err := stub.Call(ctx, "Foo", root); err != nil {
		t.Fatal(err)
	}
	if _, err := stub.Call(ctx, "Fail"); err == nil {
		t.Fatal("Fail must fail")
	}
	m := e.server.Metrics()
	if m.CallsServed != 2 {
		t.Fatalf("CallsServed = %d, want 2", m.CallsServed)
	}
	if m.CallErrors != 1 {
		t.Fatalf("CallErrors = %d, want 1", m.CallErrors)
	}
	if m.BytesIn == 0 || m.BytesOut == 0 {
		t.Fatalf("byte counters missing: %+v", m)
	}
	if m.ObjectsRestored != 4 {
		t.Fatalf("ObjectsRestored = %d, want 4 (the paper tree's objects foo changes)", m.ObjectsRestored)
	}
}

func TestCallTimeoutSurfacesToCaller(t *testing.T) {
	e := newEnv(t)
	block := make(chan struct{})
	t.Cleanup(func() { close(block) })
	if err := e.server.Export("slow", &slowService{block: block}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := e.client.Stub("server", "slow").Call(ctx, "Hang")
	if err == nil {
		t.Fatal("timed-out call must error")
	}
}

// slowService blocks until released.
type slowService struct{ block chan struct{} }

// Hang waits for the test to release it.
func (s *slowService) Hang() { <-s.block }
