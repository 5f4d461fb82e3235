package rmi

import (
	"context"
	"testing"
	"time"

	"nrmi/internal/leakcheck"
)

// TestClientPayloadOwnershipLedger drives every client-side payload
// release site — the call path of each shape (DGC calls included), plus a
// remote-error reply released inside the transport — with the buffer pool's
// ownership ledger armed, proving that no site releases a payload twice and
// none retains one past release. The server's ends balance too: each request
// buffer, and each reply the transport releases once it is queued. It also
// pins the PayloadsReleased counter the client sites feed.
func TestClientPayloadOwnershipLedger(t *testing.T) {
	e := newEnv(t)
	stub := e.client.Stub("server", "trees")
	ctx := context.Background()

	const calls = 25
	for i := 0; i < calls; i++ {
		shape := []callShape{shapeCall, shapeAsync}[i%2]
		root, _, _, _, _ := paperRTree()
		if _, err := shape.call(stub, ctx, "Foo", root); err != nil {
			t.Fatal(err)
		}
	}
	// Remote application error: the error payload is copied into the error
	// value and recycled inside the transport, never reaching the client's
	// release sites.
	if _, err := stub.Call(ctx, "Fail"); err == nil {
		t.Fatal("Fail must surface its error")
	}
	// DGC calls on the "#dgc" export, a probe among them. The id need not
	// resolve — the reply payload ownership is what is under audit.
	if err := probe(ctx, e.client, "server"); err != nil {
		t.Fatal(err)
	}
	ref := &RemoteRef{Addr: "server", ID: 1 << 40}
	if err := e.client.Renew(ctx, ref, time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := e.client.Release(ctx, ref); err != nil {
		t.Fatal(err)
	}

	cm := e.client.Metrics()
	if cm.CallsIssued != calls+4 || cm.CallErrors != 1 {
		t.Errorf("CallsIssued/CallErrors = %d/%d, want %d/1", cm.CallsIssued, cm.CallErrors, calls+4)
	}
	if cm.Attempts < cm.CallsIssued {
		t.Errorf("Attempts %d < CallsIssued %d", cm.Attempts, cm.CallsIssued)
	}
	if cm.Dials < 1 {
		t.Errorf("Dials = %d, want at least the first connection", cm.Dials)
	}
	// Successful calls and the three DGC round trips each release exactly
	// one reply payload.
	if want := int64(calls + 3); cm.PayloadsReleased != want {
		t.Errorf("PayloadsReleased = %d, want %d", cm.PayloadsReleased, want)
	}
	if cm.BytesSent == 0 || cm.BytesReceived == 0 {
		t.Errorf("byte counters silent: sent=%d received=%d", cm.BytesSent, cm.BytesReceived)
	}

	leakcheck.Settle(t)
}
