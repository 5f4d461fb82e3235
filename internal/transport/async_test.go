package transport

import (
	"context"
	"errors"
	"testing"
	"time"

	"nrmi/internal/bufpool"
	"nrmi/internal/leakcheck"
	"nrmi/internal/netsim"
)

// sendCall is Send of a request on a new PendingCall.
func sendCall(c *Conn, ctx context.Context, payload []byte) (*PendingCall, error) {
	pc := new(PendingCall)
	if err := c.Send(ctx, pc, MsgCall, payload, time.Time{}); err != nil {
		return nil, err
	}
	return pc, nil
}

func TestStartWaitRoundTrip(t *testing.T) {
	c := startPair(t, func(_ context.Context, _ byte, p []byte) ([]byte, error) {
		return append([]byte("re:"), p...), nil
	})
	pc, err := sendCall(c, context.Background(), []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := pc.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "re:hi" {
		t.Fatalf("got %q", got)
	}
	ReleasePayload(got)
	if inFlight(c) != 0 {
		t.Fatalf("in-flight after Wait: %d", inFlight(c))
	}
}

// TestAbandonAfterReplyDelivered forces the interleaving where the read
// loop wins the race: the reply has been claimed and delivered before the
// caller abandons. Abandon must recycle the payload itself, exactly once.
func TestAbandonAfterReplyDelivered(t *testing.T) {
	c := startPair(t, func(_ context.Context, _ byte, p []byte) ([]byte, error) {
		out := make([]byte, 64)
		copy(out, p)
		return out, nil
	})
	pc, err := sendCall(c, context.Background(), make([]byte, 64))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the read loop has delivered the reply, so the pending
	// entry is provably gone before Abandon runs.
	<-pc.Done()
	pc.Abandon()
	pc.Abandon() // idempotent on a settled call
	leakcheck.Settle(t)
}

// TestAbandonBeforeReply forces the other interleaving: the caller
// abandons while the entry is still pending (the server is blocked), and
// the reply lands afterwards. The read loop must see it unmatched and
// recycle it — the exact window the pre-async ctx-expiry path raced in.
func TestAbandonBeforeReply(t *testing.T) {
	release := make(chan struct{})
	c := startPair(t, func(_ context.Context, _ byte, p []byte) ([]byte, error) {
		<-release
		out := make([]byte, 64)
		copy(out, p)
		return out, nil
	})
	pc, err := sendCall(c, context.Background(), make([]byte, 64))
	if err != nil {
		t.Fatal(err)
	}
	pc.Abandon()
	if inFlight(c) != 0 {
		t.Fatalf("abandoned call still pending: %d", inFlight(c))
	}
	close(release) // late reply arrives with nobody waiting
	leakcheck.Settle(t)
}

// TestWaitCtxExpiryAbandons pins that Wait's ctx-expiry path runs the
// same abandon protocol: the late reply is recycled by the read loop and
// a typed CallError surfaces.
func TestWaitCtxExpiryAbandons(t *testing.T) {
	release := make(chan struct{})
	c := startPair(t, func(_ context.Context, _ byte, p []byte) ([]byte, error) {
		<-release
		out := make([]byte, 64)
		copy(out, p)
		return out, nil
	})
	pc, err := sendCall(c, context.Background(), make([]byte, 64))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, werr := pc.Wait(ctx)
	var ce *CallError
	if !errors.As(werr, &ce) || ce.Phase != PhaseAwait || !ce.Sent {
		t.Fatalf("want await-phase CallError, got %v", werr)
	}
	if !errors.Is(werr, context.DeadlineExceeded) {
		t.Fatalf("cause lost: %v", werr)
	}
	close(release)
	leakcheck.Settle(t)
}

// TestTeardownDeliversTypedCallError: when the conn dies with calls in
// flight — their frames written, the handlers running — every pending
// caller gets a *CallError carrying the phase and the root cause, not a
// bare channel close.
func TestTeardownDeliversTypedCallError(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	entered := make(chan struct{}, 4)
	c := startPair(t, func(_ context.Context, _ byte, _ []byte) ([]byte, error) {
		entered <- struct{}{}
		<-block
		return nil, nil
	})
	const n = 4
	pcs := make([]*PendingCall, n)
	for i := range pcs {
		pc, err := sendCall(c, context.Background(), []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		pcs[i] = pc
	}
	for range pcs {
		<-entered
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for i, pc := range pcs {
		_, err := pc.Wait(context.Background())
		var ce *CallError
		if !errors.As(err, &ce) {
			t.Fatalf("call %d: want *CallError, got %v", i, err)
		}
		if ce.Phase != PhaseAwait || !ce.Sent {
			t.Fatalf("call %d: phase/sent misreported: %+v", i, ce)
		}
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("call %d: root cause lost: %v", i, err)
		}
	}
}

// TestServePooledReleasesReplies: a ServePooled handler's replies are
// released once the batch holds them, each exactly once — a pooled reply, an
// echo of the request (released once, as the request) and an error's — so
// the ledger balances with no double Put.
func TestServePooledReleasesReplies(t *testing.T) {
	n := netsim.NewNetwork()
	t.Cleanup(func() { n.Close() })
	ln, err := n.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServePooled(ln, func(_ context.Context, _ byte, p []byte) ([]byte, error) {
		switch string(p) {
		case "echo":
			return p, nil
		case "fail":
			return bufpool.Get(8), errors.New("refused")
		}
		return append(bufpool.Get(len(p) + 3)[:0], "re:"...), nil
	})
	t.Cleanup(func() { srv.Close() })
	nc, err := n.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	c := NewConn(nc)
	t.Cleanup(func() { c.Close() })
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		for _, msg := range []struct {
			payload string
			fails   bool
		}{{"call", false}, {"echo", false}, {"fail", true}} {
			reply, err := c.Call(ctx, MsgCall, []byte(msg.payload))
			if (err != nil) != msg.fails {
				t.Fatalf("%s: %v", msg.payload, err)
			}
			ReleasePayload(reply)
		}
	}
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	leakcheck.Settle(t)
}
