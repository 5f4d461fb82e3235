package transport

import (
	"context"
	"errors"
	"testing"
	"time"

	"nrmi/internal/netsim"
)

// TestCallErrorClassification drives Call into each failure phase and
// checks the typed error the resilience layer keys its retry decisions on.
func TestCallErrorClassification(t *testing.T) {
	cases := []struct {
		name        string
		run         func(t *testing.T) error
		wantPhase   string
		wantSent    bool
		wantTimeout bool
		wantIs      error
	}{
		{
			name: "closed conn refuses before send",
			run: func(t *testing.T) error {
				c := startPair(t, func(context.Context, byte, []byte) ([]byte, error) { return nil, nil })
				if err := c.Close(); err != nil {
					t.Fatal(err)
				}
				_, err := c.Call(context.Background(), MsgCall, nil)
				return err
			},
			wantPhase: PhaseSend,
			wantSent:  false,
			wantIs:    ErrClosed,
		},
		{
			name: "pre-expired context never sends",
			run: func(t *testing.T) error {
				c := startPair(t, func(context.Context, byte, []byte) ([]byte, error) { return nil, nil })
				ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
				defer cancel()
				_, err := c.Call(ctx, MsgCall, []byte("x"))
				return err
			},
			wantPhase:   PhaseSend,
			wantSent:    false,
			wantTimeout: true,
			wantIs:      context.DeadlineExceeded,
		},
		{
			name: "reply withheld until deadline",
			run: func(t *testing.T) error {
				block := make(chan struct{})
				c := startPair(t, func(context.Context, byte, []byte) ([]byte, error) {
					<-block
					return nil, nil
				})
				// Registered after startPair so it runs before srv.Close,
				// which waits for in-flight handlers.
				t.Cleanup(func() { close(block) })
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
				defer cancel()
				_, err := c.Call(ctx, MsgCall, []byte("x"))
				return err
			},
			wantPhase:   PhaseAwait,
			wantSent:    true,
			wantTimeout: true,
			wantIs:      context.DeadlineExceeded,
		},
		{
			name: "peer dies while awaiting reply",
			run: func(t *testing.T) error {
				started := make(chan *Conn, 1)
				c := startPair(t, func(context.Context, byte, []byte) ([]byte, error) {
					cc := <-started
					_ = cc.c.Close() // tear the wire under the in-flight call
					return nil, errors.New("unreachable reply")
				})
				started <- c
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				defer cancel()
				_, err := c.Call(ctx, MsgCall, []byte("x"))
				return err
			},
			wantPhase: PhaseAwait,
			wantSent:  true,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run(t)
			var ce *CallError
			if !errors.As(err, &ce) {
				t.Fatalf("want *CallError, got %T: %v", err, err)
			}
			if ce.Phase != tc.wantPhase || ce.Sent != tc.wantSent {
				t.Fatalf("classified (%s, sent=%t), want (%s, sent=%t): %v",
					ce.Phase, ce.Sent, tc.wantPhase, tc.wantSent, err)
			}
			if timeout := errors.Is(err, context.DeadlineExceeded); timeout != tc.wantTimeout {
				t.Fatalf("deadline exceeded = %t, want %t: %v", timeout, tc.wantTimeout, err)
			}
			if tc.wantIs != nil && !errors.Is(err, tc.wantIs) {
				t.Fatalf("errors.Is(%v, %v) = false", err, tc.wantIs)
			}
		})
	}
}

// TestSendFailuresSameOnEveryEntry: a started call (Send, then Wait) and
// Conn.Call are one Send, so each way a request can fail before its frame
// is whole reports the same *CallError{Phase: PhaseSend, Sent: false} with
// the same cause, registers nothing, and leaves the connection in the same
// state — usable, except after a torn frame. Send returns every failure
// itself but one: the frame is queued, so the Write that tears it reports
// through the first Wait.
func TestSendFailuresSameOnEveryEntry(t *testing.T) {
	oversized := make([]byte, maxFrameSize+1)
	cases := []struct {
		name     string
		sever    bool // the link cuts the first frame partway through
		ctx      func() (context.Context, context.CancelFunc)
		closed   bool
		payload  []byte
		wantIs   error
		terminal bool
	}{
		{name: "pre-cancelled ctx", ctx: func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			return ctx, cancel
		}, wantIs: context.Canceled},
		{name: "expired deadline", ctx: func() (context.Context, context.CancelFunc) {
			return context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		}, wantIs: context.DeadlineExceeded},
		{name: "closed conn", closed: true, wantIs: ErrClosed, terminal: true},
		{name: "oversized payload", payload: oversized, wantIs: ErrFrameTooLarge},
		{name: "write fails mid-frame", sever: true, wantIs: netsim.ErrSevered, terminal: true},
	}
	for _, tc := range cases {
		for _, entry := range []string{"Start", "Call"} {
			t.Run(tc.name+"/"+entry, func(t *testing.T) {
				n := netsim.NewNetwork()
				defer n.Close()
				ln, err := n.Listen("srv")
				if err != nil {
					t.Fatal(err)
				}
				srv := Serve(ln, func(context.Context, byte, []byte) ([]byte, error) { return nil, nil })
				defer srv.Close()
				if tc.sever {
					n.SetFaults("srv", netsim.NewPlan(1).SeverFrame(1))
				}
				nc, err := n.Dial("srv")
				if err != nil {
					t.Fatal(err)
				}
				c := NewConn(nc)
				defer c.Close()
				if tc.closed {
					c.Close()
				}
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				if tc.ctx != nil {
					ctx, cancel = tc.ctx()
				}
				defer cancel()
				payload := tc.payload
				if payload == nil {
					payload = []byte("request")
				}

				if entry == "Call" {
					_, err = c.Call(ctx, MsgCall, payload)
				} else if pc, serr := sendCall(c, ctx, payload); serr != nil {
					err = serr
				} else {
					_, err = pc.Wait(context.Background())
				}
				var ce *CallError
				if !errors.As(err, &ce) {
					t.Fatalf("want *CallError, got %T: %v", err, err)
				}
				if ce.Phase != PhaseSend || ce.Sent || !errors.Is(err, tc.wantIs) {
					t.Fatalf("got (%s, sent=%t) %v; want (%s, sent=false) wrapping %v", ce.Phase, ce.Sent, err, PhaseSend, tc.wantIs)
				}
				if inFlight(c) != 0 {
					t.Fatalf("a failed send left %d pending entries", inFlight(c))
				}
				if dead := c.Err() != nil; dead != tc.terminal {
					t.Fatalf("conn terminal = %t (%v), want %t", dead, c.Err(), tc.terminal)
				}
			})
		}
	}
}

// TestDeadlineExpiresMidWrite pins the contract for a context that dies
// while the request frame is still being written: a netsim delay fault
// holds the frame past the deadline, Wait returns at the deadline as an
// await-phase timeout with Sent=true (the frame may yet go out), and the
// held Write completes: a deadline never tears a frame, and the conn stays
// healthy.
func TestDeadlineExpiresMidWrite(t *testing.T) {
	const hold = 120 * time.Millisecond
	n := netsim.NewNetwork()
	defer n.Close()
	// Delay both the request and the reply so the reply cannot win the
	// race against the already-expired context.
	n.SetFaults("srv", netsim.NewPlan(1).DelayFrame(1, hold).DelayFrame(2, hold))
	ln, err := n.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, func(_ context.Context, _ byte, payload []byte) ([]byte, error) { return payload, nil })
	defer srv.Close()
	nc, err := n.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	c := NewConn(nc)
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.Call(ctx, MsgCall, []byte("held"))
	elapsed := time.Since(start)

	var ce *CallError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CallError, got %T: %v", err, err)
	}
	if ce.Phase != PhaseAwait || !ce.Sent || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want await-phase sent timeout, got %v", err)
	}
	if elapsed >= hold {
		t.Fatalf("call returned after %v; the deadline must not wait for the held write (%v)", elapsed, hold)
	}
	// The held frame goes out whole behind the deadline, and the connection
	// survives it: the next call is answered on the same conn.
	got, err := c.Call(context.Background(), MsgCall, []byte("after"))
	if err != nil || string(got) != "after" {
		t.Fatalf("call after the deadline: %q, %v", got, err)
	}
	ReleasePayload(got)
	if c.Err() != nil {
		t.Fatalf("deadline must not poison the conn: %v", c.Err())
	}
}

// TestConnErrHealth checks the Err health accessor across the lifecycle.
func TestConnErrHealth(t *testing.T) {
	c := startPair(t, func(_ context.Context, _ byte, payload []byte) ([]byte, error) { return payload, nil })
	if err := c.Err(); err != nil {
		t.Fatalf("fresh conn unhealthy: %v", err)
	}
	p, err := c.Call(context.Background(), MsgCall, []byte("ok"))
	if err != nil {
		t.Fatal(err)
	}
	ReleasePayload(p)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Err(); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed conn must report ErrClosed, got %v", err)
	}
}
