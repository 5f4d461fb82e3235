package transport

// Wire-level tests for the graceful-degradation protocol features:
// per-call deadline propagation (the flagDeadline frame extension),
// typed status errors (flagStatus), StopAccepting, and Drain. See
// docs/PROTOCOL.md, section 8.

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"nrmi/internal/netsim"
)

// TestDeadlineFrameRoundTrip pins the frame extension: a deadline
// survives write/read as a microsecond budget, and a frame without one is
// byte-identical to the pre-extension layout.
func TestDeadlineFrameRoundTrip(t *testing.T) {
	var with, without bytes.Buffer
	f := frame{msgType: MsgCall, reqID: 7, payload: []byte("p")}
	if err := writeFrame(&without, f); err != nil {
		t.Fatal(err)
	}
	f.deadline = 1500 * time.Millisecond
	if err := writeFrame(&with, f); err != nil {
		t.Fatal(err)
	}
	if with.Len() != without.Len()+8 {
		t.Fatalf("deadline extension added %d bytes, want 8", with.Len()-without.Len())
	}

	got, err := readFrame(&with)
	if err != nil {
		t.Fatal(err)
	}
	if got.deadline != 1500*time.Millisecond {
		t.Fatalf("deadline = %v, want 1.5s", got.deadline)
	}
	if got.flags&flagDeadline != 0 {
		t.Fatal("flagDeadline leaked into the post-read flags")
	}
	if string(got.payload) != "p" || got.reqID != 7 {
		t.Fatalf("frame corrupted: %+v", got)
	}
	ReleasePayload(got.payload)

	got, err = readFrame(&without)
	if err != nil {
		t.Fatal(err)
	}
	if got.deadline != 0 {
		t.Fatalf("deadline = %v for a frame without one", got.deadline)
	}
	ReleasePayload(got.payload)
}

// TestDeadlinePropagation: the handler's ctx carries a deadline exactly
// when the caller's ctx does.
func TestDeadlinePropagation(t *testing.T) {
	c := startPair(t, func(ctx context.Context, _ byte, _ []byte) ([]byte, error) {
		if _, ok := ctx.Deadline(); ok {
			return []byte{1}, nil
		}
		return []byte{0}, nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	got, err := c.Call(ctx, MsgCall, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Fatal("caller deadline did not reach the handler context")
	}
	ReleasePayload(got)
	got, err = c.Call(context.Background(), MsgCall, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Fatal("handler context has a deadline the caller never set")
	}
	ReleasePayload(got)
}

// TestStatusErrorRoundTrip: a handler failing with a typed sentinel
// reaches the caller as a StatusError that errors.Is-matches the
// sentinel; plain errors still arrive as RemoteError.
func TestStatusErrorRoundTrip(t *testing.T) {
	cases := []struct {
		name     string
		ret      error
		sentinel error
		code     byte
	}{
		{"unavailable", ErrUnavailable, ErrUnavailable, StatusUnavailable},
		{"overloaded", ErrOverloaded, ErrOverloaded, StatusOverloaded},
		{"cancelled", context.DeadlineExceeded, context.DeadlineExceeded, StatusCancelled},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := startPair(t, func(_ context.Context, _ byte, _ []byte) ([]byte, error) {
				return nil, tc.ret
			})
			_, err := c.Call(context.Background(), MsgCall, nil)
			var se *StatusError
			if !errors.As(err, &se) {
				t.Fatalf("got %T %v, want StatusError", err, err)
			}
			if se.Code != tc.code {
				t.Fatalf("code = %d, want %d", se.Code, tc.code)
			}
			if !errors.Is(err, tc.sentinel) {
				t.Fatalf("errors.Is(%v, sentinel) = false", err)
			}
		})
	}
	c := startPair(t, func(_ context.Context, _ byte, _ []byte) ([]byte, error) {
		return nil, errors.New("plain application failure")
	})
	_, err := c.Call(context.Background(), MsgCall, nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("plain error arrived as %T, want RemoteError", err)
	}
}

// TestStopAcceptingKeepsServing: after StopAccepting, established
// connections still get replies while new dials are refused.
func TestStopAcceptingKeepsServing(t *testing.T) {
	n := netsim.NewNetwork()
	defer n.Close()
	ln, err := n.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, func(_ context.Context, _ byte, p []byte) ([]byte, error) {
		return p, nil
	})
	defer srv.Close()
	nc, err := n.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	c := NewConn(nc)
	defer c.Close()

	if err := srv.StopAccepting(); err != nil {
		t.Fatal(err)
	}
	if err := srv.StopAccepting(); err != nil {
		t.Fatalf("second StopAccepting: %v", err)
	}
	got, err := c.Call(context.Background(), MsgCall, []byte("still here"))
	if err != nil || string(got) != "still here" {
		t.Fatalf("established conn broken after StopAccepting: %v %q", err, got)
	}
	ReleasePayload(got)
	if nc2, err := n.Dial("srv"); err == nil {
		// The dial may succeed at the netsim layer; the conn must be dead.
		c2 := NewConn(nc2)
		defer c2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		if _, err := c2.Call(ctx, MsgCall, nil); err == nil {
			t.Fatal("new connection served after StopAccepting")
		}
	}
}

// TestDrainWaitsForReplies: Drain returns only after in-flight request
// goroutines have written their replies, and honors its ctx when a
// handler wedges.
func TestDrainWaitsForReplies(t *testing.T) {
	n := netsim.NewNetwork()
	defer n.Close()
	ln, err := n.Listen("drain")
	if err != nil {
		t.Fatal(err)
	}
	rel2 := make(chan struct{})
	ent2 := make(chan struct{}, 1)
	srv2 := Serve(ln, func(_ context.Context, _ byte, _ []byte) ([]byte, error) {
		ent2 <- struct{}{}
		<-rel2
		return []byte("ok"), nil
	})
	defer srv2.Close()
	nc, err := n.Dial("drain")
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewConn(nc)
	defer c2.Close()
	done2 := make(chan error, 1)
	go func() {
		p, err := c2.Call(context.Background(), MsgCall, nil)
		ReleasePayload(p)
		done2 <- err
	}()
	<-ent2

	// A wedged handler: Drain must give up when its ctx expires.
	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer dcancel()
	if err := srv2.Drain(dctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain under a wedged handler = %v, want DeadlineExceeded", err)
	}
	close(rel2)
	if err := srv2.Drain(context.Background()); err != nil {
		t.Fatalf("Drain after release: %v", err)
	}
	if err := <-done2; err != nil {
		t.Fatalf("drained call lost its reply: %v", err)
	}
}
