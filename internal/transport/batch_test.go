package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nrmi/internal/leakcheck"
	"nrmi/internal/netsim"
)

// heldConn holds its first Write until release is closed and counts Writes.
type heldConn struct {
	net.Conn
	entered chan struct{} // closed once the first Write has begun
	release chan struct{}
	writes  atomic.Int32
}

func holdFirstWrite(c net.Conn) *heldConn {
	return &heldConn{Conn: c, entered: make(chan struct{}), release: make(chan struct{})}
}

func (h *heldConn) Write(p []byte) (int, error) {
	if h.writes.Add(1) == 1 {
		close(h.entered)
		<-h.release
	}
	return h.Conn.Write(p)
}

// heldListener hands out its accepted conns as heldConns.
type heldListener struct {
	net.Listener
	accepted chan *heldConn
}

func (l heldListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	h := holdFirstWrite(c)
	l.accepted <- h
	return h, nil
}

// dialHeld serves h on a loopback netsim network under plan and returns a
// client conn whose first Write is held.
func dialHeld(t *testing.T, plan *netsim.Plan, h Handler) (*Conn, *heldConn) {
	t.Helper()
	n := netsim.NewNetwork()
	t.Cleanup(func() { n.Close() })
	n.SetFaults("srv", plan)
	ln, err := n.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, h)
	t.Cleanup(func() { srv.Close() })
	nc, err := n.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	hc := holdFirstWrite(nc)
	c := NewConn(hc)
	t.Cleanup(func() { c.Close() })
	return c, hc
}

// TestFramesQueuedDuringAWriteShareTheNext: while the first Write is held,
// seven more Sends queue their frames; when it returns, one Write carries
// all seven, and every reply still finds its caller — under any GOMAXPROCS.
func TestFramesQueuedDuringAWriteShareTheNext(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			c, hc := dialHeld(t, nil, echo)
			pcs := make([]*PendingCall, 8)
			send := func(i int) {
				pc, err := sendCall(c, context.Background(), []byte(fmt.Sprint("call ", i)))
				if err != nil {
					t.Fatal(err)
				}
				pcs[i] = pc
			}
			send(0)
			<-hc.entered
			for i := 1; i < len(pcs); i++ {
				send(i)
			}
			close(hc.release)
			for i, pc := range pcs {
				got, err := pc.Wait(context.Background())
				if err != nil || string(got) != fmt.Sprint("call ", i) {
					t.Fatalf("reply %d: %q, %v", i, got, err)
				}
				ReleasePayload(got)
			}
			if w := hc.writes.Load(); w != 2 {
				t.Fatalf("8 frames took %d Writes, want 2: the held one and one for the seven queued behind it", w)
			}
		})
	}
}

// TestBatchWriteFailureSettlesEachFrame: a netsim sever cuts the Write of a
// three-frame batch inside its second frame. The first frame went out
// whole and may have run, so it fails with the connection as Sent; the
// second and third provably did not, so they fail as unsent send-phase
// errors carrying the sever, and nothing stays pending or leaks.
func TestBatchWriteFailureSettlesEachFrame(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	// Link frame 1 is the held frame and frame 2 the batch; the seed puts the
	// cut inside its 32 KiB frame. The handlers of the frames that arrive
	// whole answer only at the end, so no reply can beat the dying conn.
	c, hc := dialHeld(t, netsim.NewPlan(1).SeverFrame(2), func(_ context.Context, _ byte, p []byte) ([]byte, error) {
		if len(p) < 8 {
			<-release
		}
		return p, nil
	})
	t.Cleanup(unblock) // before srv.Close, which waits for the handler
	send := func(p []byte) *PendingCall {
		t.Helper()
		pc, err := sendCall(c, context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		return pc
	}
	held := send([]byte("hold"))
	<-hc.entered
	batch := []*PendingCall{send([]byte("one")), send(fill(32 << 10)), send([]byte("three"))}
	close(hc.release)

	for i, pc := range append([]*PendingCall{held}, batch...) {
		_, err := pc.Wait(context.Background())
		var ce *CallError
		if !errors.As(err, &ce) {
			t.Fatalf("frame %d: want *CallError, got %v", i, err)
		}
		if i <= 1 {
			if ce.Phase != PhaseAwait || !ce.Sent {
				t.Errorf("frame %d went out whole: got %v, want an await-phase sent failure", i, err)
			}
		} else if ce.Phase != PhaseSend || ce.Sent || !errors.Is(err, netsim.ErrSevered) {
			t.Errorf("frame %d was cut: got %v, want an unsent send-phase failure wrapping %v", i, err, netsim.ErrSevered)
		}
	}
	if n := inFlight(c); n != 0 {
		t.Fatalf("%d calls still pending on the dead conn", n)
	}
	if c.Err() == nil {
		t.Fatal("a failed Write left the conn usable")
	}
	unblock()
	leakcheck.Settle(t)
}

// TestDrainWaitsForQueuedReplies: a request counts until the Write that
// carries its reply has returned, so Drain does not return, and Served does
// not count the request, while that Write is held.
func TestDrainWaitsForQueuedReplies(t *testing.T) {
	n := netsim.NewNetwork()
	defer n.Close()
	ln, err := n.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan *heldConn, 1)
	srv := Serve(heldListener{ln, accepted}, echo)
	defer srv.Close()
	nc, err := n.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	c := NewConn(nc)
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		p, err := c.Call(context.Background(), MsgCall, []byte("queued"))
		ReleasePayload(p)
		done <- err
	}()
	hc := <-accepted
	<-hc.entered
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain with the reply held = %v, want DeadlineExceeded", err)
	}
	if st := srv.Stats(); st.Served != 0 {
		t.Fatalf("served %d with the reply still held, want 0", st.Served)
	}
	close(hc.release)
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Served != 1 {
		t.Fatalf("served %d after the reply was written, want 1", st.Served)
	}
	if err := <-done; err != nil {
		t.Fatalf("drained call lost its reply: %v", err)
	}
}

// writerGoroutines counts the live writer goroutines of client conns and of
// server conns.
func writerGoroutines() (client, server int) {
	for _, g := range leakcheck.Stacks() {
		switch {
		case !strings.Contains(g, "transport.(*sender).run("):
		case strings.Contains(g, "created by nrmi/internal/transport.NewConn"):
			client++
		default:
			server++
		}
	}
	return client, server
}

// TestWritersExitWithTheirConnection: each connection end's writer exits
// with it — the client's on Conn.Close and when its read loop ends because
// the server went away, the server's with the connection it serves and
// before Server.Close returns.
func TestWritersExitWithTheirConnection(t *testing.T) {
	noWriters := func(what string) {
		t.Helper()
		eventually(t, what, func() bool {
			client, server := writerGoroutines()
			return client == 0 && server == 0
		})
	}
	noWriters("writers of earlier tests to exit")

	_, c := startServerPair(t, echo)
	eventually(t, "one writer at each end", func() bool {
		client, server := writerGoroutines()
		return client == 1 && server == 1
	})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	noWriters("both writers to exit after Conn.Close")

	srv, c := startServerPair(t, echo)
	p, err := c.Call(context.Background(), MsgCall, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	ReleasePayload(p)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, server := writerGoroutines(); server != 0 {
		t.Fatalf("%d server writers outlive Server.Close", server)
	}
	// The client's read loop ends on the closed connection and stops its
	// writer; nobody calls Conn.Close.
	noWriters("the client writer to exit after its read loop ended")
	if c.Err() == nil {
		t.Fatal("the conn of a closed server reports healthy")
	}
}
