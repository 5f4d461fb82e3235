package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"nrmi/internal/netsim"
)

// readFrame reads one frame; see readFrameInto.
func readFrame(r io.Reader) (frame, error) { return readFrameInto(r, new([headerSize + 8]byte)) }

// startPair spins up a server with the given handler on a loopback netsim
// network and returns a connected client conn.
func startPair(t *testing.T, h Handler) *Conn {
	t.Helper()
	_, c := startServerPair(t, h)
	return c
}

// startServerPair is startPair for tests that also read the server's Stats
// or shut it down themselves.
func startServerPair(t *testing.T, h Handler) (*Server, *Conn) {
	t.Helper()
	n := netsim.NewNetwork()
	t.Cleanup(func() { n.Close() })
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
	c := NewConn(nc)
	t.Cleanup(func() { c.Close() })
	return srv, c
}

func TestCallReply(t *testing.T) {
	c := startPair(t, func(_ context.Context, msgType byte, payload []byte) ([]byte, error) {
		if msgType != MsgCall {
			return nil, fmt.Errorf("unexpected type %d", msgType)
		}
		return append([]byte("echo:"), payload...), nil
	})
	got, err := c.Call(context.Background(), MsgCall, []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "echo:hi" {
		t.Fatalf("got %q", got)
	}
	ReleasePayload(got)
}

func TestRemoteErrorPropagation(t *testing.T) {
	c := startPair(t, func(_ context.Context, msgType byte, payload []byte) ([]byte, error) {
		return nil, errors.New("kaboom")
	})
	_, err := c.Call(context.Background(), MsgCall, nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("want *RemoteError, got %v", err)
	}
	if !strings.Contains(re.Error(), "kaboom") {
		t.Fatalf("message lost: %v", re)
	}
}

func TestConcurrentCallsMultiplexed(t *testing.T) {
	c := startPair(t, func(_ context.Context, msgType byte, payload []byte) ([]byte, error) {
		// Reverse replies arrive out of order relative to request order.
		if len(payload) > 0 && payload[0] == 'a' {
			time.Sleep(20 * time.Millisecond)
		}
		return payload, nil
	})
	var wg sync.WaitGroup
	results := make([]string, 10)
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tag := fmt.Sprintf("%c%d", 'a'+byte(i%2), i)
			got, err := c.Call(context.Background(), MsgCall, []byte(tag))
			if err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
			results[i] = string(got)
			ReleasePayload(got)
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		want := fmt.Sprintf("%c%d", 'a'+byte(i%2), i)
		if r != want {
			t.Fatalf("reply %d misrouted: got %q want %q", i, r, want)
		}
	}
}

func TestContextCancellation(t *testing.T) {
	block := make(chan struct{})
	c := startPair(t, func(_ context.Context, msgType byte, payload []byte) ([]byte, error) {
		<-block
		return nil, nil
	})
	defer close(block)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := c.Call(ctx, MsgCall, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

func TestCallAfterClose(t *testing.T) {
	c := startPair(t, func(_ context.Context, msgType byte, payload []byte) ([]byte, error) {
		return payload, nil
	})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	_, err := c.Call(context.Background(), MsgCall, nil)
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

// inFlight returns the number of calls awaiting a reply on c: its pending
// map's length. A closed conn has failed them all and reports 0.
func inFlight(c *Conn) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

func TestInFlightTracksPendingCalls(t *testing.T) {
	entered := make(chan struct{}, 3)
	release := make(chan struct{})
	c := startPair(t, func(_ context.Context, _ byte, payload []byte) ([]byte, error) {
		entered <- struct{}{}
		<-release
		return payload, nil
	})
	if got := inFlight(c); got != 0 {
		t.Fatalf("idle conn reports %d in flight", got)
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Call(context.Background(), MsgCall, nil); err != nil {
				t.Errorf("call: %v", err)
			}
		}()
	}
	// A handler entered means its request frame round-tripped, so the
	// caller's pending entry is registered.
	for i := 0; i < 3; i++ {
		<-entered
	}
	if got := inFlight(c); got != 3 {
		t.Fatalf("in flight = %d with 3 blocked calls, want 3", got)
	}
	close(release)
	wg.Wait()
	if got := inFlight(c); got != 0 {
		t.Fatalf("in flight = %d after all replies, want 0", got)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got := inFlight(c); got != 0 {
		t.Fatalf("closed conn reports %d in flight, want 0", got)
	}
}

func TestServerCloseFailsInFlight(t *testing.T) {
	n := netsim.NewNetwork()
	defer n.Close()
	ln, err := n.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	srv := Serve(ln, func(_ context.Context, msgType byte, payload []byte) ([]byte, error) {
		close(block)
		time.Sleep(10 * time.Millisecond)
		return payload, nil
	})
	nc, err := n.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	c := NewConn(nc)
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		p, err := c.Call(context.Background(), MsgCall, []byte("x"))
		ReleasePayload(p)
		done <- err
	}()
	<-block
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
		// Either the reply raced through before close or the conn died:
		// both are acceptable; what matters is we did not hang.
	case <-time.After(2 * time.Second):
		t.Fatal("call hung after server close")
	}
}

func TestFrameEncodingRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := frame{msgType: MsgPing, flags: flagError, reqID: 777, payload: []byte("payload")}
	if err := writeFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.msgType != in.msgType || out.flags != in.flags || out.reqID != in.reqID || string(out.payload) != "payload" {
		t.Fatalf("frame mangled: %+v", out)
	}
	ReleasePayload(out.payload)
}

func TestBadMagicRejected(t *testing.T) {
	buf := make([]byte, headerSize)
	buf[0] = 0xDE
	buf[1] = 0xAD
	_, err := readFrame(bytes.NewReader(buf))
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("want ErrBadFrame, got %v", err)
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	var buf bytes.Buffer
	err := writeFrame(&buf, frame{payload: make([]byte, maxFrameSize+1)})
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("write: want ErrFrameTooLarge, got %v", err)
	}
	// Hand-craft an oversize header.
	hdr := make([]byte, headerSize)
	hdr[0], hdr[1] = 0x4E, 0x52
	hdr[12], hdr[13], hdr[14], hdr[15] = 0xFF, 0xFF, 0xFF, 0xFF
	_, err = readFrame(bytes.NewReader(hdr))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("read: want ErrFrameTooLarge, got %v", err)
	}
}

func TestWorksOverRealTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, func(_ context.Context, msgType byte, payload []byte) ([]byte, error) {
		return append([]byte("tcp:"), payload...), nil
	})
	defer srv.Close()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := NewConn(nc)
	defer c.Close()
	got, err := c.Call(context.Background(), MsgCall, []byte("ok"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "tcp:ok" {
		t.Fatalf("got %q", got)
	}
	ReleasePayload(got)
}

func TestManySequentialCalls(t *testing.T) {
	c := startPair(t, func(_ context.Context, msgType byte, payload []byte) ([]byte, error) {
		return payload, nil
	})
	for i := 0; i < 200; i++ {
		msg := []byte(fmt.Sprintf("m%d", i))
		got, err := c.Call(context.Background(), MsgCall, msg)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("call %d: got %q", i, got)
		}
		ReleasePayload(got)
	}
}

func TestHandlerPanicBecomesErrorReply(t *testing.T) {
	c := startPair(t, func(_ context.Context, msgType byte, payload []byte) ([]byte, error) {
		if string(payload) == "boom" {
			panic("handler exploded")
		}
		return payload, nil
	})
	ctx := context.Background()
	_, err := c.Call(ctx, MsgCall, []byte("boom"))
	if err == nil || !strings.Contains(err.Error(), "handler panicked") {
		t.Fatalf("panic must become an error reply: %v", err)
	}
	// The server survives and keeps serving.
	got, err := c.Call(ctx, MsgCall, []byte("still alive"))
	if err != nil || string(got) != "still alive" {
		t.Fatalf("server died after panic: %v %q", err, got)
	}
	ReleasePayload(got)
}
