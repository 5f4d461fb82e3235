package netsim

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestDialListenRoundTrip(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	ln, err := n.Listen("server")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := ln.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		defer c.Close()
		buf := make([]byte, 5)
		if _, err := c.Read(buf); err != nil {
			t.Errorf("read: %v", err)
			return
		}
		if _, err := c.Write([]byte("world")); err != nil {
			t.Errorf("write: %v", err)
		}
	}()
	c, err := n.Dial("server")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := c.Read(buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "world" {
		t.Fatalf("got %q", buf)
	}
	wg.Wait()

	st := n.Stats()
	if st.BytesSent != 10 || st.Messages != 2 {
		t.Fatalf("stats = %+v, want 10 bytes / 2 messages", st)
	}
	n.ResetStats()
	if st := n.Stats(); st.BytesSent != 0 || st.Messages != 0 {
		t.Fatalf("reset failed: %+v", st)
	}
}

func TestDialUnknownAddress(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	if _, err := n.Dial("nobody"); !errors.Is(err, ErrConnRefused) {
		t.Fatalf("want ErrConnRefused, got %v", err)
	}
}

func TestListenDuplicateAddress(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	if _, err := n.Listen("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("a"); !errors.Is(err, ErrAddrInUse) {
		t.Fatalf("want ErrAddrInUse, got %v", err)
	}
}

func TestListenerCloseUnblocksAccept(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	ln, err := n.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := ln.Accept()
		done <- err
	}()
	time.Sleep(time.Millisecond)
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("want ErrClosed, got %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Accept did not unblock")
	}
	// Address is free again.
	if _, err := n.Listen("a"); err != nil {
		t.Fatalf("relisten after close: %v", err)
	}
}

func TestNetworkCloseRefusesEverything(t *testing.T) {
	n := NewNetwork()
	if _, err := n.Listen("a"); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("b"); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if _, err := n.Dial("a"); err == nil {
		t.Fatal("dial after close must fail")
	}
}

func TestAddrReporting(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	ln, err := n.Listen("named-endpoint")
	if err != nil {
		t.Fatal(err)
	}
	if ln.Addr().String() != "named-endpoint" || ln.Addr().Network() != "netsim" {
		t.Fatalf("addr = %v/%v", ln.Addr().Network(), ln.Addr().String())
	}
}
