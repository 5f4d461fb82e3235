package netsim

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestDelayModel(t *testing.T) {
	p := Profile{Latency: time.Millisecond, Bandwidth: 1000} // 1 KB/s
	if got := p.Delay(0); got != time.Millisecond {
		t.Fatalf("latency-only delay = %v", got)
	}
	if got := p.Delay(1000); got != time.Millisecond+time.Second {
		t.Fatalf("1000B over 1KB/s = %v", got)
	}
	if got := (Profile{}).Delay(1 << 20); got != 0 {
		t.Fatalf("loopback must be free, got %v", got)
	}
}

func TestLAN100MbpsShape(t *testing.T) {
	p := LAN100Mbps()
	small := p.Delay(100)
	large := p.Delay(100_000)
	if large <= small {
		t.Fatal("larger messages must take longer")
	}
	// 100 KB at 12.5 MB/s is 8 ms of serialization.
	if large < 8*time.Millisecond || large > 20*time.Millisecond {
		t.Fatalf("100KB delay out of expected range: %v", large)
	}
}

func TestDialListenRoundTrip(t *testing.T) {
	n := NewNetwork(Loopback())
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
	n := NewNetwork(Loopback())
	defer n.Close()
	if _, err := n.Dial("nobody"); !errors.Is(err, ErrConnRefused) {
		t.Fatalf("want ErrConnRefused, got %v", err)
	}
}

func TestListenDuplicateAddress(t *testing.T) {
	n := NewNetwork(Loopback())
	defer n.Close()
	if _, err := n.Listen("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("a"); !errors.Is(err, ErrAddrInUse) {
		t.Fatalf("want ErrAddrInUse, got %v", err)
	}
}

func TestListenerCloseUnblocksAccept(t *testing.T) {
	n := NewNetwork(Loopback())
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
	n := NewNetwork(Loopback())
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

func TestShapedLatencyObserved(t *testing.T) {
	n := NewNetwork(Profile{Latency: 20 * time.Millisecond})
	defer n.Close()
	ln, err := n.Listen("s")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 1)
		_, _ = c.Read(buf)
		_, _ = c.Write(buf)
	}()
	c, err := n.Dial("s")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if _, err := c.Write([]byte{1}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := c.Read(buf); err != nil {
		t.Fatal(err)
	}
	rtt := time.Since(start)
	if rtt < 35*time.Millisecond {
		t.Fatalf("round trip should cost ~2x one-way latency, got %v", rtt)
	}
}

func TestAddrReporting(t *testing.T) {
	n := NewNetwork(Loopback())
	defer n.Close()
	ln, err := n.Listen("named-endpoint")
	if err != nil {
		t.Fatal(err)
	}
	if ln.Addr().String() != "named-endpoint" || ln.Addr().Network() != "netsim" {
		t.Fatalf("addr = %v/%v", ln.Addr().Network(), ln.Addr().String())
	}
}
