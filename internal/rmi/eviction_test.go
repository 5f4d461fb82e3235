package rmi

import (
	"context"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// connState reports on c's pooled connection to addr: whether one is
// pooled, how many of its calls await a reply, and its health (nil while
// usable, the terminal error once dead). The count is the length of the
// transport conn's pending map, which its package keeps unexported; Err
// takes and releases the conn's lock first, so every change made under it
// is visible.
func connState(c *Client, addr string) (pooled bool, inFlight int, err error) {
	c.mu.Lock()
	tc, ok := c.conns[addr]
	c.mu.Unlock()
	if !ok {
		return false, 0, nil
	}
	err = tc.Err()
	return true, reflect.ValueOf(tc).Elem().FieldByName("pending").Len(), err
}

// Regression test: a pooled connection found dead by the health check
// used to be discarded with its terminal error thrown away. Eviction
// must record the cause (and count) in Metrics, so operators can tell
// why connections are churning.
func TestEvictionRecordsCause(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	stub := e.client.Stub("server", "trees")
	if _, err := stub.Call(ctx, "Calls"); err != nil {
		t.Fatal(err)
	}

	if pooled, inFlight, err := connState(e.client, "server"); !pooled || inFlight != 0 || err != nil {
		t.Fatalf("connState after a call = (%t, %d, %v), want pooled, idle, healthy", pooled, inFlight, err)
	}
	if pooled, _, _ := connState(e.client, "nobody"); pooled {
		t.Fatal("connState invented a connection to an address never dialed")
	}
	if m := e.client.Metrics(); m.Evictions != 0 || m.EvictionCauses != nil {
		t.Fatalf("eviction counters non-zero before any eviction: %+v", m)
	}

	// Kill the server and wait for the pooled connection's read loop to
	// observe the failure (connState surfaces the same health check the
	// pool uses for eviction).
	if err := e.server.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, err := connState(e.client, "server"); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pooled connection never observed the server close")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The next call finds the dead connection, evicts it (recording the
	// cause), and redials — which fails too, since nothing listens.
	if _, err := stub.Call(ctx, "Calls"); err == nil {
		t.Fatal("call against a dead server must fail")
	}

	m := e.client.Metrics()
	if m.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", m.Evictions)
	}
	if m.Reconnects != m.Evictions {
		t.Fatalf("Reconnects = %d but Evictions = %d; the pair must move together", m.Reconnects, m.Evictions)
	}
	if len(m.EvictionCauses) != 1 {
		t.Fatalf("EvictionCauses = %v, want exactly one cause", m.EvictionCauses)
	}
	var total int64
	for cause, n := range m.EvictionCauses {
		if cause == "" || cause == "unknown" {
			t.Fatalf("eviction recorded no real cause: %q", cause)
		}
		total += n
	}
	if total != m.Evictions {
		t.Fatalf("cause tally %d != eviction count %d", total, m.Evictions)
	}

	// Snapshot isolation: mutating the returned map must not leak back.
	m.EvictionCauses["tampered"] = 99
	if m2 := e.client.Metrics(); len(m2.EvictionCauses) != 1 {
		t.Fatalf("Metrics map is shared with callers: %v", m2.EvictionCauses)
	}
}

// TestSlowDialStallsOnlyItsAddress: a dial that hangs holds up the calls to
// its own address only; a call to another address goes through meanwhile.
func TestSlowDialStallsOnlyItsAddress(t *testing.T) {
	e := newEnv(t)
	entered, release := make(chan struct{}), make(chan struct{})
	cl, err := NewClient(func(addr string) (net.Conn, error) {
		if addr == "client" {
			close(entered)
			<-release
		}
		return e.net.Dial(addr)
	}, e.serverOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unblock)
	slow := make(chan error, 1)
	go func() { slow <- cl.Ping(context.Background(), "client") }()
	<-entered

	fast := make(chan error, 1)
	go func() {
		_, err := cl.Stub("server", "trees").Call(context.Background(), "Calls")
		fast <- err
	}()
	select {
	case err := <-fast:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a call to another address waited on the blocked dial")
	}
	unblock()
	if err := <-slow; err != nil {
		t.Fatalf("the slow address's call: %v", err)
	}
}

// TestRacingFirstDialsPoolOne: a first call to an address that finds a
// dial to it in flight waits for that dial; the address is dialed once.
func TestRacingFirstDialsPoolOne(t *testing.T) {
	e := newEnv(t)
	var dialed atomic.Int32
	entered, release := make(chan struct{}), make(chan struct{})
	cl, err := NewClient(func(addr string) (net.Conn, error) {
		if dialed.Add(1) == 1 {
			close(entered)
			<-release
		}
		return e.net.Dial(addr)
	}, e.serverOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	errs := make(chan error, 2)
	call := func() {
		_, err := cl.Stub("server", "trees").Call(context.Background(), "Calls")
		errs <- err
	}
	go call()
	<-entered
	go call()
	time.Sleep(20 * time.Millisecond) // let the second call find the dial
	close(release)
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if m := cl.Metrics(); dialed.Load() != 1 || m.Dials != 1 {
		t.Fatalf("%d dials made, Dials = %d; want 1, 1", dialed.Load(), m.Dials)
	}
}

// TestCloseDuringDial: a connection whose dial Close overtook is closed,
// not pooled, and its callers get an error.
func TestCloseDuringDial(t *testing.T) {
	e := newEnv(t)
	entered, release := make(chan struct{}), make(chan struct{})
	cl, err := NewClient(func(addr string) (net.Conn, error) {
		close(entered)
		<-release
		return e.net.Dial(addr)
	}, e.serverOptions())
	if err != nil {
		t.Fatal(err)
	}
	ping := make(chan error, 1)
	go func() { ping <- cl.Ping(context.Background(), "server") }()
	<-entered
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-ping; err == nil {
		t.Fatal("a call whose dial Close overtook succeeded")
	}
	if pooled, _, _ := connState(cl, "server"); pooled {
		t.Fatal("Close left a connection pooled")
	}
}
