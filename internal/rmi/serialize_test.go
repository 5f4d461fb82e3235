package rmi

import (
	"context"
	"sync"
	"testing"
	"time"
)

// RacyCounter is deliberately NOT thread-safe: only ExportSerialized makes
// it safe to call concurrently.
type RacyCounter struct {
	N int
}

// Bump increments without any synchronization.
func (c *RacyCounter) Bump() int {
	n := c.N
	// Widen the race window: reload after a function call boundary.
	c.N = n + 1
	return c.N
}

func TestExportSerializedSerializesCalls(t *testing.T) {
	e := newEnv(t)
	counter := &RacyCounter{}
	if err := e.server.ExportSerialized("counter", counter); err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const perG = 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stub := e.client.Stub("server", "counter")
			for i := 0; i < perG; i++ {
				if _, err := stub.Call(context.Background(), "Bump"); err != nil {
					t.Errorf("bump: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if counter.N != goroutines*perG {
		t.Fatalf("lost updates: %d, want %d", counter.N, goroutines*perG)
	}
}

func TestUnexportClearsSerialization(t *testing.T) {
	e := newEnv(t)
	if err := e.server.ExportSerialized("counter", &RacyCounter{}); err != nil {
		t.Fatal(err)
	}
	e.server.Unexport("counter")
	if err := e.server.Export("counter", &RacyCounter{}); err != nil {
		t.Fatal(err)
	}
	if x, err := e.server.resolveTarget([]byte("counter")); err != nil || x.serial != nil {
		t.Fatalf("unexport must drop the serialization lock: %+v, %v", x, err)
	}
}

// Gate's Enter announces itself on in and returns once release is closed.
type Gate struct {
	in      chan struct{}
	release chan struct{}
}

// Enter blocks until the gate opens.
func (g *Gate) Enter() {
	g.in <- struct{}{}
	<-g.release
}

// TestExportRebindDropsSerialization: a plain Export that rebinds a name
// bound by ExportSerialized drops the old binding's mutex with it, so two
// calls to the new object run at once.
func TestExportRebindDropsSerialization(t *testing.T) {
	e := newEnv(t)
	if err := e.server.ExportSerialized("gate", &Gate{}); err != nil {
		t.Fatal(err)
	}
	g := &Gate{in: make(chan struct{}, 2), release: make(chan struct{})}
	if err := e.server.Export("gate", g); err != nil {
		t.Fatal(err)
	}
	stub := e.client.Stub("server", "gate")
	ctx := context.Background()
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := stub.Call(ctx, "Enter"); err != nil {
				t.Errorf("Enter: %v", err)
			}
		}()
	}
	defer wg.Wait()
	defer close(g.release)
	for i := range 2 {
		select {
		case <-g.in:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of 2 calls entered: the other waits on the old binding's mutex", i)
		}
	}
}
