package rmi

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"nrmi/internal/core"
	"nrmi/internal/netsim"
	"nrmi/internal/registry"
	"nrmi/internal/wire"
)

// RTree is a restorable tree: the paper's running example carried over the
// full RPC stack.
type RTree struct {
	Data        int
	Left, Right *RTree
}

// NRMIRestorable marks RTree for call-by-copy-restore.
func (*RTree) NRMIRestorable() {}

// CTree is a plain serializable tree (call-by-copy).
type CTree struct {
	Data        int
	Left, Right *CTree
}

// TreeService is the benchmark-style exported service.
type TreeService struct {
	mu    sync.Mutex
	calls int
}

// Foo is the paper's running-example mutation (Section 2).
func (s *TreeService) Foo(tree *RTree) {
	s.mu.Lock()
	s.calls++
	s.mu.Unlock()
	tree.Left.Data = 0
	tree.Right.Data = 9
	tree.Right.Right.Data = 8
	tree.Left = nil
	temp := &RTree{Data: 2, Left: tree.Right.Right}
	tree.Right.Right = nil
	tree.Right = temp
}

// Sum returns the sum of a by-copy tree; mutations it makes are lost.
func (s *TreeService) Sum(tree *CTree) int {
	if tree == nil {
		return 0
	}
	tree.Data += 1000 // must NOT be visible to the caller
	return tree.Data - 1000 + s.Sum(tree.Left) + s.Sum(tree.Right)
}

// Touch mutates a restorable tree and returns one of its old nodes.
func (s *TreeService) Touch(tree *RTree) *RTree {
	tree.Data *= 2
	return tree.Right
}

// Fail always errors.
func (s *TreeService) Fail() error {
	return errors.New("deliberate failure")
}

// Boom always panics; the panic must become a remote error.
func (s *TreeService) Boom() {
	panic("boom")
}

// Div returns a/b, demonstrating (result, error) methods.
func (s *TreeService) Div(a, b int) (int, error) {
	if b == 0 {
		return 0, errors.New("division by zero")
	}
	return a / b, nil
}

// Tick counts one invocation, as Foo does, with no argument to restore: a
// one-way call can carry it.
func (s *TreeService) Tick() {
	s.mu.Lock()
	s.calls++
	s.mu.Unlock()
}

// Calls reports how many Foo and Tick invocations the service saw.
func (s *TreeService) Calls() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

// CallbackService exercises Remote arguments: it dials back into the
// argument's home server.
type CallbackService struct {
	client *Client
}

// PokeCounter invokes Increment twice on the remotely referenced counter.
func (s *CallbackService) PokeCounter(ref *RemoteRef) error {
	stub := s.client.RefStub(ref)
	for i := 0; i < 2; i++ {
		if _, err := stub.Call(context.Background(), "Increment"); err != nil {
			return err
		}
	}
	return nil
}

// Counter lives on the client and is passed by remote reference.
type Counter struct {
	mu sync.Mutex
	N  int
}

// NRMIRemote marks Counter as a by-reference type.
func (*Counter) NRMIRemote() {}

// Increment bumps the counter.
func (c *Counter) Increment() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.N++
}

// Value reads the counter.
func (c *Counter) Value() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.N
}

// treeRegistry returns a registry binding the tree types TreeService and
// ChaosService take: an env that exports either registers both, or Export
// refuses it.
func treeRegistry(tb testing.TB) *wire.Registry {
	tb.Helper()
	reg := wire.NewRegistry()
	for name, v := range map[string]any{"RTree": RTree{}, "CTree": CTree{}} {
		if err := reg.Register(name, v); err != nil {
			tb.Fatal(err)
		}
	}
	return reg
}

// env is a two-host test world: a server and a client joined by a netsim
// network, each with its own rmi endpoint.
type env struct {
	net     *netsim.Network
	server  *Server
	client  *Client
	clSrv   *Server // the client's own server, for callbacks
	service *TreeService
}

func newEnv(t *testing.T) *env {
	t.Helper()
	reg := treeRegistry(t)
	opts := Options{Core: core.Options{Registry: reg}}
	n := netsim.NewNetwork()
	t.Cleanup(func() { n.Close() })

	srv, err := NewServer("server", opts)
	if err != nil {
		t.Fatal(err)
	}
	svc := &TreeService{}
	if err := srv.Export("trees", svc); err != nil {
		t.Fatal(err)
	}
	ln, err := n.Listen("server")
	if err != nil {
		t.Fatal(err)
	}
	srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	cl, err := NewClient(n.Dial, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	clSrv, err := NewServer("client", opts)
	if err != nil {
		t.Fatal(err)
	}
	cln, err := n.Listen("client")
	if err != nil {
		t.Fatal(err)
	}
	clSrv.Serve(cln)
	t.Cleanup(func() { clSrv.Close() })
	cl.BindLocalServer(clSrv)

	return &env{net: n, server: srv, client: cl, clSrv: clSrv, service: svc}
}

func paperRTree() (root, alias1, alias2, rl, rr *RTree) {
	rl = &RTree{Data: 3}
	rr = &RTree{Data: 4}
	l := &RTree{Data: 1}
	r := &RTree{Data: 7, Left: rl, Right: rr}
	root = &RTree{Data: 5, Left: l, Right: r}
	return root, l, r, rl, rr
}

func TestEndToEndCopyRestore(t *testing.T) {
	e := newEnv(t)
	root, a1, a2, rl, rr := paperRTree()
	stub := e.client.Stub("server", "trees")
	if _, err := stub.Call(context.Background(), "Foo", root); err != nil {
		t.Fatal(err)
	}
	// Figure 2 over the real stack.
	if a1.Data != 0 || a2.Data != 9 || a2.Right != nil || rr.Data != 8 || rl.Data != 3 {
		t.Fatalf("restore wrong: a1=%d a2=%d rr=%d", a1.Data, a2.Data, rr.Data)
	}
	if root.Left != nil || root.Right == nil || root.Right.Data != 2 || root.Right.Left != rr {
		t.Fatalf("structure wrong after restore")
	}
	if e.service.Calls() != 1 {
		t.Fatalf("service saw %d calls", e.service.Calls())
	}
}

func TestEndToEndCallByCopy(t *testing.T) {
	e := newEnv(t)
	tree := &CTree{Data: 1, Left: &CTree{Data: 2}, Right: &CTree{Data: 3}}
	stub := e.client.Stub("server", "trees")
	rets, err := stub.Call(context.Background(), "Sum", tree)
	if err != nil {
		t.Fatal(err)
	}
	if len(rets) != 1 || rets[0].(int) != 6 {
		t.Fatalf("Sum = %v", rets)
	}
	if tree.Data != 1 {
		t.Fatal("by-copy argument mutated on the client")
	}
}

func TestEndToEndReturnedOldObject(t *testing.T) {
	e := newEnv(t)
	root, _, a2, _, _ := paperRTree()
	stub := e.client.Stub("server", "trees")
	rets, err := stub.Call(context.Background(), "Touch", root)
	if err != nil {
		t.Fatal(err)
	}
	if root.Data != 10 {
		t.Fatalf("root.Data = %d, want 10", root.Data)
	}
	if rets[0].(*RTree) != a2 {
		t.Fatal("returned old object must be the client's original")
	}
}

func TestEndToEndErrors(t *testing.T) {
	e := newEnv(t)
	stub := e.client.Stub("server", "trees")
	ctx := context.Background()

	_, err := stub.Call(ctx, "Fail")
	if err == nil || !strings.Contains(err.Error(), "deliberate failure") {
		t.Fatalf("Fail: %v", err)
	}
	_, err = stub.Call(ctx, "Boom")
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("Boom: %v", err)
	}
	rets, err := stub.Call(ctx, "Div", 10, 2)
	if err != nil || rets[0].(int) != 5 {
		t.Fatalf("Div(10,2) = %v, %v", rets, err)
	}
	_, err = stub.Call(ctx, "Div", 1, 0)
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("Div(1,0): %v", err)
	}
	_, err = stub.Call(ctx, "NoSuchMethod")
	if err == nil || !strings.Contains(err.Error(), "no such method") {
		t.Fatalf("missing method: %v", err)
	}
	_, err = e.client.Stub("server", "ghost").Call(ctx, "Foo")
	if err == nil || !strings.Contains(err.Error(), "no such exported object") {
		t.Fatalf("missing object: %v", err)
	}
	_, err = stub.Call(ctx, "Div", 1) // wrong arity
	if err == nil || !strings.Contains(err.Error(), "argument") {
		t.Fatalf("arity: %v", err)
	}
	_, err = stub.Call(ctx, "Div", "x", "y") // wrong types
	if err == nil {
		t.Fatal("type mismatch must fail")
	}
}

func TestRemoteArgumentCallback(t *testing.T) {
	e := newEnv(t)
	cb := &CallbackService{client: mustServerClient(t, e)}
	if err := e.server.Export("callback", cb); err != nil {
		t.Fatal(err)
	}
	counter := &Counter{}
	stub := e.client.Stub("server", "callback")
	if _, err := stub.Call(context.Background(), "PokeCounter", counter); err != nil {
		t.Fatal(err)
	}
	if counter.Value() != 2 {
		t.Fatalf("counter = %d, want 2 (mutated in place via callbacks)", counter.Value())
	}
	if e.clSrv.LiveRefs() != 1 {
		t.Fatalf("client must hold one live export, got %d", e.clSrv.LiveRefs())
	}
}

// mustServerClient builds a client for use by server-side services.
func mustServerClient(t *testing.T, e *env) *Client {
	t.Helper()
	cl, err := NewClient(e.net.Dial, e.serverOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func (e *env) serverOptions() Options { return e.server.opts }

func TestRemoteArgWithoutLocalServerFails(t *testing.T) {
	e := newEnv(t)
	cl, err := NewClient(e.net.Dial, e.server.opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// No BindLocalServer.
	_, err = cl.Stub("server", "trees").Call(context.Background(), "Foo", &Counter{})
	if !errors.Is(err, ErrNoLocalServer) {
		t.Fatalf("want ErrNoLocalServer, got %v", err)
	}
}

func TestDGCReleaseCollects(t *testing.T) {
	e := newEnv(t)
	counter := &Counter{}
	ref, err := e.clSrv.Ref(counter)
	if err != nil {
		t.Fatal(err)
	}
	if e.clSrv.LiveRefs() != 1 {
		t.Fatalf("LiveRefs = %d", e.clSrv.LiveRefs())
	}
	// A client (here: any peer) releases the ref; count drops to zero and
	// the export is collected.
	cl := mustServerClient(t, e)
	if err := cl.Release(context.Background(), ref); err != nil {
		t.Fatal(err)
	}
	if e.clSrv.LiveRefs() != 0 {
		t.Fatalf("export not collected: LiveRefs = %d", e.clSrv.LiveRefs())
	}
	// Calling through a collected ref fails.
	_, err = cl.RefStub(ref).Call(context.Background(), "Value")
	if err == nil {
		t.Fatal("call through collected reference must fail")
	}
}

func TestDGCRefCountAcrossMultipleDescriptors(t *testing.T) {
	e := newEnv(t)
	counter := &Counter{}
	ref1, err := e.clSrv.Ref(counter)
	if err != nil {
		t.Fatal(err)
	}
	ref2, err := e.clSrv.Ref(counter)
	if err != nil {
		t.Fatal(err)
	}
	if ref1.ID != ref2.ID {
		t.Fatal("same object must keep one export id")
	}
	cl := mustServerClient(t, e)
	ctx := context.Background()
	if err := cl.Release(ctx, ref1); err != nil {
		t.Fatal(err)
	}
	if e.clSrv.LiveRefs() != 1 {
		t.Fatal("export must survive while one descriptor is outstanding")
	}
	if err := cl.Release(ctx, ref2); err != nil {
		t.Fatal(err)
	}
	if e.clSrv.LiveRefs() != 0 {
		t.Fatal("export must be collected after last release")
	}
}

func TestDGCLeaseExpiry(t *testing.T) {
	e := newEnv(t)
	counter := &Counter{}
	ref, err := e.clSrv.Ref(counter)
	if err != nil {
		t.Fatal(err)
	}
	cl := mustServerClient(t, e)
	if err := cl.Renew(context.Background(), ref, time.Second); err != nil {
		t.Fatal(err)
	}
	// Not yet expired.
	if n := e.clSrv.SweepLeases(time.Now()); n != 0 {
		t.Fatalf("premature collection: %d", n)
	}
	// Past the lease.
	if n := e.clSrv.SweepLeases(time.Now().Add(2 * time.Second)); n != 1 {
		t.Fatalf("lease sweep collected %d, want 1", n)
	}
	if e.clSrv.LiveRefs() != 0 {
		t.Fatal("expired export must be gone")
	}
}

func TestDGCDistributedCycleLeaks(t *testing.T) {
	// The paper's observation (Section 5.3.3): with reference-counting
	// DGC, a cycle across two address spaces is never collected. Object A
	// on the client server references object B on the main server and
	// vice versa; releasing the external descriptors leaves the mutual
	// counts in place.
	e := newEnv(t)
	a := &Counter{N: 1}
	b := &Counter{N: 2}
	refA, err := e.clSrv.Ref(a) // descriptor held by "server side" (B -> A)
	if err != nil {
		t.Fatal(err)
	}
	refB, err := e.server.Ref(b) // descriptor held by "client side" (A -> B)
	if err != nil {
		t.Fatal(err)
	}
	// External handles (what the application itself held) are released...
	extA, err := e.clSrv.Ref(a)
	if err != nil {
		t.Fatal(err)
	}
	extB, err := e.server.Ref(b)
	if err != nil {
		t.Fatal(err)
	}
	cl := mustServerClient(t, e)
	ctx := context.Background()
	if err := cl.Release(ctx, extA); err != nil {
		t.Fatal(err)
	}
	if err := cl.Release(ctx, extB); err != nil {
		t.Fatal(err)
	}
	// ...but the cycle's own counts (refA held by B's process, refB held
	// by A's process) keep both objects pinned forever.
	if e.clSrv.LiveRefs() != 1 || e.server.LiveRefs() != 1 {
		t.Fatalf("cycle participants must leak: client=%d server=%d",
			e.clSrv.LiveRefs(), e.server.LiveRefs())
	}
	_ = refA
	_ = refB
}

func TestRegistryEmbedded(t *testing.T) {
	e := newEnv(t)
	e.server.EnableRegistry()
	ctx := context.Background()
	reg := e.client.Registry("server")
	if err := reg.Bind(ctx, registry.Entry{Name: "trees", Addr: "server", Object: "trees"}); err != nil {
		t.Fatal(err)
	}
	stub, err := e.client.LookupStub(ctx, "server", "trees")
	if err != nil {
		t.Fatal(err)
	}
	tree := &CTree{Data: 4}
	rets, err := stub.Call(ctx, "Sum", tree)
	if err != nil || rets[0].(int) != 4 {
		t.Fatalf("via registry: %v, %v", rets, err)
	}
}

func TestPing(t *testing.T) {
	e := newEnv(t)
	if err := e.client.Ping(context.Background(), "server"); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentClients(t *testing.T) {
	e := newEnv(t)
	var wg sync.WaitGroup
	errs := make(chan error, 20)
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tree := &CTree{Data: i}
			rets, err := e.client.Stub("server", "trees").Call(context.Background(), "Sum", tree)
			if err != nil {
				errs <- err
				return
			}
			if rets[0].(int) != i {
				errs <- fmt.Errorf("sum = %v, want %d", rets[0], i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestCallStatsReportsRestores(t *testing.T) {
	e := newEnv(t)
	root, _, _, _, _ := paperRTree()
	resp, err := e.client.Stub("server", "trees").CallStats(context.Background(), "Foo", root)
	if err != nil {
		t.Fatal(err)
	}
	// foo changes four of the paper tree's five objects; the fifth needs
	// no record.
	if resp.Restored != 4 || resp.NewObjects != 1 {
		t.Fatalf("stats = %+v", resp)
	}
	if resp.BytesReceived == 0 {
		t.Fatal("byte accounting missing")
	}
}

func TestNilArguments(t *testing.T) {
	e := newEnv(t)
	rets, err := e.client.Stub("server", "trees").Call(context.Background(), "Sum", nil)
	if err != nil {
		t.Fatal(err)
	}
	if rets[0].(int) != 0 {
		t.Fatalf("Sum(nil) = %v", rets[0])
	}
}

func TestExportValidation(t *testing.T) {
	e := newEnv(t)
	if err := e.server.Export("", &TreeService{}); err == nil {
		t.Fatal("empty name must fail")
	}
	if err := e.server.Export("#5", &TreeService{}); err == nil {
		t.Fatal("reserved name must fail")
	}
	if err := e.server.Export("x", nil); err == nil {
		t.Fatal("nil object must fail")
	}
	if err := e.server.Export("x", TreeService{}); err == nil {
		t.Fatal("non-pointer must fail")
	}
	if _, err := e.server.Ref(42); err == nil {
		t.Fatal("Ref of non-pointer must fail")
	}
}
