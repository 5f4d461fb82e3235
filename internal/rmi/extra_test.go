package rmi

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"nrmi/internal/core"
	"nrmi/internal/netsim"
)

// VariadicService has a variadic method, which the dispatcher must reject
// loudly rather than mis-marshal.
type VariadicService struct{}

// Sum is variadic.
func (s *VariadicService) Sum(xs ...int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

func TestVariadicMethodRejected(t *testing.T) {
	e := newEnv(t)
	if err := e.server.Export("variadic", &VariadicService{}); err != nil {
		t.Fatal(err)
	}
	_, err := e.client.Stub("server", "variadic").Call(context.Background(), "Sum", 1)
	if err == nil || !strings.Contains(err.Error(), "variadic") {
		t.Fatalf("want variadic rejection, got %v", err)
	}
}

// MultiService exercises several argument semantics in one call.
type MultiService struct{}

// Mixed takes a restorable tree, a copied tree, and scalars.
func (s *MultiService) Mixed(r *RTree, c *CTree, label string, factor int) string {
	r.Data *= factor
	if c != nil {
		c.Data *= factor // lost: by copy
	}
	return label + "!"
}

// TwoRestorables mutates two restorable parameters that share structure.
func (s *MultiService) TwoRestorables(a, b *RTree) {
	a.Data = 1000
	if b.Left != nil {
		b.Left.Data = 2000
	}
}

func TestMixedSemanticsSingleCall(t *testing.T) {
	e := newEnv(t)
	if err := e.server.Export("multi", &MultiService{}); err != nil {
		t.Fatal(err)
	}
	r := &RTree{Data: 3}
	c := &CTree{Data: 3}
	rets, err := e.client.Stub("server", "multi").Call(context.Background(), "Mixed", r, c, "done", 7)
	if err != nil {
		t.Fatal(err)
	}
	if rets[0].(string) != "done!" {
		t.Fatalf("rets = %v", rets)
	}
	if r.Data != 21 {
		t.Fatalf("restorable arg: %d, want 21", r.Data)
	}
	if c.Data != 3 {
		t.Fatalf("copied arg mutated: %d", c.Data)
	}
}

func TestTwoRestorablesSharingStructure(t *testing.T) {
	e := newEnv(t)
	if err := e.server.Export("multi", &MultiService{}); err != nil {
		t.Fatal(err)
	}
	shared := &RTree{Data: 5}
	a := &RTree{Data: 1, Left: shared}
	b := &RTree{Data: 2, Left: shared}
	if _, err := e.client.Stub("server", "multi").Call(context.Background(), "TwoRestorables", a, b); err != nil {
		t.Fatal(err)
	}
	if a.Data != 1000 {
		t.Fatalf("a.Data = %d", a.Data)
	}
	if shared.Data != 2000 {
		t.Fatalf("shared.Data = %d (mutation through second arg must land on the one shared object)", shared.Data)
	}
	if a.Left != shared || b.Left != shared {
		t.Fatal("sharing must survive")
	}
}

// StatefulCounter demonstrates the paper's statelessness caveat (Section
// 4.1): a server keeping aliases to argument data across calls breaks the
// call-by-reference illusion — under copy-restore it keeps a stale copy.
type StatefulCounter struct {
	mu   sync.Mutex
	kept *RTree
}

// Keep stores an alias to the argument beyond the call.
func (s *StatefulCounter) Keep(r *RTree) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.kept = r
}

// ReadKept reads through the retained alias.
func (s *StatefulCounter) ReadKept() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.kept == nil {
		return -1
	}
	return s.kept.Data
}

func TestStatefulServerSeesStaleCopy(t *testing.T) {
	e := newEnv(t)
	svc := &StatefulCounter{}
	if err := e.server.Export("stateful", svc); err != nil {
		t.Fatal(err)
	}
	r := &RTree{Data: 1}
	ctx := context.Background()
	stub := e.client.Stub("server", "stateful")
	if _, err := stub.Call(ctx, "Keep", r); err != nil {
		t.Fatal(err)
	}
	// Client mutates AFTER the call; the server's retained alias points at
	// its own (now stale) copy — copy-restore equals call-by-reference
	// ONLY for stateless servers, as the paper states.
	r.Data = 99
	rets, err := stub.Call(ctx, "ReadKept")
	if err != nil {
		t.Fatal(err)
	}
	if rets[0].(int) != 1 {
		t.Fatalf("server alias = %d; expected the stale copy value 1", rets[0])
	}
}

func TestServerUnexportAndClose(t *testing.T) {
	e := newEnv(t)
	e.server.Unexport("trees")
	_, err := e.client.Stub("server", "trees").Call(context.Background(), "Calls")
	if err == nil {
		t.Fatal("call to unexported object must fail")
	}
	if err := e.server.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.server.Export("x", &TreeService{}); err != ErrServerClosed {
		t.Fatalf("export after close: %v", err)
	}
	if _, err := e.server.Ref(&Counter{}); err != ErrServerClosed {
		t.Fatalf("ref after close: %v", err)
	}
}

func TestDGCUnknownIDIgnored(t *testing.T) {
	e := newEnv(t)
	cl := mustServerClient(t, e)
	// Releasing a never-exported id must be harmless.
	if err := cl.Release(context.Background(), &RemoteRef{Addr: "server", ID: 424242}); err != nil {
		t.Fatal(err)
	}
}

func TestResolveRef(t *testing.T) {
	e := newEnv(t)
	c := &Counter{N: 7}
	ref, err := e.server.Ref(c)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := e.server.ResolveRef(ref.ID)
	if !ok || got.(*Counter) != c {
		t.Fatal("ResolveRef must return the live object")
	}
	if _, ok := e.server.ResolveRef(999); ok {
		t.Fatal("unknown id must miss")
	}
}

type zsA struct{}

func (*zsA) NRMIRemote() {}

type zsB struct{}

func (*zsB) NRMIRemote() {}

// TestRefZeroSizeTypes: distinct zero-size objects may share an address, so
// an export is found by address and type: each type gets its own reference,
// resolves to itself, and cleaning one leaves the other live.
func TestRefZeroSizeTypes(t *testing.T) {
	e := newEnv(t)
	a, b := new(zsA), new(zsB)
	refA, err := e.server.Ref(a)
	if err != nil {
		t.Fatal(err)
	}
	refB, err := e.server.Ref(b)
	if err != nil {
		t.Fatal(err)
	}
	if refA.ID == refB.ID {
		t.Fatalf("*zsA and *zsB share reference %d", refA.ID)
	}
	if got, _ := e.server.ResolveRef(refA.ID); got != any(a) {
		t.Errorf("reference to *zsA resolves to %T", got)
	}
	if got, _ := e.server.ResolveRef(refB.ID); got != any(b) {
		t.Errorf("reference to *zsB resolves to %T", got)
	}
	(&dgc{e.server}).Clean(refA.ID)
	if _, ok := e.server.ResolveRef(refA.ID); ok {
		t.Error("cleaned reference to *zsA still resolves")
	}
	if got, ok := e.server.ResolveRef(refB.ID); !ok || got != any(b) {
		t.Errorf("cleaning *zsA dropped *zsB: %v, %v", got, ok)
	}
	if again, err := e.server.Ref(b); err != nil || again.ID != refB.ID {
		t.Errorf("*zsB re-exported as %v (%v), want reference %d", again, err, refB.ID)
	}
}

// TestReferenceKeysAreCanonical: "#<decimal id>" and nothing looser names an
// anonymous export. A scan that stops at the first non-digit used to resolve
// every row below to reference 12, 0 or 1.
func TestReferenceKeysAreCanonical(t *testing.T) {
	e := newEnv(t)
	c := &Counter{}
	for _, id := range []uint64{0, 1, 12} {
		e.server.refs[id] = &refEntry{val: reflect.ValueOf(c)}
	}
	if x, err := e.server.resolveTarget([]byte("#12")); err != nil || x.v.Interface() != any(c) {
		t.Fatalf(`"#12": %v, %v; want the exported object`, x.v, err)
	}
	for _, key := range []string{"#12abc", "#12 ", "# 12", "#0x10", "#", "#-1", "#+1", "#18446744073709551616"} {
		if x, err := e.server.resolveTarget([]byte(key)); !errors.Is(err, ErrNoSuchObject) {
			t.Errorf("%q resolved to %v (err %v), want ErrNoSuchObject", key, x.v, err)
		}
	}
}

func TestHostChargingSlowsServer(t *testing.T) {
	reg := treeRegistry(t)
	n := netsim.NewNetwork(netsim.Loopback())
	t.Cleanup(func() { n.Close() })

	build := func(factor float64, addr string) *Client {
		opts := Options{
			Core: core.Options{Registry: reg},
			Host: netsim.Host{Name: addr, CPUFactor: factor},
		}
		srv, err := NewServer(addr, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Export("trees", &TreeService{}); err != nil {
			t.Fatal(err)
		}
		ln, err := n.Listen(addr)
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
		return cl
	}
	mkTree := func(depth int) *RTree {
		var rec func(d int) *RTree
		rec = func(d int) *RTree {
			if d == 0 {
				return nil
			}
			return &RTree{Data: d, Left: rec(d - 1), Right: rec(d - 1)}
		}
		return rec(depth)
	}
	timeCall := func(cl *Client, addr string) int64 {
		// Warm, then measure several calls.
		ctx := context.Background()
		stub := cl.Stub(addr, "trees")
		if _, err := stub.Call(ctx, "Touch", mkTree(8)); err != nil {
			t.Fatal(err)
		}
		var total int64
		const iters = 5
		for i := 0; i < iters; i++ {
			start := time.Now()
			if _, err := stub.Call(ctx, "Touch", mkTree(8)); err != nil {
				t.Fatal(err)
			}
			total += time.Since(start).Nanoseconds()
		}
		return total / iters
	}
	fast := timeCall(build(1.0, "fast-host"), "fast-host")
	slow := timeCall(build(8.0, "slow-host"), "slow-host")
	if slow <= fast {
		t.Fatalf("8x CPU factor must slow calls: fast=%dns slow=%dns", fast, slow)
	}
}

// RelayService forwards each call to another server's NapService.
type RelayService struct{ next *Stub }

// Relay makes one outbound call of next's Nap, in the given shape, under
// the request's context.
func (r *RelayService) Relay(ctx context.Context, async bool) error {
	shape := shapeCall
	if async {
		shape = shapeAsync
	}
	_, err := shape.call(r.next, ctx, "Nap")
	return err
}

// NapService takes a fixed time per call.
type NapService struct{ d time.Duration }

// Nap sleeps for the service's duration.
func (s *NapService) Nap() { time.Sleep(s.d) }

// TestSlowHostBilledForOwnWork: a factor-2 server is billed for its own
// handler time only, not for the outbound call its method waits on. Billed
// for the wait, a relay over a 100 ms nap would take twice the nap.
func TestSlowHostBilledForOwnWork(t *testing.T) {
	const nap = 100 * time.Millisecond
	n := netsim.NewNetwork(netsim.Loopback())
	t.Cleanup(func() { n.Close() })
	serve := func(addr string, factor float64, name string, svc any) Options {
		opts := Options{Host: netsim.Host{Name: addr, CPUFactor: factor}}
		srv, err := NewServer(addr, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Export(name, svc); err != nil {
			t.Fatal(err)
		}
		ln, err := n.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		return opts
	}
	client := func(opts Options) *Client {
		cl, err := NewClient(n.Dial, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	serve("nap", 1, "nap", &NapService{d: nap})
	relay := &RelayService{}
	relay.next = client(serve("relay", 2, "relay", relay)).Stub("nap", "nap")
	stub := client(Options{}).Stub("relay", "relay")
	for _, async := range []bool{false, true} {
		took := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			start := time.Now()
			if _, err := stub.Call(context.Background(), "Relay", async); err != nil {
				t.Fatal(err)
			}
			took = min(took, time.Since(start))
		}
		t.Logf("async %t: relay over a %v nap took %v", async, nap, took)
		if took < nap || took > nap+nap/2 {
			t.Errorf("async %t: relay over a %v nap took %v: the slow host was billed for its wait", async, nap, took)
		}
	}
}

func TestConvertArgNilHandling(t *testing.T) {
	if _, err := convertArg(nil, reflect.TypeOf(0)); err == nil {
		t.Fatal("nil into int must fail")
	}
	v, err := convertArg(nil, reflect.TypeOf((*RTree)(nil)))
	if err != nil || !v.IsNil() {
		t.Fatalf("nil into pointer: %v %v", v, err)
	}
	v, err = convertArg(nil, reflect.TypeOf((*any)(nil)).Elem())
	if err != nil || !v.IsZero() {
		t.Fatalf("nil into interface: %v %v", v, err)
	}
}
