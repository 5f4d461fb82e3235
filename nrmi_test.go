package nrmi_test

import (
	"context"
	"net"
	"testing"

	"nrmi"
)

// Vector is a restorable string container, as in the paper's Swing
// translation example.
type Vector struct {
	Words []string
}

// NRMIRestorable marks Vector for copy-restore.
func (*Vector) NRMIRestorable() {}

// Upcaser is the demo service.
type Upcaser struct{}

// Upcase rewrites every word in place.
func (u *Upcaser) Upcase(v *Vector) int {
	for i, w := range v.Words {
		up := make([]byte, len(w))
		for j := 0; j < len(w); j++ {
			c := w[j]
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			up[j] = c
		}
		v.Words[i] = string(up)
	}
	return len(v.Words)
}

func newTCPServer(t *testing.T, opts nrmi.Options) (addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := nrmi.NewServer(ln.Addr().String(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Export("upcaser", &Upcaser{}); err != nil {
		t.Fatal(err)
	}
	srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

func TestPublicAPIOverTCP(t *testing.T) {
	reg := nrmi.NewRegistry()
	if err := reg.Register("Vector", Vector{}); err != nil {
		t.Fatal(err)
	}
	opts := nrmi.Options{Registry: reg}
	addr := newTCPServer(t, opts)

	cl, err := nrmi.NewClient(nrmi.TCPDialer(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	vec := &Vector{Words: []string{"hello", "world"}}
	menuAlias := vec.Words // a second reference to the same slice object

	rets, err := cl.Stub(addr, "upcaser").Call(context.Background(), "Upcase", vec)
	if err != nil {
		t.Fatal(err)
	}
	if rets[0].(int) != 2 {
		t.Fatalf("rets = %v", rets)
	}
	if vec.Words[0] != "HELLO" || vec.Words[1] != "WORLD" {
		t.Fatalf("restore failed: %v", vec.Words)
	}
	if menuAlias[0] != "HELLO" {
		t.Fatal("alias must observe the restored mutation")
	}
}

func TestPublicAPIAllOptionCombos(t *testing.T) {
	for _, opts := range []nrmi.Options{
		{Engine: nrmi.EngineV1},
		{Engine: nrmi.EngineV2},
		{Engine: nrmi.EngineV3},
		{UnsafeAccess: true},
	} {
		opts.Registry = nrmi.NewRegistry()
		if err := opts.Registry.Register("Vector", Vector{}); err != nil {
			t.Fatal(err)
		}
		addr := newTCPServer(t, opts)
		cl, err := nrmi.NewClient(nrmi.TCPDialer(), opts)
		if err != nil {
			t.Fatal(err)
		}
		vec := &Vector{Words: []string{"x"}}
		if _, err := cl.Stub(addr, "upcaser").Call(context.Background(), "Upcase", vec); err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if vec.Words[0] != "X" {
			t.Fatalf("%+v: restore failed", opts)
		}
		cl.Close()
	}
}

func TestRegistryServerStandalone(t *testing.T) {
	reg := nrmi.NewRegistry()
	if err := reg.Register("Vector", Vector{}); err != nil {
		t.Fatal(err)
	}
	opts := nrmi.Options{Registry: reg}
	addr := newTCPServer(t, opts)

	// Standalone naming service on its own port: a server whose one
	// export is the registry, as cmd/nrmi-registry runs it.
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := nrmi.NewServer(rln.Addr().String(), nrmi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rs.EnableRegistry()
	rs.Serve(rln)
	defer rs.Close()

	cl, err := nrmi.NewClient(nrmi.TCPDialer(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	rc := cl.Registry(rln.Addr().String())
	if err := rc.Bind(ctx, nrmi.RegistryEntry{Name: "upcase-svc", Addr: addr, Object: "upcaser"}); err != nil {
		t.Fatal(err)
	}
	stub, err := cl.LookupStub(ctx, rln.Addr().String(), "upcase-svc")
	if err != nil {
		t.Fatal(err)
	}
	vec := &Vector{Words: []string{"go"}}
	if _, err := stub.Call(ctx, "Upcase", vec); err != nil {
		t.Fatal(err)
	}
	if vec.Words[0] != "GO" {
		t.Fatal("lookup path broken")
	}
}

func TestSimNetworkThroughPublicAPI(t *testing.T) {
	reg := nrmi.NewRegistry()
	if err := reg.Register("Vector", Vector{}); err != nil {
		t.Fatal(err)
	}
	opts := nrmi.Options{Registry: reg}
	n := nrmi.NewSimNetwork()
	defer n.Close()
	ln, err := n.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := nrmi.NewServer("srv", opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Export("upcaser", &Upcaser{}); err != nil {
		t.Fatal(err)
	}
	srv.Serve(ln)
	defer srv.Close()

	cl, err := nrmi.NewClient(n.Dial, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	vec := &Vector{Words: []string{"sim"}}
	if _, err := cl.Stub("srv", "upcaser").Call(context.Background(), "Upcase", vec); err != nil {
		t.Fatal(err)
	}
	if vec.Words[0] != "SIM" {
		t.Fatal("sim path broken")
	}
	if n.Stats().Messages < 2 {
		t.Fatal("traffic accounting missing")
	}
}
