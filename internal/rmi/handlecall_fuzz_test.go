package rmi

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"

	"nrmi/internal/core"
	"nrmi/internal/graph"
	"nrmi/internal/netsim"
	"nrmi/internal/registry"
	"nrmi/internal/transport"
	"nrmi/internal/wire"
)

// FuzzService's methods only record that they ran: on a malformed header
// none of them may.
type FuzzService struct{ ran bool }

func (s *FuzzService) Restore(c *Node, r *Box) int     { s.ran = true; return 1 }
func (s *FuzzService) Mixed(x any, c *Node, y any) int { s.ran = true; return 2 }
func (s *FuzzService) Zero() int                       { s.ran = true; return 3 }

// fuzzArity is each FuzzService method's argument count.
var fuzzArity = map[string]uint64{"Restore": 2, "Mixed": 3, "Zero": 0}

// header returns the object key payload starts with, and whether the
// header is one the server must accept before it decodes any value: the
// "fz" export, one of its methods, that method's arity as the argument
// count, and a known marker per argument.
func header(payload []byte) (string, bool) {
	sc := core.AcceptCallBytes(payload, core.Options{})
	defer sc.Release()
	obj, err := sc.DecodeBytes()
	if err != nil {
		return "", false
	}
	return string(obj), string(obj) == "fz" && fzHeaderOK(sc)
}

// fzHeaderOK reads the rest of an "fz" call's header.
func fzHeaderOK(sc *core.ServerCall) bool {
	method, err := sc.DecodeBytes()
	arity, ok := fuzzArity[string(method)]
	if err != nil || !ok {
		return false
	}
	if n, err := sc.DecodeUint(); err != nil || n != arity {
		return false
	}
	for range arity {
		if m, err := sc.DecodeUint(); err != nil || m > uint64(semRef) {
			return false
		}
	}
	return true
}

// callErrors are the sentinels a refused request's error wraps.
var callErrors = []error{
	ErrNoSuchObject, ErrNoSuchMethod, ErrBadArgument, ErrBadDGC,
	wire.ErrBadStream, wire.ErrLimit, wire.ErrTypeNotRegistered, io.EOF, io.ErrUnexpectedEOF,
	graph.ErrNotSerializable, graph.ErrSliceOverlap, graph.ErrObjectOverlap,
	graph.ErrUnexportedField, graph.ErrDepthExceeded, core.ErrBadResponse,
	registry.ErrAlreadyBound, registry.ErrNotBound,
}

func typedCallError(err error) bool {
	for _, sentinel := range callErrors {
		if errors.Is(err, sentinel) {
			return true
		}
	}
	return false
}

// FuzzHandleCall throws arbitrary requests at the invocation parser. Every
// one ends in a reply or an error wrapping a known sentinel, never a panic;
// a method runs only behind a well-formed header; and once one has run, only
// a restore set the reply cannot number (core.ErrBadResponse) fails the call.
// The server also serves the reserved exports, the DGC and a naming service,
// so their calls (the hostile leases among the seeds) meet the same rules.
func FuzzHandleCall(f *testing.F) {
	reg := wire.NewRegistry()
	for name, sample := range map[string]any{"Node": Node{}, "Box": Box{}} {
		if err := reg.Register(name, sample); err != nil {
			f.Fatal(err)
		}
	}
	opts := Options{Core: core.Options{Registry: reg}}
	svc := &FuzzService{}
	srv, err := NewServer("server", opts)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })
	if err := srv.Export("fz", svc); err != nil {
		f.Fatal(err)
	}
	srv.EnableRegistry()
	clSrv, err := NewServer("client", opts)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { clSrv.Close() })
	cl, err := NewClient(nil, opts)
	if err != nil {
		f.Fatal(err)
	}
	cl.BindLocalServer(clSrv)
	stub := cl.Stub("server", "fz")

	// request is an honest client's request; raw writes what a forger
	// would: the object and method, then each uint64 item as a raw protocol
	// integer and every other item as a by-copy value, in the order given.
	encode := func(write func(call *core.Call) error) []byte {
		var buf bytes.Buffer
		call := core.NewCall(&buf, opts.Core)
		defer call.Release()
		if err := write(call); err != nil {
			f.Fatal(err)
		}
		return bytes.Clone(buf.Bytes())
	}
	request := func(st *Stub, method string, args ...any) []byte {
		return encode(func(call *core.Call) error { return st.encodeRequest(call, method, args) })
	}
	raw := func(method string, items ...any) []byte {
		return encode(func(call *core.Call) error {
			errs := []error{call.EncodeString("fz"), call.EncodeString(method)}
			for _, it := range items {
				if u, ok := it.(uint64); ok {
					errs = append(errs, call.EncodeUint(u))
				} else {
					errs = append(errs, call.EncodeCopy(it))
				}
			}
			return errors.Join(append(errs, call.Finish())...)
		})
	}

	b := newBox(1)
	c := sharing(b)
	honest := [][]byte{
		request(stub, "Restore", c, b), // the restorable argument travels first
		request(stub, "Mixed", any(b), c, &Counter{}),
		request(stub, "Zero"),
	}
	for _, h := range honest {
		f.Add(h)
	}
	// Forged: each marker next to its value, with a by-copy tree before the
	// restorable argument that reaches into it; the markers first but the
	// values swapped, by-copy first; an unknown marker; fewer markers than
	// the arity; a count that is not the arity.
	two, sc, sr := uint64(2), uint64(semCopy), uint64(semRestore)
	for _, forged := range [][]byte{
		raw("Restore", two, sc, c, sr, b),
		raw("Restore", two, sc, sr, c, b),
		raw("Restore", two, sc, uint64(7), b, c),
		raw("Restore", two, sc, b, c),
		raw("Restore", uint64(1), sr, b),
		raw("Zero", uint64(1), sc, 42),
	} {
		f.Add(forged)
	}
	corrupter := netsim.NewPlan(27)
	for _, h := range honest {
		for i := 0; i < 3; i++ {
			f.Add(corrupter.CorruptBytes(h))
		}
		f.Add(h[:len(h)/2])
	}
	dgcStub, regStub := cl.Stub("server", dgcName), cl.Stub("server", registryName)
	for _, tc := range hostileLeases {
		f.Add(request(dgcStub, "Dirty", uint64(1), tc.secs))
	}
	entry := registry.Entry{Name: "n", Addr: "a", Object: "o"}
	for _, reserved := range [][]byte{
		request(dgcStub, "Dirty", uint64(1), uint64(600)),
		request(dgcStub, "Dirty", 1, uint64(600)),
		request(dgcStub, "Clean", uint64(1)),
		request(regStub, "Bind", entry),
		request(regStub, "Rebind", entry),
		request(regStub, "Lookup", "n"),
		request(regStub, "Lookup", entry),
		request(regStub, "Unbind", "n"),
		request(regStub, "List"),
	} {
		f.Add(reserved)
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		svc.ran = false
		obj, wellFormed := header(payload)
		reply, err := srv.handle(context.Background(), transport.MsgCall, payload)
		defer transport.ReleasePayload(reply) // the reply is pool-owned
		switch {
		case err == nil && (len(reply) == 0 || svc.ran != (obj == "fz")):
			t.Fatalf("% x: no error, a %d-byte reply, object %q, method ran %t", payload, len(reply), obj, svc.ran)
		case err != nil && !typedCallError(err):
			t.Fatalf("% x: untyped error %v", payload, err)
		case svc.ran && !wellFormed:
			t.Fatalf("% x: the method ran on a malformed header (%v)", payload, err)
		case err != nil && svc.ran && !errors.Is(err, core.ErrBadResponse):
			t.Fatalf("% x: the method ran, then the call failed: %v", payload, err)
		}
	})
}
