package rmi

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"nrmi/internal/core"
	"nrmi/internal/graph"
	"nrmi/internal/netsim"
	"nrmi/internal/wire"
)

// Shelf holds empty non-nil slices of two element types, which share the
// allocator's zero-size address without being one object (graph.Aliases).
type Shelf struct {
	Ints  []int
	Names []string
	N     int
}

func (*Shelf) NRMIRestorable() {}

// PairAB's first field shares the struct's address.
type PairAB struct{ A, B int }

type FirstField struct {
	S *PairAB
	A *int
}

func (*FirstField) NRMIRestorable() {}

type ShelfService struct{}

// Fill leaves Ints the empty slice it was and replaces Names.
func (*ShelfService) Fill(s *Shelf) int {
	s.N = 7
	s.Names = append(s.Names, "x")
	return len(s.Ints)
}

func (*ShelfService) Touch(f *FirstField) { *f.A = 9 }

func newShelfEnv(t *testing.T) (*netsim.Network, *Stub) {
	t.Helper()
	reg := wire.NewRegistry()
	for name, sample := range map[string]any{"Shelf": Shelf{}, "PairAB": PairAB{}, "FirstField": FirstField{}} {
		if err := reg.Register(name, sample); err != nil {
			t.Fatal(err)
		}
	}
	opts := Options{Core: core.Options{Registry: reg}}
	n := netsim.NewNetwork()
	t.Cleanup(func() { n.Close() })
	srv, err := NewServer("server", opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Export("shelf", &ShelfService{}); err != nil {
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
	return n, cl.Stub("server", "shelf")
}

// TestEmptySlicesOfTwoTypesCall: a copy-restore call whose argument holds
// both empties used to fail at the server ("cannot assign []int to
// []string"); it must run, and restore what the method did.
func TestEmptySlicesOfTwoTypesCall(t *testing.T) {
	_, stub := newShelfEnv(t)
	s := &Shelf{Ints: make([]int, 0), Names: make([]string, 0)}
	if reflect.ValueOf(s.Ints).Pointer() != reflect.ValueOf(s.Names).Pointer() {
		t.Skip("this allocator gives two zero-size allocations two addresses")
	}
	for _, shape := range []callShape{shapeCall, shapeAsync} {
		s.N, s.Names = 0, make([]string, 0)
		rets, err := shape.call(stub, context.Background(), "Fill", s)
		if err != nil {
			t.Fatalf("%s: %v", shape.name, err)
		}
		if rets[0].(int) != 0 || s.N != 7 || s.Ints == nil || len(s.Ints) != 0 || !reflect.DeepEqual(s.Names, []string{"x"}) {
			t.Fatalf("%s: returned %v and restored %#v", shape.name, rets, s)
		}
	}
}

// TestFirstFieldOverlapRefusedBeforeSend: &s and &s.A are two objects at
// one address, which the model cannot represent. Every call shape says so
// with the typed error before a frame leaves, instead of shipping a request
// the server must reject.
func TestFirstFieldOverlapRefusedBeforeSend(t *testing.T) {
	n, stub := newShelfEnv(t)
	if err := stub.c.Ping(context.Background(), "server"); err != nil { // dial first
		t.Fatal(err)
	}
	p := &PairAB{A: 1, B: 2}
	for _, shape := range []callShape{shapeCall, shapeAsync} {
		before := n.Stats().Messages
		_, err := shape.call(stub, context.Background(), "Touch", &FirstField{S: p, A: &p.A})
		if !errors.Is(err, graph.ErrObjectOverlap) {
			t.Fatalf("%s: want ErrObjectOverlap, got %v", shape.name, err)
		}
		if sent := n.Stats().Messages - before; sent != 0 || p.A != 1 {
			t.Fatalf("%s: %d frames written, p = %+v; want none, and the graph untouched", shape.name, sent, p)
		}
	}
}
