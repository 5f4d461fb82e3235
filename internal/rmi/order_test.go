package rmi

import (
	"context"
	"reflect"
	"testing"

	"nrmi/internal/core"
	"nrmi/internal/graph"
	"nrmi/internal/netsim"
	"nrmi/internal/wire"
)

// Node is a tree node passed by copy; Box is a restorable handle on a tree
// of them. A by-copy *Node argument can therefore share nodes with a
// restorable *Box argument, in any parameter order: the shapes whose restore
// set the wire order, restorable arguments first, keeps a prefix of the
// object table.
type Node struct {
	Data        int
	Left, Right *Node
}

type Box struct {
	Tag  int
	Root *Node
}

func (*Box) NRMIRestorable() {}

// OrderService takes a by-copy argument and restorable ones in every order
// and runs mutate on them.
type OrderService struct{}

func (*OrderService) CopyFirst(c *Node, r *Box) int    { return mutate(c, r) }
func (*OrderService) RestoreFirst(r *Box, c *Node) int { return mutate(c, r) }

// Interface receives its restorable argument through an interface
// parameter, next to a by-reference one it only checks is there.
func (*OrderService) Interface(x any, c *Node, y any) int {
	if y == nil {
		return -1
	}
	return mutate(c, x.(*Box))
}

// Between takes two restorable arguments that share nodes, with the by-copy
// argument between them.
func (*OrderService) Between(r1 *Box, c *Node, r2 *Box) int { return mutate(c, r1, r2) }

// Noop is the source a Then chain starts from.
func (*OrderService) Noop() {}

// mutate writes through every argument: to the node the by-copy argument
// shares with the first box (restored), to the by-copy argument's own nodes
// (lost with the copy), to each box and its tree, and it links one of the
// by-copy argument's own nodes into the first box's tree, where the caller
// then finds a copy of it.
func mutate(c *Node, boxes ...*Box) int {
	c.Left.Data += 100
	c.Data = -1
	c.Right.Data = -2
	for i, b := range boxes {
		b.Tag += 10
		b.Root.Left.Left.Data++
		b.Root.Right = &Node{Data: 70 + i, Left: c.Left}
	}
	boxes[0].Root.Left.Right = c.Right
	return c.Left.Data
}

// newBox builds a box over d(d+1(d+2 ·) d+3).
func newBox(d int) *Box {
	return &Box{Tag: d, Root: &Node{Data: d, Left: &Node{Data: d + 1, Left: &Node{Data: d + 2}}, Right: &Node{Data: d + 3}}}
}

// sharing returns a by-copy node whose left child is b's and whose right
// child is its own.
func sharing(b *Box) *Node { return &Node{Data: 50, Left: b.Root.Left, Right: &Node{Data: 60}} }

// held lists what the caller holds across the call: each box and aliases of
// its nodes, the one the method unlinks included.
func held(boxes []*Box) []any {
	var roots []any
	for _, b := range boxes {
		roots = append(roots, b, b.Root, b.Root.Left, b.Root.Left.Left, b.Root.Right)
	}
	return roots
}

// statShape runs an invocation to completion and returns what it restored.
type statShape struct {
	name string
	call func(st *Stub, ctx context.Context, method string, args ...any) (*core.Response, error)
}

var statShapes = []statShape{
	{"Call", (*Stub).CallStats},
	{"CallAsync+Wait", func(st *Stub, ctx context.Context, method string, args ...any) (*core.Response, error) {
		p, err := st.CallAsync(ctx, method, args...)
		if err != nil {
			return nil, err
		}
		return p.WaitStats(ctx)
	}},
	// A dependent call: one promise is waited, then the call is issued.
	{"Then", func(st *Stub, ctx context.Context, method string, args ...any) (*core.Response, error) {
		p, err := st.CallAsync(ctx, "Noop")
		if err == nil {
			_, err = p.Wait(ctx)
		}
		if err == nil {
			p, err = st.CallAsync(ctx, method, args...)
		}
		if err != nil {
			return nil, err
		}
		return p.WaitStats(ctx)
	}},
}

func newOrderEnv(t *testing.T) *Stub {
	t.Helper()
	reg := wire.NewRegistry()
	for name, sample := range map[string]any{"Node": Node{}, "Box": Box{}} {
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
	if err := srv.Export("order", &OrderService{}); err != nil {
		t.Fatal(err)
	}
	ln, err := n.Listen("server")
	if err != nil {
		t.Fatal(err)
	}
	srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	// The client's own server exports the by-reference argument.
	clSrv, err := NewServer("client", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { clSrv.Close() })
	cl, err := NewClient(n.Dial, opts)
	if err != nil {
		t.Fatal(err)
	}
	cl.BindLocalServer(clSrv)
	t.Cleanup(func() { cl.Close() })
	return cl.Stub("server", "order")
}

// countChanged runs run and counts the objects reachable from roots before
// it whose own state it changed: the records a reply must carry.
func countChanged(t *testing.T, roots []any, run func()) int {
	t.Helper()
	lm, err := graph.Walk(graph.AccessExported, roots...)
	if err != nil {
		t.Fatal(err)
	}
	before := make([]any, lm.Len())
	for i, o := range lm.Objects() {
		before[i] = o.Ref.Elem().Interface()
	}
	run()
	changed := 0
	for i, o := range lm.Objects() {
		if o.Ref.Elem().Interface() != before[i] {
			changed++
		}
	}
	return changed
}

// TestArgumentOrderKeepsLocalSemantics: whatever the parameter order, and
// whether the restorable argument comes through an interface parameter or
// shares nodes with a by-copy argument and another restorable one, every
// call shape leaves the caller's graph and alias partition as the local
// call does — up to what copy semantics loses — and restores exactly the
// objects the method changed.
func TestArgumentOrderKeepsLocalSemantics(t *testing.T) {
	cases := []struct {
		method string
		build  func() (args []any, boxes []*Box, c *Node)
	}{
		{"CopyFirst", func() ([]any, []*Box, *Node) {
			b := newBox(1)
			c := sharing(b)
			return []any{c, b}, []*Box{b}, c
		}},
		{"RestoreFirst", func() ([]any, []*Box, *Node) {
			b := newBox(1)
			c := sharing(b)
			return []any{b, c}, []*Box{b}, c
		}},
		{"Interface", func() ([]any, []*Box, *Node) {
			b := newBox(1)
			c := sharing(b)
			return []any{any(b), c, &Counter{}}, []*Box{b}, c
		}},
		{"Between", func() ([]any, []*Box, *Node) {
			b1, b2 := newBox(1), newBox(10)
			b2.Root.Left = b1.Root.Left
			c := sharing(b1)
			return []any{b1, c, b2}, []*Box{b1, b2}, c
		}},
	}
	stub := newOrderEnv(t)
	for _, tc := range cases {
		for _, shape := range statShapes {
			t.Run(tc.method+"/"+shape.name, func(t *testing.T) {
				// The local call, on a twin. Writes through the by-copy
				// argument land on its own nodes here and are lost remotely,
				// so its own state is compared against the pre-call one.
				args, boxes, _ := tc.build()
				localHeld := held(boxes)
				var localRet []reflect.Value
				changed := countChanged(t, localHeld, func() {
					in := make([]reflect.Value, len(args))
					for i, a := range args {
						in[i] = reflect.ValueOf(a)
					}
					localRet = reflect.ValueOf(&OrderService{}).MethodByName(tc.method).Call(in)
				})

				args, boxes, c := tc.build()
				remoteHeld := held(boxes)
				own := c.Right
				resp, err := shape.call(stub, context.Background(), tc.method, args...)
				if err != nil {
					t.Fatal(err)
				}
				if eq, err := graph.Equal(graph.AccessExported, remoteHeld, localHeld); err != nil || !eq {
					t.Fatalf("the caller's graph differs from the local call's (%v)", err)
				}
				if got, want := resp.Returns[0], localRet[0].Interface(); got != want {
					t.Fatalf("returned %v, the local call %v", got, want)
				}
				if resp.Restored != changed {
					t.Fatalf("restored %d objects, the method changed %d", resp.Restored, changed)
				}
				if c.Data != 50 || c.Right != own || own.Data != 60 || c.Left != boxes[0].Root.Left {
					t.Fatalf("the by-copy argument's own state moved: %+v, own node %+v", c, own)
				}
				if linked := boxes[0].Root.Left.Right; linked == own || linked.Data != -2 {
					t.Fatalf("the by-copy node linked into the box is %p (%+v), want a copy of %p", linked, linked, own)
				}
			})
		}
	}
}
