// Treedemo walks through the paper's running example (Sections 2–4,
// Figures 1–9) step by step, printing the client-visible heap after the
// remote call under four different semantics, plus byte counts showing why
// the paper's scenario III favors NRMI over the hand-written shadow-tree
// emulation.
//
// Run with: go run ./examples/treedemo
package main

import (
	"context"
	"fmt"
	"log"
	"net"

	"nrmi"
	"nrmi/internal/bench"
	"nrmi/internal/model"
)

// RTree is the restorable running-example node.
type RTree struct {
	Data        int
	Left, Right *RTree
}

// NRMIRestorable marks RTree for copy-restore.
func (*RTree) NRMIRestorable() {}

// Service hosts foo.
type Service struct{}

// Foo is the paper's mutation, verbatim (Section 2).
func (s *Service) Foo(tree *RTree) {
	tree.Left.Data = 0
	tree.Right.Data = 9
	tree.Right.Right.Data = 8
	tree.Left = nil
	temp := &RTree{Data: 2, Left: tree.Right.Right}
	tree.Right.Right = nil
	tree.Right = temp
}

// FooCopy is foo by plain copy, as every argument of Java RMI travels: the
// parameter's type selects the semantics, and a slice is not Restorable.
func (s *Service) FooCopy(trees []*RTree) { s.Foo(trees[0]) }

func build() (t, alias1, alias2 *RTree) {
	rl := &RTree{Data: 3}
	rr := &RTree{Data: 4}
	alias1 = &RTree{Data: 1}
	alias2 = &RTree{Data: 7, Left: rl, Right: rr}
	t = &RTree{Data: 5, Left: alias1, Right: alias2}
	return
}

func render(n *RTree, seen map[*RTree]bool) string {
	if n == nil {
		return "·"
	}
	if seen[n] {
		return fmt.Sprintf("^%d", n.Data)
	}
	seen[n] = true
	if n.Left == nil && n.Right == nil {
		return fmt.Sprintf("%d", n.Data)
	}
	return fmt.Sprintf("%d(%s %s)", n.Data, render(n.Left, seen), render(n.Right, seen))
}

func show(tag string, t, a1, a2 *RTree) {
	fmt.Printf("%-26s t=%-18s alias1=%-10s alias2=%s\n",
		tag, render(t, map[*RTree]bool{}), render(a1, map[*RTree]bool{}), render(a2, map[*RTree]bool{}))
}

// callRemote builds the Figure 1 heap and passes arg(t) to the remote method;
// dce routes the call through the harness's DCE RPC restore emulation.
func callRemote(opts nrmi.Options, method string, arg func(*RTree) any, dce bool) (t, a1, a2 *RTree, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, nil, err
	}
	srv, err := nrmi.NewServer(ln.Addr().String(), opts)
	if err != nil {
		return nil, nil, nil, err
	}
	defer srv.Close()
	if err := srv.Export("svc", &Service{}); err != nil {
		return nil, nil, nil, err
	}
	srv.Serve(ln)
	cl, err := nrmi.NewClient(nrmi.TCPDialer(), opts)
	if err != nil {
		return nil, nil, nil, err
	}
	defer cl.Close()
	t, a1, a2 = build()
	stub := cl.Stub(ln.Addr().String(), "svc")
	if dce {
		_, err = bench.CallDCE(context.Background(), stub, method, arg(t))
	} else {
		_, err = stub.Call(context.Background(), method, arg(t))
	}
	return t, a1, a2, err
}

func main() {
	reg := nrmi.NewRegistry()
	if err := reg.Register("treedemo.RTree", RTree{}); err != nil {
		log.Fatal(err)
	}
	restorable := func(t *RTree) any { return t }

	fmt.Println("The paper's running example: t with alias1 -> t.Left, alias2 -> t.Right,")
	fmt.Println("mutated by foo (renumbers data, unlinks nodes, inserts a new node).")
	fmt.Println()

	t, a1, a2 := build()
	show("Figure 1 (initial):", t, a1, a2)

	t, a1, a2 = build()
	(&Service{}).Foo(t)
	show("Figure 2 (local call):", t, a1, a2)

	t, a1, a2, err := callRemote(nrmi.Options{Registry: reg}, "FooCopy", func(t *RTree) any { return []*RTree{t} }, false)
	if err != nil {
		log.Fatal(err)
	}
	show("RMI copy: all changes LOST", t, a1, a2)

	t, a1, a2, err = callRemote(nrmi.Options{Registry: reg}, "Foo", restorable, false)
	if err != nil {
		log.Fatal(err)
	}
	show("Figure 8 (NRMI):", t, a1, a2)

	t, a1, a2, err = callRemote(nrmi.Options{Registry: reg}, "Foo", restorable, true)
	if err != nil {
		log.Fatal(err)
	}
	show("Figure 9 (DCE RPC):", t, a1, a2)

	fmt.Println()
	fmt.Println("Note how under DCE RPC the updates to the unlinked nodes (alias1's 0,")
	fmt.Println("alias2's 9, and alias2's severed right child) are silently dropped,")
	fmt.Println("while NRMI matches the local call exactly.")

	// Why NRMI also wins on bytes for scenario III: the manual emulation
	// must ship a shadow tree alongside the result.
	fmt.Println()
	fmt.Println("Bytes per call at tree size 256, scenario III (manual RMI restore vs NRMI):")
	e, err := bench.NewEnv(bench.EnvConfig{Engine: nrmi.EngineV2})
	if err != nil {
		log.Fatal(err)
	}
	defer e.Close()
	spec := bench.RunSpec{Scenario: model.ScenarioIII, Size: 256, Iterations: 3, Seed: 7}
	manual, err := bench.RunManual(e, spec)
	if err != nil {
		log.Fatal(err)
	}
	nrmiCell, err := bench.RunNRMI(e, spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  manual (returns tree + shadow): %6d bytes\n", manual.Bytes)
	fmt.Printf("  NRMI (copy-restore):            %6d bytes\n", nrmiCell.Bytes)
}
