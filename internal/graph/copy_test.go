package graph

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestCopyNil(t *testing.T) {
	got, err := Copy(AccessExported, nil)
	if err != nil || got != nil {
		t.Fatalf("Copy(nil) = %v, %v", got, err)
	}
	var p *node
	out, err := Copy(AccessExported, p)
	if err != nil {
		t.Fatal(err)
	}
	if out.(*node) != nil {
		t.Fatal("copy of nil pointer must be nil")
	}
}

func TestCopyTreeIndependence(t *testing.T) {
	root := &node{Data: 1, Left: &node{Data: 2}, Right: &node{Data: 3}}
	out, err := Copy(AccessExported, root)
	if err != nil {
		t.Fatal(err)
	}
	cp := out.(*node)
	if cp == root {
		t.Fatal("copy must be a distinct object")
	}
	if cp.Data != 1 || cp.Left.Data != 2 || cp.Right.Data != 3 {
		t.Fatal("copied values differ")
	}
	cp.Left.Data = 99
	if root.Left.Data != 2 {
		t.Fatal("mutating the copy must not affect the original")
	}
}

func TestCopyPreservesAliasing(t *testing.T) {
	shared := &node{Data: 7}
	root := &node{Left: shared, Right: shared}
	out, err := Copy(AccessExported, root)
	if err != nil {
		t.Fatal(err)
	}
	cp := out.(*node)
	if cp.Left != cp.Right {
		t.Fatal("aliasing must be preserved in the copy")
	}
	if cp.Left == shared {
		t.Fatal("copy must not share objects with the original")
	}
}

func TestCopyCycle(t *testing.T) {
	a := &node{Data: 1}
	b := &node{Data: 2, Left: a}
	a.Right = b
	out, err := Copy(AccessExported, a)
	if err != nil {
		t.Fatal(err)
	}
	ca := out.(*node)
	if ca.Right.Left != ca {
		t.Fatal("cycle must be reproduced in the copy")
	}
}

func TestCopyAcrossRoots(t *testing.T) {
	shared := &node{Data: 7}
	r1 := &node{Left: shared}
	r2 := &node{Right: shared}
	c := &Copier{Access: AccessExported}
	o1, err := c.Copy(r1)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := c.Copy(r2)
	if err != nil {
		t.Fatal(err)
	}
	if o1.(*node).Left != o2.(*node).Right {
		t.Fatal("one Copier must preserve aliasing across roots")
	}
}

func TestCopySliceMapInterface(t *testing.T) {
	n := &node{Data: 5}
	b := &bag{
		Name:  "x",
		Items: []int{1, 2},
		Table: map[string]*node{"n": n},
		Any:   n,
	}
	out, err := Copy(AccessExported, b)
	if err != nil {
		t.Fatal(err)
	}
	cb := out.(*bag)
	if &cb.Items[0] == &b.Items[0] {
		t.Fatal("slice backing must be copied")
	}
	if cb.Table["n"] == n {
		t.Fatal("map values must be deep-copied")
	}
	if cb.Any.(*node) != cb.Table["n"] {
		t.Fatal("aliasing between interface and map value must be preserved")
	}
	cb.Table["n"].Data = 100
	if n.Data != 5 {
		t.Fatal("copy must be independent")
	}
}

func TestCopyUnexportedUnsafe(t *testing.T) {
	v := &withUnexported{Public: 1, secret: 42}
	out, err := Copy(AccessUnsafe, v)
	if err != nil {
		t.Fatal(err)
	}
	cp := out.(*withUnexported)
	if cp.secret != 42 {
		t.Fatalf("unsafe copy must carry unexported state, got %d", cp.secret)
	}
	_, err = Copy(AccessExported, v)
	if !errors.Is(err, ErrUnexportedField) {
		t.Fatalf("exported-mode copy of non-zero unexported field: want error, got %v", err)
	}
}

func TestCopyArrayByValueFastPath(t *testing.T) {
	type h struct{ Arr [4]int }
	v := &h{Arr: [4]int{1, 2, 3, 4}}
	out, err := Copy(AccessExported, v)
	if err != nil {
		t.Fatal(err)
	}
	if out.(*h).Arr != v.Arr {
		t.Fatal("array values must be equal")
	}
}

func TestCopyEqualsOriginal(t *testing.T) {
	shared := &node{Data: 7}
	root := &node{Data: 1, Left: shared, Right: &node{Data: 2, Left: shared}}
	out, err := Copy(AccessExported, root)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := Equal(AccessExported, root, out)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("copy must be graph-equal to the original")
	}
}

// genTree builds a pseudo-random tree for property tests, with internal
// sharing controlled by the seed.
func genTree(seed int64, size int) *node {
	if size <= 0 {
		return nil
	}
	nodes := make([]*node, 0, size)
	state := uint64(seed)*2654435761 + 1
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state>>33) % n
	}
	root := &node{Data: next(1000)}
	nodes = append(nodes, root)
	for len(nodes) < size {
		parent := nodes[next(len(nodes))]
		n := &node{Data: next(1000)}
		if parent.Left == nil {
			parent.Left = n
		} else if parent.Right == nil {
			parent.Right = n
		} else {
			continue
		}
		nodes = append(nodes, n)
	}
	// Introduce a few aliases: point spare Right slots at existing nodes.
	for i := 0; i < size/4; i++ {
		from := nodes[next(len(nodes))]
		if from.Right == nil {
			from.Right = nodes[next(len(nodes))]
		}
	}
	return root
}

func TestQuickCopyIsGraphEqual(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		size := int(sz%64) + 1
		orig := genTree(seed, size)
		cp, err := Copy(AccessExported, orig)
		if err != nil {
			return false
		}
		eq, err := Equal(AccessExported, orig, cp)
		return err == nil && eq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCopyObjectCountMatches(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		size := int(sz%64) + 1
		orig := genTree(seed, size)
		cp, err := Copy(AccessExported, orig)
		if err != nil {
			return false
		}
		lm1, err := Walk(AccessExported, orig)
		if err != nil {
			return false
		}
		lm2, err := Walk(AccessExported, cp)
		if err != nil {
			return false
		}
		return lm1.Len() == lm2.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
