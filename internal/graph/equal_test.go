package graph

import "testing"

func TestEqualScalarsAndStrings(t *testing.T) {
	cases := []struct {
		a, b any
		want bool
	}{
		{1, 1, true},
		{1, 2, false},
		{1, int64(1), false}, // different types are never equal
		{"x", "x", true},
		{"x", "y", false},
		{1.5, 1.5, true},
		{true, false, false},
		{nil, nil, true},
		{nil, 1, false},
		{complex(1, 2), complex(1, 2), true},
	}
	for _, c := range cases {
		got, err := Equal(AccessExported, c.a, c.b)
		if err != nil {
			t.Fatalf("Equal(%v, %v): %v", c.a, c.b, err)
		}
		if got != c.want {
			t.Errorf("Equal(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestEqualIsomorphicTrees(t *testing.T) {
	a := &node{Data: 1, Left: &node{Data: 2}}
	b := &node{Data: 1, Left: &node{Data: 2}}
	eq, err := Equal(AccessExported, a, b)
	if err != nil || !eq {
		t.Fatalf("isomorphic trees must be equal: %v, %v", eq, err)
	}
	b.Left.Data = 3
	eq, _ = Equal(AccessExported, a, b)
	if eq {
		t.Fatal("trees with different data must differ")
	}
}

func TestEqualAliasingStructureMatters(t *testing.T) {
	// a: Left and Right alias one node. b: two distinct but value-equal
	// nodes. The graphs are value-equal but NOT isomorphic.
	shared := &node{Data: 7}
	a := &node{Left: shared, Right: shared}
	b := &node{Left: &node{Data: 7}, Right: &node{Data: 7}}
	eq, err := Equal(AccessExported, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Fatal("aliasing difference must make graphs unequal")
	}
	eq, err = Equal(AccessExported, b, a)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Fatal("asymmetric case must also be unequal")
	}
}

func TestEqualCycles(t *testing.T) {
	mk := func() *node {
		a := &node{Data: 1}
		b := &node{Data: 2, Left: a}
		a.Right = b
		return a
	}
	eq, err := Equal(AccessExported, mk(), mk())
	if err != nil || !eq {
		t.Fatalf("equal cycles: %v, %v", eq, err)
	}
	// Cycle of different length.
	a := &node{Data: 1}
	a.Right = a
	eq, err = Equal(AccessExported, a, mk())
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Fatal("self-loop must differ from 2-cycle")
	}
}

func TestEqualSlicesAndMaps(t *testing.T) {
	a := &bag{Items: []int{1, 2}, Table: map[string]*node{"k": {Data: 1}}}
	b := &bag{Items: []int{1, 2}, Table: map[string]*node{"k": {Data: 1}}}
	eq, err := Equal(AccessExported, a, b)
	if err != nil || !eq {
		t.Fatalf("want equal, got %v, %v", eq, err)
	}
	b.Items = []int{1, 2, 3}
	if eq, _ := Equal(AccessExported, a, b); eq {
		t.Fatal("different slice lengths must differ")
	}
	b.Items = []int{1, 2}
	b.Table["extra"] = &node{}
	if eq, _ := Equal(AccessExported, a, b); eq {
		t.Fatal("different map sizes must differ")
	}
	delete(b.Table, "extra")
	delete(b.Table, "k")
	b.Table["other"] = &node{Data: 1}
	if eq, _ := Equal(AccessExported, a, b); eq {
		t.Fatal("different map keys must differ")
	}
}

func TestEqualNilVersusEmpty(t *testing.T) {
	a := &bag{}
	b := &bag{Items: []int{}}
	eq, err := Equal(AccessExported, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Fatal("nil slice and empty slice are distinguishable objects")
	}
}

func TestEqualInterfaceDynamicTypes(t *testing.T) {
	a := &bag{Any: 1}
	b := &bag{Any: "1"}
	if eq, _ := Equal(AccessExported, a, b); eq {
		t.Fatal("different dynamic types must differ")
	}
	b.Any = 1
	if eq, _ := Equal(AccessExported, a, b); !eq {
		t.Fatal("same dynamic values must be equal")
	}
}

func TestEqualPointerMapKeyRejected(t *testing.T) {
	a := map[*node]int{{Data: 1}: 1}
	b := map[*node]int{{Data: 1}: 1}
	_, err := Equal(AccessExported, a, b)
	if err == nil {
		t.Fatal("identity-bearing map keys must be rejected")
	}
}

func TestEqualUnexportedUnsafe(t *testing.T) {
	a := &withUnexported{Public: 1, secret: 2}
	b := &withUnexported{Public: 1, secret: 2}
	eq, err := Equal(AccessUnsafe, a, b)
	if err != nil || !eq {
		t.Fatalf("unsafe equality over unexported state: %v, %v", eq, err)
	}
	b.secret = 3
	eq, err = Equal(AccessUnsafe, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Fatal("unsafe mode must see unexported differences")
	}
}
