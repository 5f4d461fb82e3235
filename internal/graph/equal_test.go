package graph_test

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"nrmi/internal/graph"
	"nrmi/internal/model"
)

// The oracle of the copy-restore contract, model.Equal, and graph's tests
// that check a copy against it. They live in graph's external test package
// because model imports graph.

type node struct {
	Data        int
	Left, Right *node
}

type withUnexported struct {
	Public int
	secret int
}

type bag struct {
	Items []int
	Table map[string]*node
	Any   any
}

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
		{math.NaN(), math.NaN(), true},
		{complex(0, math.NaN()), complex(0, math.NaN()), true},
		{complex(math.Copysign(0, -1), 1), complex(0, 1), false},
		// A lost −0.0 restore must not read as equal.
		{&struct{ F float64 }{0}, &struct{ F float64 }{math.Copysign(0, -1)}, false},
	}
	for _, c := range cases {
		got, err := model.Equal(graph.AccessExported, c.a, c.b)
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
	eq, err := model.Equal(graph.AccessExported, a, b)
	if err != nil || !eq {
		t.Fatalf("isomorphic trees must be equal: %v, %v", eq, err)
	}
	b.Left.Data = 3
	eq, _ = model.Equal(graph.AccessExported, a, b)
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
	eq, err := model.Equal(graph.AccessExported, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Fatal("aliasing difference must make graphs unequal")
	}
	eq, err = model.Equal(graph.AccessExported, b, a)
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
	eq, err := model.Equal(graph.AccessExported, mk(), mk())
	if err != nil || !eq {
		t.Fatalf("equal cycles: %v, %v", eq, err)
	}
	// Cycle of different length.
	a := &node{Data: 1}
	a.Right = a
	eq, err = model.Equal(graph.AccessExported, a, mk())
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
	eq, err := model.Equal(graph.AccessExported, a, b)
	if err != nil || !eq {
		t.Fatalf("want equal, got %v, %v", eq, err)
	}
	b.Items = []int{1, 2, 3}
	if eq, _ := model.Equal(graph.AccessExported, a, b); eq {
		t.Fatal("different slice lengths must differ")
	}
	b.Items = []int{1, 2}
	b.Table["extra"] = &node{}
	if eq, _ := model.Equal(graph.AccessExported, a, b); eq {
		t.Fatal("different map sizes must differ")
	}
	delete(b.Table, "extra")
	delete(b.Table, "k")
	b.Table["other"] = &node{Data: 1}
	if eq, _ := model.Equal(graph.AccessExported, a, b); eq {
		t.Fatal("different map keys must differ")
	}
}

func TestEqualNilVersusEmpty(t *testing.T) {
	a := &bag{}
	b := &bag{Items: []int{}}
	eq, err := model.Equal(graph.AccessExported, a, b)
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
	if eq, _ := model.Equal(graph.AccessExported, a, b); eq {
		t.Fatal("different dynamic types must differ")
	}
	b.Any = 1
	if eq, _ := model.Equal(graph.AccessExported, a, b); !eq {
		t.Fatal("same dynamic values must be equal")
	}
}

func TestEqualPointerMapKeyRejected(t *testing.T) {
	a := map[*node]int{{Data: 1}: 1}
	b := map[*node]int{{Data: 1}: 1}
	_, err := model.Equal(graph.AccessExported, a, b)
	if err == nil {
		t.Fatal("identity-bearing map keys must be rejected")
	}
}

func TestEqualUnexportedUnsafe(t *testing.T) {
	a := &withUnexported{Public: 1, secret: 2}
	b := &withUnexported{Public: 1, secret: 2}
	eq, err := model.Equal(graph.AccessUnsafe, a, b)
	if err != nil || !eq {
		t.Fatalf("unsafe equality over unexported state: %v, %v", eq, err)
	}
	b.secret = 3
	eq, err = model.Equal(graph.AccessUnsafe, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Fatal("unsafe mode must see unexported differences")
	}
}

func TestCopyEqualsOriginal(t *testing.T) {
	shared := &node{Data: 7}
	root := &node{Data: 1, Left: shared, Right: &node{Data: 2, Left: shared}}
	out, err := graph.Copy(graph.AccessExported, root)
	if err != nil {
		t.Fatal(err)
	}
	if eq, err := model.Equal(graph.AccessExported, root, out); err != nil || !eq {
		t.Fatalf("copy must be graph-equal to the original: %v, %v", eq, err)
	}
}

// TestQuickCopyIsGraphEqual copies the model's tree world — aliases,
// internal aliasing edges and cycles — and checks the copy against it.
func TestQuickCopyIsGraphEqual(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		orig := model.TreeCase(seed, int(sz%64)+1, 0).Held
		cp, err := graph.Copy(graph.AccessExported, orig)
		if err != nil {
			return false
		}
		eq, err := model.Equal(graph.AccessExported, orig, cp)
		return err == nil && eq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCopyObjectCountMatches(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		orig := model.TreeCase(seed, int(sz%64)+1, 0).Held
		cp, err := graph.Copy(graph.AccessExported, orig)
		if err != nil {
			return false
		}
		lm1, err1 := graph.Walk(graph.AccessExported, orig)
		lm2, err2 := graph.Walk(graph.AccessExported, cp)
		return err1 == nil && err2 == nil && lm1.Len() == lm2.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// twoEmpties holds empty non-nil slices of two element types — both data
// pointers are the allocator's zero-size address — and a third that is an
// honest alias of the first. Identity is (address, kind): the empties are
// two objects.
type twoEmpties struct {
	A  []int
	B  []string
	A2 []int
}

func newTwoEmpties(t *testing.T) *twoEmpties {
	t.Helper()
	v := &twoEmpties{A: make([]int, 0), B: make([]string, 0)}
	v.A2 = v.A
	if reflect.ValueOf(v.A).Pointer() != reflect.ValueOf(v.B).Pointer() {
		t.Skip("this allocator gives two zero-size allocations two addresses")
	}
	return v
}

func TestWalkEmptySlicesOfTwoTypes(t *testing.T) {
	v := newTwoEmpties(t)
	lm, err := graph.Walk(graph.AccessExported, v)
	if err != nil {
		t.Fatal(err)
	}
	var types []reflect.Type
	for _, obj := range lm.Objects() {
		types = append(types, obj.Type())
	}
	want := []reflect.Type{reflect.TypeOf(v), reflect.TypeOf(v.A), reflect.TypeOf(v.B)}
	if !reflect.DeepEqual(types, want) {
		t.Fatalf("linear map holds %v, want %v: the empties are two objects, the alias none", types, want)
	}
}

func TestCopyEmptySlicesOfTwoTypes(t *testing.T) {
	v := newTwoEmpties(t)
	out, err := graph.Copy(graph.AccessExported, v) // panicked in reflect.Set before: B was handed A's copy
	if err != nil {
		t.Fatal(err)
	}
	got := out.(*twoEmpties)
	if got.A == nil || got.B == nil || got.A2 == nil || len(got.A)+len(got.B)+len(got.A2) != 0 {
		t.Fatalf("copy is %#v, want three empty non-nil slices", got)
	}
	if eq, err := model.Equal(graph.AccessExported, v, out); err != nil || !eq {
		t.Fatalf("copy not graph-equal to its source: %t, %v", eq, err)
	}
}

// TestKernelConcurrentStress hammers the per-type caches from many
// goroutines (run under -race in make test): concurrent walks, copies, and
// equality checks of the same types. (Nothing here is a kernel; the name is
// kept because the test floor tracks tests by name.)
func TestKernelConcurrentStress(t *testing.T) {
	type stressT struct {
		ID    int
		Kids  []*stressT
		Tags  map[string]int
		Extra any
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				root := &stressT{ID: g, Tags: map[string]int{fmt.Sprint(i): i}}
				root.Kids = []*stressT{{ID: i, Extra: "x"}, root}
				lm, err := graph.Walk(graph.AccessExported, root)
				if err != nil {
					t.Error(err)
				} else if lm.Len() == 0 {
					t.Error("empty linear map")
				}
				cp, err := graph.Copy(graph.AccessExported, root)
				if err != nil {
					t.Error(err)
					continue
				}
				if eq, err := model.Equal(graph.AccessExported, root, cp); err != nil || !eq {
					t.Errorf("copy not equal: %v %v", eq, err)
				}
			}
		}(g)
	}
	wg.Wait()
}
