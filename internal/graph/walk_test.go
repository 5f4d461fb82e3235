package graph

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"nrmi/internal/raceflag"
)

// node is the canonical linked test structure (the paper's Tree).
type node struct {
	Data        int
	Left, Right *node
}

type withUnexported struct {
	Public int
	secret int
}

type bag struct {
	Name  string
	Items []int
	Table map[string]*node
	Any   interface{}
}

func mustWalk(t *testing.T, mode AccessMode, roots ...any) *LinearMap {
	t.Helper()
	lm, err := Walk(mode, roots...)
	if err != nil {
		t.Fatalf("Walk: %v", err)
	}
	return lm
}

func TestWalkNil(t *testing.T) {
	lm := mustWalk(t, AccessExported, nil)
	if lm.Len() != 0 {
		t.Fatalf("want empty map, got %d objects", lm.Len())
	}
	var p *node
	lm = mustWalk(t, AccessExported, p)
	if lm.Len() != 0 {
		t.Fatalf("nil pointer should add no objects, got %d", lm.Len())
	}
}

func TestWalkSingleObject(t *testing.T) {
	n := &node{Data: 42}
	lm := mustWalk(t, AccessExported, n)
	if lm.Len() != 1 {
		t.Fatalf("want 1 object, got %d", lm.Len())
	}
	obj := lm.At(0)
	if obj.Ref.Kind() != reflect.Ptr || obj.ID != 0 {
		t.Fatalf("unexpected object %+v", obj)
	}
	if got := obj.Ref.Interface().(*node); got != n {
		t.Fatal("linear map must hold the original reference")
	}
}

func TestWalkTreeDFSOrder(t *testing.T) {
	// DFS preorder: root, left subtree, right subtree — field order.
	l := &node{Data: 1}
	r := &node{Data: 2}
	root := &node{Data: 0, Left: l, Right: r}
	lm := mustWalk(t, AccessExported, root)
	if lm.Len() != 3 {
		t.Fatalf("want 3 objects, got %d", lm.Len())
	}
	order := []*node{root, l, r}
	for i, want := range order {
		if got := lm.At(i).Ref.Interface().(*node); got != want {
			t.Fatalf("position %d: wrong object (Data=%d, want Data=%d)", i, got.Data, want.Data)
		}
	}
}

func TestWalkSharedObjectRecordedOnce(t *testing.T) {
	shared := &node{Data: 7}
	root := &node{Left: shared, Right: shared}
	lm := mustWalk(t, AccessExported, root)
	if lm.Len() != 2 {
		t.Fatalf("aliased object must appear once: want 2 objects, got %d", lm.Len())
	}
}

func TestWalkCycle(t *testing.T) {
	a := &node{Data: 1}
	b := &node{Data: 2, Left: a}
	a.Right = b // cycle a -> b -> a
	lm := mustWalk(t, AccessExported, a)
	if lm.Len() != 2 {
		t.Fatalf("want 2 objects in cycle, got %d", lm.Len())
	}
}

func TestWalkMultipleRootsSharedStructure(t *testing.T) {
	shared := &node{Data: 9}
	r1 := &node{Left: shared}
	r2 := &node{Right: shared}
	lm, err := Walk(AccessExported, r1, r2)
	if err != nil {
		t.Fatal(err)
	}
	if lm.Len() != 3 {
		t.Fatalf("sharing across roots must be detected: want 3, got %d", lm.Len())
	}
}

func TestWalkSlicesAndMaps(t *testing.T) {
	n := &node{Data: 5}
	b := &bag{
		Name:  "b",
		Items: []int{1, 2, 3},
		Table: map[string]*node{"n": n},
		Any:   n,
	}
	lm := mustWalk(t, AccessExported, b)
	// Objects: bag ptr, Items slice, Table map, node ptr.
	if lm.Len() != 4 {
		t.Fatalf("want 4 objects, got %d", lm.Len())
	}
	if lm.Lookup(reflect.ValueOf(b.Items)) == nil {
		t.Fatal("slice not recorded")
	}
	if lm.Lookup(reflect.ValueOf(b.Table)) == nil {
		t.Fatal("map not recorded")
	}
	if lm.Lookup(reflect.ValueOf(n)) == nil {
		t.Fatal("node reachable through map and interface not recorded")
	}
}

func TestWalkSliceOfPointers(t *testing.T) {
	a, b := &node{Data: 1}, &node{Data: 2}
	s := []*node{a, b, a} // a aliased within the slice
	lm := mustWalk(t, AccessExported, s)
	if lm.Len() != 3 { // slice + 2 nodes
		t.Fatalf("want 3 objects, got %d", lm.Len())
	}
}

func TestWalkOverlappingSlicesRejected(t *testing.T) {
	backing := make([]int, 10)
	type twoViews struct {
		A []int
		B []int
	}
	v := &twoViews{A: backing[:10], B: backing[:5]}
	_, err := Walk(AccessExported, v)
	if !errors.Is(err, ErrSliceOverlap) {
		t.Fatalf("want ErrSliceOverlap, got %v", err)
	}
}

func TestWalkIdenticalSliceHeadersShareIdentity(t *testing.T) {
	backing := []int{1, 2, 3}
	type twoViews struct {
		A []int
		B []int
	}
	v := &twoViews{A: backing, B: backing}
	lm := mustWalk(t, AccessExported, v)
	if lm.Len() != 2 { // struct ptr + one slice object
		t.Fatalf("identical headers must share identity: want 2, got %d", lm.Len())
	}
}

func TestWalkUnexportedFieldExportedMode(t *testing.T) {
	// Zero-valued unexported field: skipped silently.
	ok := &withUnexported{Public: 1}
	if _, err := Walk(AccessExported, ok); err != nil {
		t.Fatalf("zero unexported field should be skippable: %v", err)
	}
	// Non-zero unexported field: loud failure, never silent data loss.
	bad := &withUnexported{Public: 1, secret: 2}
	_, err := Walk(AccessExported, bad)
	if !errors.Is(err, ErrUnexportedField) {
		t.Fatalf("want ErrUnexportedField, got %v", err)
	}
}

func TestWalkUnexportedFieldUnsafeMode(t *testing.T) {
	v := &withUnexported{Public: 1, secret: 2}
	lm, err := Walk(AccessUnsafe, v)
	if err != nil {
		t.Fatalf("unsafe mode must traverse unexported fields: %v", err)
	}
	if lm.Len() != 1 {
		t.Fatalf("want 1 object, got %d", lm.Len())
	}
}

func TestWalkForbiddenKinds(t *testing.T) {
	type withChan struct{ C chan int }
	_, err := Walk(AccessExported, &withChan{C: make(chan int)})
	if !errors.Is(err, ErrNotSerializable) {
		t.Fatalf("chan: want ErrNotSerializable, got %v", err)
	}
	type withFunc struct{ F func() }
	_, err = Walk(AccessExported, &withFunc{F: func() {}})
	if !errors.Is(err, ErrNotSerializable) {
		t.Fatalf("func: want ErrNotSerializable, got %v", err)
	}
}

func TestWalkArrayOfPointers(t *testing.T) {
	a, b := &node{Data: 1}, &node{Data: 2}
	type holder struct{ Arr [2]*node }
	lm := mustWalk(t, AccessExported, &holder{Arr: [2]*node{a, b}})
	if lm.Len() != 3 {
		t.Fatalf("want 3 objects, got %d", lm.Len())
	}
}

func TestLookupMissAndNil(t *testing.T) {
	lm := mustWalk(t, AccessExported, &node{})
	other := &node{}
	if lm.Lookup(reflect.ValueOf(other)) != nil {
		t.Fatal("lookup of foreign object must miss")
	}
	var nilp *node
	if lm.Lookup(reflect.ValueOf(nilp)) != nil {
		t.Fatal("lookup of nil must miss")
	}
	if lm.Lookup(reflect.ValueOf(42)) != nil {
		t.Fatal("lookup of non-reference must miss")
	}
}

func TestWalkDeepRecursionGuard(t *testing.T) {
	// Nesting through value structs is bounded; build nesting via
	// interfaces which consume depth per level.
	var v interface{} = 1
	for i := 0; i < maxDepth+10; i++ {
		v = []interface{}{v}
	}
	_, err := Walk(AccessExported, v)
	if !errors.Is(err, ErrDepthExceeded) {
		t.Fatalf("want ErrDepthExceeded, got %v", err)
	}
}

func TestHasIdentityBearing(t *testing.T) {
	cases := []struct {
		typ  reflect.Type
		want bool
	}{
		{reflect.TypeOf(0), false},
		{reflect.TypeOf(""), false},
		{reflect.TypeOf([3]int{}), false},
		{reflect.TypeOf(struct{ A, B int }{}), false},
		{reflect.TypeOf(&node{}), true},
		{reflect.TypeOf([]int{}), true},
		{reflect.TypeOf(map[string]int{}), true},
		{reflect.TypeOf(struct{ N *node }{}), true},
		{reflect.TypeOf([2]*node{}), true},
		{reflect.TypeOf(struct{ Inner struct{ S []int } }{}), true},
	}
	for _, c := range cases {
		if got := hasIdentityBearing(c.typ); got != c.want {
			t.Errorf("hasIdentityBearing(%s) = %v, want %v", c.typ, got, c.want)
		}
	}
}

func TestKindAndModeStrings(t *testing.T) {
	if KindPtr.String() != "ptr" || KindMap.String() != "map" || KindSlice.String() != "slice" {
		t.Fatal("Kind.String mismatch")
	}
	if AccessExported.String() != "exported" || AccessUnsafe.String() != "unsafe" {
		t.Fatal("AccessMode.String mismatch")
	}
	if Kind(99).String() == "" || AccessMode(99).String() == "" {
		t.Fatal("unknown values must still stringify")
	}
}

func TestVisitContentsMalformedValueErrors(t *testing.T) {
	// Driving visitContents with a non-identity kind must surface as a
	// reportable ErrNotSerializable, not a panic.
	w := &Walker{Access: AccessExported}
	err := w.visitContents(reflect.ValueOf(42), 0)
	if err == nil {
		t.Fatal("malformed value must be rejected, not panic")
	}
	if !errors.Is(err, ErrNotSerializable) {
		t.Fatalf("want ErrNotSerializable, got %v", err)
	}
	if !strings.Contains(err.Error(), "int") {
		t.Fatalf("error must name the offending kind: %v", err)
	}
}

// TestWalkAllocsSteadyState: a walk costs two allocations per object — its
// Object and the detached reference cell — plus the table and slice growth,
// which is logarithmic in the graph size. Nothing on the call path walks;
// this bounds what the tests and the bench harness pay for their oracles.
func TestWalkAllocsSteadyState(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are not meaningful under -race")
	}
	const n = 64
	root := buildChain(n)
	avg := testing.AllocsPerRun(20, func() {
		if _, err := Walk(AccessExported, root); err != nil {
			t.Fatal(err)
		}
	})
	if budget := float64(2*n + 24); avg > budget {
		t.Fatalf("walking %d objects allocates %.1f/run, budget %.0f", n, avg, budget)
	}
}

func buildChain(n int) *node {
	root := &node{Data: 0}
	cur := root
	for i := 1; i < n; i++ {
		cur.Left = &node{Data: i}
		cur = cur.Left
	}
	return root
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
				lm, err := Walk(AccessExported, root)
				if err != nil {
					t.Error(err)
				} else if lm.Len() == 0 {
					t.Error("empty linear map")
				}
				cp, err := Copy(AccessExported, root)
				if err != nil {
					t.Error(err)
					continue
				}
				if eq, err := Equal(AccessExported, root, cp); err != nil || !eq {
					t.Errorf("copy not equal: %v %v", eq, err)
				}
			}
		}(g)
	}
	wg.Wait()
}
