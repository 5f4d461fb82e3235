package graph

import (
	"errors"
	"reflect"
	"testing"
)

// Identity is (address, kind): references of two types can share one
// without being one object. These tests pin the rule of Aliases on the
// walker and the copier; internal/core and internal/rmi pin it on the codec.

// twoEmpties holds empty non-nil slices of two element types — both data
// pointers are the allocator's zero-size address — and a third that is an
// honest alias of the first.
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

// inner's first field shares the struct's address.
type inner struct{ A, B int }

type firstField struct {
	S *inner
	A *int
}

func newFirstField() *firstField {
	s := &inner{A: 1, B: 2}
	return &firstField{S: s, A: &s.A}
}

func TestWalkEmptySlicesOfTwoTypes(t *testing.T) {
	v := newTwoEmpties(t)
	lm := mustWalk(t, AccessExported, v)
	var types []reflect.Type
	for _, obj := range lm.Objects() {
		types = append(types, obj.Type())
	}
	want := []reflect.Type{reflect.TypeOf(v), reflect.TypeOf(v.A), reflect.TypeOf(v.B)}
	if !reflect.DeepEqual(types, want) {
		t.Fatalf("linear map holds %v, want %v: the empties are two objects, the alias none", types, want)
	}
}

func TestWalkFirstFieldOverlapRejected(t *testing.T) {
	if _, err := Walk(AccessExported, newFirstField()); !errors.Is(err, ErrObjectOverlap) {
		t.Fatalf("want ErrObjectOverlap, got %v", err)
	}
}

func TestCopyEmptySlicesOfTwoTypes(t *testing.T) {
	v := newTwoEmpties(t)
	out, err := Copy(AccessExported, v) // panicked in reflect.Set before: B was handed A's copy
	if err != nil {
		t.Fatal(err)
	}
	got := out.(*twoEmpties)
	if got.A == nil || got.B == nil || got.A2 == nil || len(got.A)+len(got.B)+len(got.A2) != 0 {
		t.Fatalf("copy is %#v, want three empty non-nil slices", got)
	}
	if eq, err := Equal(AccessExported, v, out); err != nil || !eq {
		t.Fatalf("copy not graph-equal to its source: %t, %v", eq, err)
	}
}

func TestCopyFirstFieldOverlapRejected(t *testing.T) {
	if _, err := Copy(AccessExported, newFirstField()); !errors.Is(err, ErrObjectOverlap) {
		t.Fatalf("want ErrObjectOverlap, got %v", err)
	}
}
