package wire

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"nrmi/internal/raceflag"
)

type shadowNode struct {
	Data        int
	Left, Right *shadowNode
}

type shadowBox struct{ V any }

// changedAfter shadows objs, runs mutate, and returns Changed.
func changedAfter(objs []reflect.Value, mutate func()) []int {
	d := AcquireDecoderBytes(nil, Options{})
	defer ReleaseDecoder(d)
	d.Shadow(objs)
	mutate()
	return slices.Clone(d.Changed(objs))
}

func valuesOf(objs ...any) []reflect.Value {
	out := make([]reflect.Value, len(objs))
	for i, o := range objs {
		out[i] = reflect.ValueOf(o)
	}
	return out
}

// TestShadowComparesOwnStateOnly: a pointer object counts as changed when a
// scalar of its own changes or a reference of its own is re-pointed, not
// when an object it references changes.
func TestShadowComparesOwnStateOnly(t *testing.T) {
	a := &shadowNode{Data: 1, Left: &shadowNode{Data: 5}}
	objs := valuesOf(a, a.Left)
	for _, tc := range []struct {
		name   string
		mutate func()
		want   []int
	}{
		{"nothing", func() {}, nil},
		{"a referenced object", func() { a.Left.Right = &shadowNode{} }, []int{1}},
		{"a scalar", func() { a.Data = 2 }, []int{0}},
		{"a reference re-pointed at an equal object", func() { a.Left = &shadowNode{Data: 5} }, []int{0}},
		{"a scalar written with its own value", func() { a.Data = a.Data + 0 }, nil},
	} {
		if got := changedAfter(objs, tc.mutate); !slices.Equal(got, tc.want) {
			t.Errorf("%s: changed %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestShadowSliceAndMapObjects: a slice object compares its elements, a
// string by value and an interface by dynamic type and then value; a map
// has no shadow.
func TestShadowSliceAndMapObjects(t *testing.T) {
	ints := []int{1, 2, 3}
	strs := []string{"ab"}
	box := &shadowBox{V: 1000}
	m := map[string]int{"a": 1}
	objs := valuesOf(ints, strs, box, m)
	thousand, a := 1000, "a"
	for _, tc := range []struct {
		name   string
		mutate func()
		want   []int
	}{
		{"nothing", func() {}, []int{3}},
		{"an element", func() { ints[1] = 9 }, []int{0, 3}},
		{"a string rebuilt with its value", func() { strs[0] = strings.Repeat(a, 1) + "b" }, []int{3}},
		{"a string", func() { strs[0] = "ac" }, []int{1, 3}},
		{"an interface reboxed with its value", func() { box.V = thousand }, []int{3}},
		{"an interface's dynamic type", func() { box.V = int64(thousand) }, []int{2, 3}},
		{"an interface's pointer", func() { box.V = &shadowNode{} }, []int{2, 3}},
	} {
		if got := changedAfter(objs, tc.mutate); !slices.Equal(got, tc.want) {
			t.Errorf("%s: changed %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestShadowAllocsNothing: a pooled decoder's slabs serve the next call.
func TestShadowAllocsNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are not meaningful under -race (sync.Pool drops Puts)")
	}
	var objs []reflect.Value
	for i := 0; i < 256; i++ {
		objs = append(objs, reflect.ValueOf(&shadowNode{Data: i}))
	}
	objs = append(objs, reflect.ValueOf(make([]int, 8)))
	d := AcquireDecoderBytes(nil, Options{})
	defer ReleaseDecoder(d)
	call := func() {
		d.Shadow(objs)
		if n := len(d.Changed(objs)); n != 0 {
			t.Fatalf("%d objects changed", n)
		}
		d.shadow.reset()
	}
	call()
	if allocs := testing.AllocsPerRun(20, call); allocs != 0 {
		t.Fatalf("shadow and compare: %.1f allocs per call", allocs)
	}
}
