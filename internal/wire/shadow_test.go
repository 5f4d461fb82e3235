package wire

import (
	"io"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"nrmi/internal/graph"
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
	return slices.Clone(d.Changed(len(objs)))
}

func valuesOf(objs ...any) []reflect.Value {
	out := make([]reflect.Value, len(objs))
	for i, o := range objs {
		out[i] = reflect.ValueOf(o)
	}
	return out
}

// seed seeds objs into dec as the restore protocol seeds a call's originals:
// each in a detached reference cell of its own.
func seed(dec *Decoder, objs ...any) {
	for _, o := range objs {
		dec.SeedDetached([]reflect.Value{graph.StableRef(reflect.ValueOf(o))})
	}
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
		if n := len(d.Changed(len(objs))); n != 0 {
			t.Fatalf("%d objects changed", n)
		}
		d.shadow.reset()
	}
	call()
	if allocs := testing.AllocsPerRun(20, call); allocs != 0 {
		t.Fatalf("shadow and compare: %.1f allocs per call", allocs)
	}
}

// kput adds to kmatrix the kinds it lacks, so that put meets every kind: a
// struct and an array that are one pointer word, a non-empty interface, and
// the kinds the codec refuses but a shadow still copies.
type kput struct {
	M    kmatrix
	I    int
	U8   uint8
	F64  float64
	C128 complex128
	Up   uintptr
	Sl   []int
	Mp   map[string]int
	Ch   chan int
	Fn   func()
	One  onePtr
	Arr1 [1]*inner
	Err  error
	Ptr  unsafe.Pointer
}

func fullKput() *kput {
	x := 3
	return &kput{
		M: *kindMatrix(5), I: -1, U8: 200, F64: math.Copysign(0, -1), C128: complex(1, -2), Up: 7,
		Sl: []int{1, 2}, Mp: map[string]int{"a": 1}, Ch: make(chan int), Fn: func() {},
		One: onePtr{&inner{X: 1}}, Arr1: [1]*inner{{Y: 2}}, Err: io.EOF, Ptr: unsafe.Pointer(&x),
	}
}

func bitsOf[T any](p *T) string {
	return string(unsafe.Slice((*byte)(unsafe.Pointer(p)), unsafe.Sizeof(*p)))
}

// TestPutMatchesSet: put copies every kind, unexported fields included, to
// the bit as reflect.Value.Set does.
func TestPutMatchesSet(t *testing.T) {
	v := fullKput()
	got, want := new(kput), new(kput)
	kernelFor(reflect.TypeOf(*v), graph.AccessUnsafe).put(unsafe.Pointer(got), unsafe.Pointer(v))
	reflect.ValueOf(want).Elem().Set(reflect.ValueOf(v).Elem())
	if bitsOf(got) != bitsOf(want) {
		t.Fatalf("put left %+v\nSet left %+v", got, want)
	}
}

// TestChangedPerKind: writing a field's own value leaves an object unchanged;
// writing anything else changes it, a zero's sign and a NaN's payload
// included — for a struct compared field by field, a pointee compared as
// bytes and a slice's elements.
func TestChangedPerKind(t *testing.T) {
	nan := func(payload uint64) float64 { return math.Float64frombits(0x7ff8000000000000 | payload) }
	v := fullKput()
	f := new(float64)
	fs := []float32{float32(nan(1)), 0}
	v.F64 = nan(1)
	objs := valuesOf(v, f, fs)
	same := v.Sl
	for _, tc := range []struct {
		name   string
		mutate func()
		want   []int
	}{
		{"every field written with its own value", func() {
			w := *v
			*v = w
			v.Sl, v.F64, *f, fs[0] = same, nan(1), 0, float32(nan(1))
		}, nil},
		{"a NaN's payload", func() { v.F64 = nan(2) }, []int{0}},
		{"a NaN's payload in a slice", func() { fs[0] = float32(nan(1 << 40)) }, []int{2}},
		{"a zero's sign", func() { *f = math.Copysign(0, -1) }, []int{1}},
		{"a zero's sign in a slice", func() { fs[1] = float32(math.Copysign(0, -1)) }, []int{2}},
		{"int8", func() { v.M.I8++ }, []int{0}},
		{"uint16", func() { v.M.U16-- }, []int{0}},
		{"float32", func() { v.M.F32 = -v.M.F32 }, []int{0}},
		{"complex64", func() { v.M.C64 = 0 }, []int{0}},
		{"bool", func() { v.M.B = false }, []int{0}},
		{"string", func() { v.M.S = "other" }, []int{0}},
		{"array element", func() { v.M.Arr[1] = 1 }, []int{0}},
		{"inline struct", func() { v.M.In.Y = 0 }, []int{0}},
		{"named pointer", func() { v.M.L = nil }, []int{0}},
		{"interface", func() { v.M.Any = inner{X: 5, Y: 7} }, []int{0}},
		{"unexported field", func() { v.M.hid = 0 }, []int{0}},
		{"complex128", func() { v.C128 = complex(1, 2) }, []int{0}},
		{"uintptr", func() { v.Up = 0 }, []int{0}},
		{"slice header", func() { v.Sl = v.Sl[:1] }, []int{0}},
		{"map", func() { v.Mp = map[string]int{"a": 1} }, []int{0}},
		{"chan", func() { v.Ch = make(chan int) }, []int{0}},
		{"one-pointer struct", func() { v.One.P = &inner{X: 1} }, []int{0}},
		{"one-pointer array", func() { v.Arr1[0] = nil }, []int{0}},
		{"error", func() { v.Err = io.ErrUnexpectedEOF }, []int{0}},
		{"unsafe.Pointer", func() { v.Ptr = nil }, []int{0}},
	} {
		before := *v
		befores := slices.Clone(fs)
		beforef := *f
		if got := changedAfter(objs, tc.mutate); !slices.Equal(got, tc.want) {
			t.Errorf("%s: changed %v, want %v", tc.name, got, tc.want)
		}
		*v, *f = before, beforef
		copy(fs, befores)
	}
}
