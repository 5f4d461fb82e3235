package wire

import (
	"reflect"
	"unsafe"

	"nrmi/internal/graph"
)

// Change detection for the restore response: the paper's optimization 2
// (Section 5.2.4) — an object passed by copy-restore and left unchanged
// should cost about what passing it by copy does. Before the method runs,
// Shadow copies each restore-set object's own state — a pointer object's
// pointee, a slice object's elements — into typed slabs by kernel.put and
// marks where both are; afterwards Changed compares the two by kernel.same.
// The copy is shallow: its references point at the same objects as the live
// graph, so comparing them compares identities exactly, and no second graph
// is built. A map object has no shadow and always counts as changed.
//
// The slabs belong to the pooled decoder that decoded the objects, so a
// steady-state call allocates nothing, and ReleaseDecoder zeroes them, so
// they pin nothing.

// shadow is a decoder's change-detection state.
type shadow struct {
	slabs   []shadowSlab
	last    int          // the slab the previous object used
	marks   []shadowMark // the shadowed objects, in order
	changed []int
	memo    kernelMemo
}

// shadowSlab holds the shadows of the objects of one pointer or slice kernel
// k (AccessUnsafe): cells is a settable []k.elem.t, its whole capacity in
// view, whose first used cells are taken; base is its first cell.
type shadowSlab struct {
	k     *kernel
	cells reflect.Value
	base  unsafe.Pointer
	used  int
}

// shadowMark is an object — n values of its slab's element type at p — and
// its shadow, from cell off of slab; slab -1 marks a map.
type shadowMark struct {
	p            unsafe.Pointer
	slab, off, n int
}

// Shadow copies the own state of each of objs, non-nil pointer, map or slice
// objects, for Changed.
func (d *Decoder) Shadow(objs []reflect.Value) {
	s := &d.shadow
	for _, obj := range objs {
		k := s.memo.of(obj.Type(), graph.AccessUnsafe)
		m := shadowMark{p: obj.UnsafePointer(), slab: -1, n: 1}
		if k.tag != tagMap {
			if k.tag == tagSlice {
				m.n = obj.Len()
			}
			m.slab = s.slab(k)
			sl := &s.slabs[m.slab]
			m.off = sl.take(m.n)
			size := k.elem.size
			for i := uintptr(0); i < uintptr(m.n); i++ {
				k.elem.put(unsafe.Add(sl.base, (uintptr(m.off)+i)*size), unsafe.Add(m.p, i*size))
			}
		}
		s.marks = append(s.marks, m)
	}
}

// slab returns the index of the slab for the objects of kernel k.
func (s *shadow) slab(k *kernel) int {
	if s.last < len(s.slabs) && s.slabs[s.last].k == k {
		return s.last
	}
	for i := range s.slabs {
		if s.slabs[i].k == k {
			s.last = i
			return i
		}
	}
	s.slabs = append(s.slabs, shadowSlab{k: k, cells: reflect.New(k.cells).Elem()})
	s.last = len(s.slabs) - 1
	return s.last
}

// take reserves the next n cells and returns the first one's index.
func (sl *shadowSlab) take(n int) int {
	off := sl.used
	if sl.used += n; sl.used > sl.cells.Len() {
		sl.cells.SetLen(off)
		sl.cells.Grow(n)
		sl.cells.SetLen(sl.cells.Cap())
		sl.base = sl.cells.UnsafePointer()
	}
	return off
}

// Changed returns, ascending, the positions below n of the objects given to
// Shadow whose own state differs from their shadows. A map, and a position
// past the shadowed objects, counts as changed. The slice is the decoder's:
// valid until the next Changed or ReleaseDecoder.
func (d *Decoder) Changed(n int) []int {
	s := &d.shadow
	s.changed = s.changed[:0]
	for i := range n {
		if i >= len(s.marks) || !s.same(s.marks[i]) {
			s.changed = append(s.changed, i)
		}
	}
	return s.changed
}

// same reports whether the object at m holds its shadow's state.
func (s *shadow) same(m shadowMark) bool {
	if m.slab < 0 {
		return false
	}
	sl := &s.slabs[m.slab]
	k := sl.k.elem
	return k.sameN(m.p, unsafe.Add(sl.base, uintptr(m.off)*k.size), m.n)
}

// reset zeroes the taken cells and the marks, keeping their capacity.
func (s *shadow) reset() {
	for i := range s.slabs {
		sl := &s.slabs[i]
		n := sl.cells.Len()
		sl.cells.SetLen(sl.used)
		sl.cells.Clear()
		sl.cells.SetLen(n)
		sl.used = 0
	}
	clear(s.marks)
	s.marks, s.changed = s.marks[:0], s.changed[:0]
}

// put stores the value of k's type at src into dst, each part with a load
// and store of its own type: pointers through the write barrier, and no
// memory that holds pointers copied untyped. k must be an AccessUnsafe
// kernel, which compiles every field.
func (k *kernel) put(dst, src unsafe.Pointer) {
	if k.putLeaf(dst, src) {
		return
	}
	switch k.kind {
	case reflect.Struct:
		for i := range k.fields {
			f := &k.fields[i]
			if d, s := unsafe.Add(dst, f.off), unsafe.Add(src, f.off); !f.k.putLeaf(d, s) {
				f.k.put(d, s)
			}
		}
	case reflect.Array:
		for i := uintptr(0); i < uintptr(k.t.Len()); i++ {
			k.elem.put(unsafe.Add(dst, i*k.elem.size), unsafe.Add(src, i*k.elem.size))
		}
	case reflect.String:
		*(*string)(dst) = *(*string)(src)
	case reflect.Interface:
		*(*any)(dst) = *(*any)(src) // an iface has an eface's layout
	case reflect.Slice:
		*(*[]byte)(dst) = *(*[]byte)(src)
	case reflect.Complex128:
		*(*complex128)(dst) = *(*complex128)(src)
	}
}

// putLeaf is put for a leaf, inline in a struct's loop, and reports whether
// k is one: a value that is one pointer word (direct), or a boolean or number
// of up to eight bytes, stored as its bits so that a NaN's payload and a
// zero's sign survive.
func (k *kernel) putLeaf(dst, src unsafe.Pointer) bool {
	switch {
	case k.direct:
		*(*unsafe.Pointer)(dst) = *(*unsafe.Pointer)(src)
	case k.kind <= reflect.Complex64:
		storeBits(dst, k.size, loadBits(src, k.size))
	default:
		return false
	}
	return true
}

// same reports whether the values of k's type at a and b hold the same
// state, over every field: scalars by bit pattern, pointers, maps and chans
// by address, slices by (data, len, cap), strings by value, interfaces by
// dynamic type and then recursively. It may call equal values different
// (their padding differs), never different ones equal. k must be an
// AccessUnsafe kernel: that mode compiles every field.
func (k *kernel) same(a, b unsafe.Pointer) bool {
	if bytesEqual(a, b, k.size) {
		return true
	}
	switch {
	case k.exact:
		return false
	case k.tag == tagArray:
		return k.elem.sameN(a, b, k.t.Len())
	case k.tag == tagStruct:
		for _, f := range k.fields {
			if !f.k.same(unsafe.Add(a, f.off), unsafe.Add(b, f.off)) {
				return false
			}
		}
		return true
	case k.t.Kind() == reflect.String:
		return *(*string)(a) == *(*string)(b)
	}
	// An interface. Equal type words name one dynamic type; unless a value
	// of it lives in the data word itself, the data words point at copies.
	wa, wb := (*[2]unsafe.Pointer)(a), (*[2]unsafe.Pointer)(b)
	if wa[0] != wb[0] {
		return false
	}
	dk := kernelFor(reflect.NewAt(k.t, a).Elem().Elem().Type(), graph.AccessUnsafe)
	return !dk.direct && dk.same(wa[1], wb[1])
}

// sameN is same over n consecutive values of k's type.
func (k *kernel) sameN(a, b unsafe.Pointer, n int) bool {
	size := k.size
	if k.exact {
		return bytesEqual(a, b, uintptr(n)*size)
	}
	for i := uintptr(0); i < uintptr(n); i++ {
		if !k.same(unsafe.Add(a, i*size), unsafe.Add(b, i*size)) {
			return false
		}
	}
	return true
}

func bytesEqual(a, b unsafe.Pointer, n uintptr) bool {
	return unsafe.String((*byte)(a), n) == unsafe.String((*byte)(b), n)
}
