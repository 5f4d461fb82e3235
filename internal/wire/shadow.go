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
// pointee, a slice object's elements — into typed slabs; afterwards Changed
// compares each object with its copy by kernel.same. The copy is shallow:
// its references point at the same objects as the live graph, so comparing
// them compares identities exactly, and no second graph is built. A map
// object has no shadow and always counts as changed.
//
// The slabs belong to the pooled decoder that decoded the objects, so a
// steady-state call allocates nothing, and ReleaseDecoder zeroes them, so
// they pin nothing.

// shadow is a decoder's change-detection state.
type shadow struct {
	slabs []shadowSlab
	last  int // the slab the previous object used
	// marks places the shadowed objects, in order, in the slabs.
	marks   []shadowMark
	changed []int
	memo    kernelMemo
}

// shadowSlab holds the shadows of the objects of one kernel (AccessUnsafe):
// cells is a settable value of k.cells.
type shadowSlab struct {
	k     *kernel
	cells reflect.Value
}

// shadowMark is an object's first cell in slab; slab -1 marks a map.
type shadowMark struct{ slab, off int }

// Shadow copies the own state of each of objs, non-nil pointer, map or slice
// objects, for Changed.
func (d *Decoder) Shadow(objs []reflect.Value) {
	s := &d.shadow
	for _, obj := range objs {
		k := s.memo.of(obj.Type(), graph.AccessUnsafe)
		if k.tag == tagMap {
			s.marks = append(s.marks, shadowMark{-1, 0})
			continue
		}
		slab := s.slab(k)
		cells := s.slabs[slab].cells
		off, n := cells.Len(), 1
		if k.tag == tagSlice {
			n = obj.Len()
		}
		cells.Grow(n)
		cells.SetLen(off + n)
		if k.tag == tagPtr {
			cells.Index(off).Set(obj.Elem())
		} else { // element by element: reflect.Copy would allocate
			for i := 0; i < n; i++ {
				cells.Index(off + i).Set(obj.Index(i))
			}
		}
		s.marks = append(s.marks, shadowMark{slab, off})
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
	s.slabs = append(s.slabs, shadowSlab{k, reflect.New(k.cells).Elem()})
	s.last = len(s.slabs) - 1
	return s.last
}

// Changed returns, ascending, the positions in objs — the objects given to
// Shadow, in the same order — whose own state differs from their shadows. A
// map, and an object past the shadowed ones, counts as changed. The slice is
// the decoder's: valid until the next Changed or ReleaseDecoder.
func (d *Decoder) Changed(objs []reflect.Value) []int {
	s := &d.shadow
	s.changed = s.changed[:0]
	for i, obj := range objs {
		if i >= len(s.marks) || !s.same(s.marks[i], obj) {
			s.changed = append(s.changed, i)
		}
	}
	return s.changed
}

// same reports whether obj's own state is its shadow's, at m.
func (s *shadow) same(m shadowMark, obj reflect.Value) bool {
	if m.slab < 0 {
		return false
	}
	sl := &s.slabs[m.slab]
	k, n := sl.k.elem, 1
	if sl.k.tag == tagSlice {
		n = obj.Len()
	}
	old := unsafe.Add(sl.cells.UnsafePointer(), uintptr(m.off)*k.t.Size())
	return k.sameN(obj.UnsafePointer(), old, n)
}

// reset zeroes the slabs, keeping their capacity.
func (s *shadow) reset() {
	for _, sl := range s.slabs {
		sl.cells.Clear()
		sl.cells.SetLen(0)
	}
	s.marks, s.changed = s.marks[:0], s.changed[:0]
}

// same reports whether the values of k's type at a and b hold the same
// state, over every field: scalars by bit pattern, pointers, maps and chans
// by address, slices by (data, len, cap), strings by value, interfaces by
// dynamic type and then recursively. It may call equal values different
// (their padding differs), never different ones equal. k must be an
// AccessUnsafe kernel: that mode compiles every field.
func (k *kernel) same(a, b unsafe.Pointer) bool {
	if bytesEqual(a, b, k.t.Size()) {
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
	size := k.t.Size()
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
