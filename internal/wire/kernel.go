package wire

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"unsafe"

	"nrmi/internal/graph"
)

// This file is the codec's kernel compiler — the one place the runtime
// compiles per-type programs (paper Section 5.3.1, "caching reflection
// information aggressively"). Once per (reflect.Type, AccessMode) a kernel
// is compiled that holds what both directions need to know about the type —
// the value tag it travels under, its struct field program, its element and
// key kernels — with the per-node kind switch, struct plan lookup, and field
// metadata derivation all resolved at compile time. kernel.enc emits exactly
// the bytes Encoder.encodeValue would emit; kernel.into is the decode
// direction. Kernels are looked up only where a value is described — roots,
// seeded objects, interface slots; a bare slot is coded by the kernel its
// container's kernel points at.
//
// Kernels implement the V2 wire format only and are engaged exactly on a V2
// codec with the plan cache enabled (Options.DisablePlanCache unset); every
// other configuration codes by the generic reflective paths (Decoder.shell
// borrows a type's tag and min). The wire format is byte-for-byte identical
// either way — edge_test.go and the cross-engine tests exercise both sides
// of the switch against each other.

// kernel is the compiled codec program for one (type, mode) pair. Kernels
// refer to each other by pointer so recursive types resolve naturally: a
// child compiled while its parent is in progress holds the parent's
// *kernel, whose fields are assigned before publication. There is exactly
// one kernel per pair, so comparing kernels compares types.
type kernel struct {
	t    reflect.Type
	kind reflect.Kind // t's kind and size, read per scalar and element
	size uintptr
	// tag is the value tag t travels under (tagPtr … tagScalar), or 0 for
	// kinds with none of their own (interfaces, unserializable kinds).
	tag byte
	// min is a lower bound on the bytes of a slot of type t in any engine's
	// stream, which reader.admit holds a count against: 1 for a pointer, map,
	// slice or interface (nil) and for a scalar (a varint, a string reference),
	// the sum of its parts for a struct or array: 0 if it has no encoded part.
	min int
	// fields is the struct field program, in plan order, shared by both
	// directions; zeros lists the excluded unexported fields the encoder
	// must find zero.
	fields []kernelField
	zeros  []kernelZero
	// elem is the pointee, element or map-value kernel; key the map key's.
	elem, key *kernel
	// cells is []elem for pointer and slice kernels: the type of a staging
	// or shadow slab.
	cells reflect.Type
	// rt is t's type word in an interface, for pointer, map and slice kernels.
	rt unsafe.Pointer
	// exact says equal bytes and the same state (kernel.same) coincide: t
	// holds no string or interface inline; it covers every field on
	// AccessUnsafe kernels only. direct says an interface holds a t in its
	// data word rather than a pointer to a copy (the runtime's rule).
	exact, direct bool
	// err is what encoding a chan, func, unsafe.Pointer or uintptr reports
	// — at encode time, not at compile time: the type may be a struct
	// field that is legitimately skipped in AccessExported mode.
	err error
}

// kernelField is one compiled struct field: its kernel and offset.
type kernelField struct {
	k   *kernel
	off uintptr
}

// kernelZero is one excluded unexported field whose zero-ness is enforced
// before any field is emitted (the no-silent-loss rule), with the error
// precomputed.
type kernelZero struct {
	off uintptr
	t   reflect.Type
	err error
}

type kernelKey struct {
	t    reflect.Type
	mode graph.AccessMode
}

// kernelCache memoizes compiled kernels process-wide, keyed by type and
// access mode only (as layoutCache is). Registry bindings do not participate:
// a kernel describes a type's structure, which is immutable, while the
// registry only resolves names, which it does at stream time through
// Options.Registry. Registering a type after its kernel was compiled
// (including via RegisterStrict, whose closure validation runs independently
// at registration time) therefore requires no invalidation, and a type
// rejected by RegisterStrict still fails at encode/decode time with the same
// graph-layer error whether or not a kernel was compiled for it first —
// kernels defer forbidden-kind errors to run time exactly like the generic
// paths. Compilation is serialized by kernelMu.
var (
	kernelCache sync.Map // kernelKey -> *kernel
	kernelMu    sync.Mutex
)

// kernelFor returns the compiled kernel for t under mode, compiling (and
// publishing) it on first use.
func kernelFor(t reflect.Type, mode graph.AccessMode) *kernel {
	if k, ok := kernelCache.Load(kernelKey{t, mode}); ok {
		return k.(*kernel)
	}
	kernelMu.Lock()
	defer kernelMu.Unlock()
	// Compile with a session-local table so recursive types terminate; the
	// whole session is published only once every kernel in it is complete.
	session := make(map[reflect.Type]*kernel)
	k := compileKernel(t, mode, session)
	for st, sk := range session {
		kernelCache.Store(kernelKey{st, mode}, sk)
	}
	return k
}

// kernelMemo is a one-entry cache in front of kernelFor for the places a
// codec meets a type it cannot know statically — roots, seeded objects, the
// dynamic type of an interface value: a run of equal types costs one lookup.
type kernelMemo struct {
	t reflect.Type
	k *kernel
}

func (m *kernelMemo) of(t reflect.Type, mode graph.AccessMode) *kernel {
	if m.t != t {
		m.k, m.t = kernelFor(t, mode), t
	}
	return m.k
}

func compileKernel(t reflect.Type, mode graph.AccessMode, session map[reflect.Type]*kernel) *kernel {
	if k, ok := kernelCache.Load(kernelKey{t, mode}); ok {
		return k.(*kernel)
	}
	if k, ok := session[t]; ok {
		return k
	}
	k := &kernel{t: t, kind: t.Kind(), size: t.Size()}
	session[t] = k

	k.min = 1
	k.exact = k.kind != reflect.String && k.kind != reflect.Interface
	switch k.kind {
	case reflect.Ptr, reflect.Map, reflect.Chan, reflect.Func, reflect.UnsafePointer:
		k.direct = true
	}
	if k.tag = tagOf(k.kind); k.tag >= tagPtr && k.tag <= tagSlice {
		box := reflect.Zero(t).Interface()
		k.rt = (*[2]unsafe.Pointer)(unsafe.Pointer(&box))[0]
	}
	switch k.tag {
	case tagPtr:
		k.elem = compileKernel(t.Elem(), mode, session)
		k.cells = reflect.SliceOf(t.Elem())
	case tagMap:
		k.key = compileKernel(t.Key(), mode, session)
		k.elem = compileKernel(t.Elem(), mode, session)
	case tagSlice:
		k.elem = compileKernel(t.Elem(), mode, session)
		k.cells = t
	case tagArray: // an inline part is compiled before its container
		k.elem = compileKernel(t.Elem(), mode, session)
		k.min = t.Len() * k.elem.min
		k.exact = k.elem.exact
		k.direct = t.Len() == 1 && k.elem.direct
	case tagStruct:
		k.min = 0
		k.fields = make([]kernelField, 0, t.NumField())
		for i := 0; i < t.NumField(); i++ {
			sf := t.Field(i)
			fk := compileKernel(sf.Type, mode, session)
			k.direct = t.NumField() == 1 && fk.direct
			if !sf.IsExported() && mode == graph.AccessExported {
				k.zeros = append(k.zeros, kernelZero{sf.Offset, sf.Type,
					fmt.Errorf("%w: field %s.%s", graph.ErrUnexportedField, t, sf.Name)})
				continue
			}
			k.fields = append(k.fields, kernelField{fk, sf.Offset})
			k.min += fk.min
			k.exact = k.exact && fk.exact
		}
	case 0:
		if k.kind != reflect.Interface {
			k.err = fmt.Errorf("%w: %s", graph.ErrNotSerializable, t)
		}
	}
	return k
}

// Both directions reach a field, element or pointee by address and move it
// with a load or store of its own Go type (paper Section 5.3.1, the Unsafe
// half): every store is typed, so the write barrier sees each pointer, and no
// memory that holds pointers is copied untyped.

// enc writes v, a value of k's type held as a reflect.Value — a root, a map
// key or value, the dynamic value of an interface, a reference for the object
// table: described — tag, descriptor, contents — or, bare, as the occupant of
// a slot of type k.t. Every slot below a value is bare; an interface slot's
// value describes itself either way.
func (k *kernel) enc(e *Encoder, v reflect.Value, depth int, bare bool) error {
	switch {
	case depth > maxEncodeDepth:
		return graph.ErrDepthExceeded
	case k.err != nil:
		return k.err
	case k.tag > tagSlice && v.CanAddr():
		return k.encAt(e, v.Addr().UnsafePointer(), depth, bare)
	case k.tag > tagSlice && !k.direct:
		// A value that is not addressable is boxed where it lives: the data
		// word of its interface is its address, and nothing is copied.
		box := v.Interface()
		return k.encAt(e, (*[2]unsafe.Pointer)(unsafe.Pointer(&box))[1], depth, bare)
	case k.tag > tagSlice:
		// A struct or array around one pointer, held by value, has no address.
		c := reflect.New(k.t)
		c.Elem().Set(v)
		return k.encAt(e, c.UnsafePointer(), depth, bare)
	case v.IsNil():
		e.w.writeByte(tagNil)
		return nil
	case k.tag == 0: // an interface: the dynamic type is only known at run time
		elem := v.Elem()
		return e.memo.of(elem.Type(), e.opts.Access).enc(e, elem, depth+1, false)
	}
	if id, seen, err := e.intern(v); err != nil || seen {
		return e.refOr(id, err)
	}
	if err := k.head(e, bare); err != nil {
		return err
	}
	switch k.tag {
	case tagPtr:
		return k.elem.encAt(e, v.UnsafePointer(), depth+1, true)
	case tagMap:
		return k.encMap(e, v, depth)
	}
	e.w.writeUint(uint64(v.Len()))
	return k.encElems(e, v.UnsafePointer(), v.Len(), depth)
}

// refOr is what a visit to object id that intern reports as seen writes: the
// back-reference, or intern's error.
func (e *Encoder) refOr(id int, err error) error {
	if err == nil {
		e.w.writeTagged(tagRef, uint64(id))
	}
	return err
}

// head writes what precedes the contents of an object's first visit: its tag
// and, described, its descriptor — a pointer's is its pointee's.
func (k *kernel) head(e *Encoder, bare bool) error {
	e.w.writeByte(k.tag)
	if bare {
		return nil
	}
	if k.tag == tagPtr {
		return e.encodeType(k.elem.t)
	}
	return e.encodeType(k.t)
}

// encAt writes the value of k's type at p, as enc does.
func (k *kernel) encAt(e *Encoder, p unsafe.Pointer, depth int, bare bool) error {
	if depth > maxEncodeDepth {
		return graph.ErrDepthExceeded
	}
	switch k.tag {
	case 0:
		return k.enc(e, reflect.NewAt(k.t, p).Elem(), depth, bare)
	case tagPtr, tagMap, tagSlice:
		// The first word of each is nil exactly when the reference is.
		q := *(*unsafe.Pointer)(p)
		switch {
		case q == nil:
			e.w.writeByte(tagNil)
			return nil
		case k.tag != tagPtr:
			return k.enc(e, k.ref(p), depth, bare)
		}
		// A pointer is interned from its slot, with no reflect.Value unless
		// its cell is new or a visit is not the first.
		if id, seen, err := e.internPtr(k, p); err != nil || seen {
			return e.refOr(id, err)
		}
		if err := k.head(e, bare); err != nil {
			return err
		}
		if k.elem.tag != tagStruct {
			return k.elem.encAt(e, q, depth+1, true)
		}
		// One step per node: the pointee's field program runs in this frame,
		// under the pointee's own depth check.
		if depth+1 > maxEncodeDepth {
			return graph.ErrDepthExceeded
		}
		k, p, depth, bare = k.elem, q, depth+1, true
	}
	if !bare {
		e.w.writeByte(k.tag)
		if err := e.encodeType(k.t); err != nil {
			return err
		}
	}
	switch k.tag {
	case tagArray:
		return k.encElems(e, p, k.t.Len(), depth)
	case tagScalar:
		k.encScalar(e, p)
		return nil
	}
	// All zero checks run before any field bytes, mirroring the generic
	// verifyZeroFields-then-encode order.
	for _, z := range k.zeros {
		if !reflect.NewAt(z.t, unsafe.Add(p, z.off)).Elem().IsZero() {
			return z.err
		}
	}
	for i := range k.fields {
		f := &k.fields[i]
		if err := f.k.encAt(e, unsafe.Add(p, f.off), depth+1, true); err != nil {
			return err
		}
	}
	return nil
}

// ref returns the pointer, map or slice at p as a reflect.Value of k.t by
// boxing it as the runtime would — a pointer or map in the data word, a slice
// as the address of its header — where reflect.NewAt would look up the type
// of a pointer to k.t.
func (k *kernel) ref(p unsafe.Pointer) reflect.Value {
	box := [2]unsafe.Pointer{k.rt, p}
	if k.direct {
		box[1] = *(*unsafe.Pointer)(p)
	}
	return reflect.ValueOf(*(*any)(unsafe.Pointer(&box)))
}

// encElems emits the n elements of a slice or array at p, itself at depth:
// what follows a slice's length word, or the whole of an array.
func (k *kernel) encElems(e *Encoder, p unsafe.Pointer, n, depth int) error {
	for i := 0; i < n; i++ {
		if err := k.elem.encAt(e, unsafe.Add(p, uintptr(i)*k.elem.size), depth+1, true); err != nil {
			return err
		}
	}
	return nil
}

// encMap emits the entry count and key/value pairs of map v — what follows
// its descriptor in its own encoding, and the whole of its content record.
func (k *kernel) encMap(e *Encoder, v reflect.Value, depth int) error {
	e.w.writeUint(uint64(v.Len()))
	// Canonical key order (mapkeys.go) — must match the generic encoder
	// byte for byte.
	kp := acquireSortedKeys(v)
	defer releaseKeys(kp)
	for _, key := range *kp {
		if err := k.key.enc(e, key, depth+1, true); err != nil {
			return err
		}
		if err := k.elem.enc(e, v.MapIndex(key), depth+1, true); err != nil {
			return err
		}
	}
	return nil
}

// encScalar writes the payload of the scalar of k's type at p, as
// Encoder.encodeScalarPayload does.
func (k *kernel) encScalar(e *Encoder, p unsafe.Pointer) {
	switch {
	case k.kind == reflect.String:
		e.encodeInternedString(*(*string)(p))
	case k.kind == reflect.Bool:
		b := byte(0)
		if *(*bool)(p) {
			b = 1
		}
		e.w.writeByte(b)
	case k.kind <= reflect.Int64:
		shift := 64 - 8*k.size
		e.w.writeInt(int64(loadBits(p, k.size)<<shift) >> shift)
	case k.kind <= reflect.Uint64:
		e.w.writeUint(loadBits(p, k.size))
	case k.kind <= reflect.Float64:
		e.w.writeFloat(loadFloat(p, k.size))
	default:
		half := k.size / 2 // a complex number's real part, then its imaginary
		e.w.writeFloat(loadFloat(p, half))
		e.w.writeFloat(loadFloat(unsafe.Add(p, half), half))
	}
}

// The decode direction mirrors it: a slot is read by the kernel of its own
// static type and written in place; only an interface slot holds a described
// value, built from its own descriptor and assigned under setDecoded.

// into decodes the next value of the stream into the slot of k's type at p.
func (k *kernel) into(d *Decoder, p unsafe.Pointer, depth int) error {
	if k.tag == 0 {
		v, err := d.decodeValue(depth)
		if err != nil {
			return err
		}
		return setDecoded(reflect.NewAt(k.t, p).Elem(), v)
	}
	if depth > maxDecodeDepth {
		return errDecodeDepth
	}
	if k.tag >= tagStruct {
		return k.body(d, p, depth)
	}
	tag, err := d.r.readByte()
	if err != nil {
		return err
	}
	var v reflect.Value
	switch {
	case tag == tagNil:
	case tag == tagRef:
		v, err = d.decodeRef()
	case tag != k.tag:
		err = fmt.Errorf("%w: value tag %d in a slot of type %s", ErrBadStream, tag, k.t)
	case tag == tagPtr:
		// One step per node: the pointee is allocated and entered in the
		// table, an inline one decoded by its own program in this frame, and
		// stored as it is: one word, whatever pointer type with element E
		// the slot has.
		switch v, err = d.newObject(k.elem); {
		case err != nil:
		case k.elem.tag < tagStruct:
			err = k.elem.into(d, v.UnsafePointer(), depth+1)
		case depth+1 > maxDecodeDepth:
			err = errDecodeDepth
		default:
			err = k.elem.body(d, v.UnsafePointer(), depth+1)
		}
		if err == nil {
			*(*unsafe.Pointer)(p) = v.UnsafePointer()
		}
		return err
	default:
		v, err = d.build(tag, k, depth)
	}
	if err != nil {
		return err
	}
	if k.tag == tagSlice || v.IsValid() && v.Type() != k.t {
		return setDecoded(reflect.NewAt(k.t, p).Elem(), v)
	}
	var q unsafe.Pointer // a pointer or map is one word
	if v.IsValid() {
		q = v.UnsafePointer()
	}
	*(*unsafe.Pointer)(p) = q
	return nil
}

// body decodes what follows the tag and descriptor of an inline value of
// k's type at p — struct fields, array elements, a scalar payload. An
// excluded field is never written.
func (k *kernel) body(d *Decoder, p unsafe.Pointer, depth int) error {
	switch k.tag {
	case tagStruct:
		for i := range k.fields {
			f := &k.fields[i]
			if err := f.k.into(d, unsafe.Add(p, f.off), depth+1); err != nil {
				return err
			}
		}
		return nil
	case tagArray:
		return k.fillElems(d, p, k.t.Len(), depth)
	}
	return k.scalarInto(d, p)
}

// fillElems decodes the n elements of the slice or array at p, itself at
// depth, in place: one deeper than their container, as encElems counts them.
func (k *kernel) fillElems(d *Decoder, p unsafe.Pointer, n, depth int) error {
	for i := 0; i < n; i++ {
		if err := k.elem.into(d, unsafe.Add(p, uintptr(i)*k.elem.size), depth+1); err != nil {
			return err
		}
	}
	return nil
}

// fillMap decodes n entries into map mv, itself at depth. SetMapIndex copies
// both cells, so one pair serves every entry; into overwrites whatever it is
// given.
func (k *kernel) fillMap(d *Decoder, mv reflect.Value, n, depth int) error {
	if n == 0 {
		return nil
	}
	key, val := reflect.New(k.key.t), reflect.New(k.elem.t)
	for i := 0; i < n; i++ {
		if err := k.key.into(d, key.UnsafePointer(), depth+1); err != nil {
			return err
		}
		if err := k.elem.into(d, val.UnsafePointer(), depth+1); err != nil {
			return err
		}
		if err := setEntry(mv, key.Elem(), val.Elem()); err != nil {
			return err
		}
	}
	return nil
}

// scalarInto reads a scalar payload into the scalar of k's type at p, with
// the refusals of Decoder.scalarPayloadInto.
func (k *kernel) scalarInto(d *Decoder, p unsafe.Pointer) error {
	shift, half := 64-8*k.size, k.size/2
	switch {
	case k.kind == reflect.String:
		s, err := d.decodeInternedString()
		if err != nil {
			return err
		}
		*(*string)(p) = s
	case k.kind == reflect.Bool:
		b, err := d.r.readByte()
		if err != nil {
			return err
		}
		*(*bool)(p) = b != 0
	case k.kind <= reflect.Int64:
		i, err := d.r.readInt()
		if err != nil {
			return err
		}
		if i<<shift>>shift != i {
			return fmt.Errorf("%w: %d overflows %s", ErrBadStream, i, k.t)
		}
		storeBits(p, k.size, uint64(i))
	case k.kind <= reflect.Uint64:
		u, err := d.r.readUint()
		if err != nil {
			return err
		}
		if u<<shift>>shift != u {
			return fmt.Errorf("%w: %d overflows %s", ErrBadStream, u, k.t)
		}
		storeBits(p, k.size, u)
	case k.kind <= reflect.Float64:
		f, err := d.r.readFloat()
		if err != nil {
			return err
		}
		if k.size == 4 && overflowsFloat32(f) {
			return fmt.Errorf("%w: %g overflows %s", ErrBadStream, f, k.t)
		}
		storeFloat(p, k.size, f)
	default:
		re, err := d.r.readFloat()
		if err != nil {
			return err
		}
		im, err := d.r.readFloat()
		if err != nil {
			return err
		}
		if half == 4 && (overflowsFloat32(re) || overflowsFloat32(im)) {
			return fmt.Errorf("%w: %g overflows %s", ErrBadStream, complex(re, im), k.t)
		}
		storeFloat(p, half, re)
		storeFloat(unsafe.Add(p, half), half, im)
	}
	return nil
}

// loadBits returns the size bytes of the integer at p, zero-extended;
// storeBits stores the low size bytes of x there.
func loadBits(p unsafe.Pointer, size uintptr) uint64 {
	switch size {
	case 1:
		return uint64(*(*uint8)(p))
	case 2:
		return uint64(*(*uint16)(p))
	case 4:
		return uint64(*(*uint32)(p))
	}
	return *(*uint64)(p)
}

func storeBits(p unsafe.Pointer, size uintptr, x uint64) {
	switch size {
	case 1:
		*(*uint8)(p) = uint8(x)
	case 2:
		*(*uint16)(p) = uint16(x)
	case 4:
		*(*uint32)(p) = uint32(x)
	default:
		*(*uint64)(p) = x
	}
}

// loadFloat and storeFloat move the float of size bytes at p.
func loadFloat(p unsafe.Pointer, size uintptr) float64 {
	if size == 4 {
		return float64(*(*float32)(p))
	}
	return *(*float64)(p)
}

func storeFloat(p unsafe.Pointer, size uintptr, f float64) {
	if size == 4 {
		*(*float32)(p) = float32(f)
	} else {
		*(*float64)(p) = f
	}
}

// overflowsFloat32 is reflect.Value.OverflowFloat for a float32: finite and
// out of range.
func overflowsFloat32(f float64) bool {
	f = math.Abs(f)
	return math.MaxFloat32 < f && f <= math.MaxFloat64
}
