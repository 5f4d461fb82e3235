package wire

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"unsafe"

	"nrmi/internal/graph"
)

// This file is the codec: the one place the runtime codes a value (paper
// Section 5.3.1, "caching reflection information aggressively"). Once per
// (reflect.Type, AccessMode) a kernel is compiled that holds what both
// directions need to know about the type — the value tag it travels under,
// its struct field program, its element and key kernels — with the per-node
// kind switch and field metadata resolved at compile time. kernel.enc and
// kernel.encAt are the encode direction, kernel.into and kernel.body the
// decode direction. Kernels are looked up only where a value is described —
// roots, seeded objects, interface slots; a slot below is coded by the kernel
// its container's kernel points at.
//
// Every configuration runs them. The format is a mode: under V2 a
// statically typed slot travels bare; under V1 (Encoder.bare and
// Decoder.bare unset) every slot is described and a struct carries its field
// count and names, resolved by name on decode. So is the portable baseline:
// an uncached codec (V1, or Options.DisablePlanCache) compiles each struct
// value's kernel afresh (freshKernel) where a cached one takes it from
// kernelCache. The generic reflective codec the kernels are held to, byte for
// byte and graph for graph, lives in oracle_test.go.

// kernel is the compiled codec program for one (type, mode) pair. Kernels
// refer to each other by pointer so recursive types resolve naturally: a
// child compiled while its parent is in progress holds the parent's
// *kernel, whose fields are assigned before publication. There is exactly
// one cached kernel per pair, so comparing cached kernels compares types.
type kernel struct {
	t    reflect.Type
	kind reflect.Kind // t's kind and size, read per scalar and element
	size uintptr
	// tag is the value tag t travels under (tagPtr … tagScalar), or 0 for
	// kinds with none (interfaces, unserializable kinds); op is its slot op.
	tag, op byte
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

// kernelField is one compiled struct field: its kernel, offset and name,
// which a V1 stream spells.
type kernelField struct {
	k    *kernel
	off  uintptr
	name string
}

// kernelZero is one excluded unexported field whose zero-ness is enforced
// before any field is emitted (the no-silent-loss rule), with the error
// precomputed.
type kernelZero struct {
	off uintptr
	t   reflect.Type
	err error
}

// The slot ops, which only cached kernels have: a bare struct's field loop
// codes a signed integer (one zigzag varint), or a pointer to a struct, itself.
const opInt, opStructPtr = 1, 2

// kernelCache holds the compiled kernels process-wide, one table per access
// mode keyed by type identity (typeID). A kernel describes a type's
// structure, which is immutable, so registering a type after its kernel was
// compiled needs no invalidation, and a forbidden kind fails when a value of
// it is coded, not here. An insert copies nothing, so the types a peer mints
// ([n]T for each n it sends) cost what they number. Compilation is
// serialized by kernelMu.
var (
	kernelCache [graph.AccessUnsafe + 1]sync.Map // typeID -> *kernel
	kernelMu    sync.Mutex
)

// typeID is t's identity: the *rtype word of its reflect.Type, which is also
// its type word in an interface.
func typeID(t reflect.Type) unsafe.Pointer {
	return (*[2]unsafe.Pointer)(unsafe.Pointer(&t))[1]
}

// kernelFor returns the compiled kernel for t under mode, compiling (and
// publishing) it on first use.
func kernelFor(t reflect.Type, mode graph.AccessMode) *kernel {
	if k, ok := kernelCache[mode].Load(typeID(t)); ok {
		return k.(*kernel)
	}
	kernelMu.Lock()
	defer kernelMu.Unlock()
	// Compile with a session-local table so recursive types terminate; the
	// whole session is published only once every kernel in it is complete.
	session := make(map[reflect.Type]*kernel)
	k := compileKernel(t, mode, session, true)
	for st, sk := range session {
		kernelCache[mode].Store(typeID(st), sk)
	}
	return k
}

// freshKernel compiles t's kernel under mode, and every kernel it reaches,
// from raw reflection, and publishes none of them: what an uncached codec
// pays for each struct value — the paper's "Java reflection is a very slow
// way to examine unknown objects" (Section 5.3.1).
func freshKernel(t reflect.Type, mode graph.AccessMode) *kernel {
	return compileKernel(t, mode, make(map[reflect.Type]*kernel), false)
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

// compileKernel compiles t's kernel into session, reusing what kernelCache
// holds when cached is set.
func compileKernel(t reflect.Type, mode graph.AccessMode, session map[reflect.Type]*kernel, cached bool) *kernel {
	if cached {
		if k, ok := kernelCache[mode].Load(typeID(t)); ok {
			return k.(*kernel)
		}
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
	k.tag = tagOf(k.kind)
	switch k.tag {
	case tagPtr:
		k.elem = compileKernel(t.Elem(), mode, session, cached)
		k.cells = reflect.SliceOf(t.Elem())
	case tagMap:
		k.key = compileKernel(t.Key(), mode, session, cached)
		k.elem = compileKernel(t.Elem(), mode, session, cached)
	case tagSlice:
		k.elem = compileKernel(t.Elem(), mode, session, cached)
		k.cells = t
	case tagArray: // an inline part is compiled before its container
		k.elem = compileKernel(t.Elem(), mode, session, cached)
		k.min = t.Len() * k.elem.min
		k.exact = k.elem.exact
		k.direct = t.Len() == 1 && k.elem.direct
	case tagStruct:
		k.min = 0
		k.fields = make([]kernelField, 0, t.NumField())
		for i := 0; i < t.NumField(); i++ {
			sf := t.Field(i)
			fk := compileKernel(sf.Type, mode, session, cached)
			k.direct = t.NumField() == 1 && fk.direct
			if excluded(sf, mode) {
				k.zeros = append(k.zeros, kernelZero{sf.Offset, sf.Type,
					fmt.Errorf("%w: field %s.%s", graph.ErrUnexportedField, t, sf.Name)})
				continue
			}
			k.fields = append(k.fields, kernelField{fk, sf.Offset, sf.Name})
			k.min += fk.min
			k.exact = k.exact && fk.exact
		}
	case 0:
		if k.kind != reflect.Interface {
			k.err = fmt.Errorf("%w: %s", graph.ErrNotSerializable, t)
		}
	}
	if cached && k.kind >= reflect.Int && k.kind <= reflect.Int64 {
		k.op = opInt
	} else if cached && k.tag == tagPtr && k.elem.tag == tagStruct {
		k.op = opStructPtr
	}
	return k
}

// parts yields the kernels of what travels inside a value of k's type, each
// with the path step that reaches it: a pointee, slice or array element
// (""), a map's "[key]" and "[value]", and each struct field of the program
// ("."+name). The layout fingerprint and Registry.CheckType read a type's
// structure through it.
func (k *kernel) parts(yield func(string, *kernel) bool) {
	switch k.tag {
	case tagPtr, tagSlice, tagArray:
		yield("", k.elem)
	case tagMap:
		_ = yield("[key]", k.key) && yield("[value]", k.elem)
	case tagStruct:
		for _, f := range k.fields {
			if !yield("."+f.name, f.k) {
				return
			}
		}
	}
}

// excluded says field sf has no place in the stream under mode: an
// unexported field under AccessExported, which must be zero instead.
func excluded(sf reflect.StructField, mode graph.AccessMode) bool {
	return !sf.IsExported() && mode == graph.AccessExported
}

// Both directions reach a field, element or pointee by address and move it
// with a load or store of its own Go type (paper Section 5.3.1, the Unsafe
// half): every store is typed, so the write barrier sees each pointer, and no
// memory that holds pointers is copied untyped.

// enc writes v, a value of k's type held as a reflect.Value — a root, a map
// key or value, the dynamic value of an interface, a reference for the object
// table: described — tag, descriptor, contents — or, bare, as the occupant of
// a slot of type k.t. Every slot below a value is bare under V2 (Encoder.bare)
// and described under V1; an interface slot's value describes itself either
// way.
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
		return k.elem.encAt(e, v.UnsafePointer(), depth+1, e.bare)
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
			return k.elem.encAt(e, q, depth+1, e.bare)
		}
		// One step per node: the pointee's field program runs in this frame,
		// under the pointee's own depth check.
		if depth+1 > maxEncodeDepth {
			return graph.ErrDepthExceeded
		}
		k, p, depth, bare = k.elem, q, depth+1, e.bare
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
	if !e.cached {
		k = freshKernel(k.t, e.opts.Access)
	}
	// All zero checks run before any field bytes.
	for _, z := range k.zeros {
		if !reflect.NewAt(z.t, unsafe.Add(p, z.off)).Elem().IsZero() {
			return z.err
		}
	}
	if !e.bare {
		e.w.writeUint(uint64(len(k.fields)))
	}
	if len(k.fields) > 0 && depth+1 > maxEncodeDepth {
		return graph.ErrDepthExceeded // each field's own check, hoisted
	}
	for i := range k.fields {
		f := &k.fields[i]
		q := unsafe.Add(p, f.off)
		switch {
		case f.k.op == opInt:
			shift := 64 - 8*f.k.size
			v := int64(loadBits(q, f.k.size)<<shift) >> shift
			e.w.writeUint(uint64(v)<<1 ^ uint64(v>>63))
			continue
		case f.k.op == opStructPtr && *(*unsafe.Pointer)(q) == nil:
			e.w.writeByte(tagNil)
			continue
		case f.k.op == opStructPtr:
			// encAt's pointer step, entering the pointee's program directly.
			id, seen, err := e.internPtr(f.k, q)
			if err == nil && !seen {
				e.w.writeByte(tagPtr)
				err = f.k.elem.encAt(e, *(*unsafe.Pointer)(q), depth+2, true)
			} else {
				err = e.refOr(id, err)
			}
			if err != nil {
				return err
			}
			continue
		}
		if !e.bare {
			e.w.writeString(f.name)
		}
		if err := f.k.encAt(e, q, depth+1, e.bare); err != nil {
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
	box := [2]unsafe.Pointer{typeID(k.t), p}
	if k.direct {
		box[1] = *(*unsafe.Pointer)(p)
	}
	return reflect.ValueOf(*(*any)(unsafe.Pointer(&box)))
}

// encElems emits the n elements of a slice or array at p, itself at depth:
// what follows a slice's length word, or the whole of an array.
func (k *kernel) encElems(e *Encoder, p unsafe.Pointer, n, depth int) error {
	for i := 0; i < n; i++ {
		if err := k.elem.encAt(e, unsafe.Add(p, uintptr(i)*k.elem.size), depth+1, e.bare); err != nil {
			return err
		}
	}
	return nil
}

// encMap emits the entry count and key/value pairs of map v — what follows
// its descriptor in its own encoding, and the whole of its content record.
func (k *kernel) encMap(e *Encoder, v reflect.Value, depth int) error {
	e.w.writeUint(uint64(v.Len()))
	// Canonical key order (mapkeys.go): equal maps, equal bytes.
	kp := acquireSortedKeys(v)
	defer releaseKeys(kp)
	for _, key := range *kp {
		if err := k.key.enc(e, key, depth+1, e.bare); err != nil {
			return err
		}
		if err := k.elem.enc(e, v.MapIndex(key), depth+1, e.bare); err != nil {
			return err
		}
	}
	return nil
}

// encScalar writes the payload of the scalar of k's type at p.
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
// static type and written in place; only an interface slot, or any slot of a
// V1 stream, holds a described value, built from its own descriptor and
// assigned under setDecoded.

// into decodes the next value of the stream into the slot of k's type at p.
func (k *kernel) into(d *Decoder, p unsafe.Pointer, depth int) error {
	if k.tag == 0 || !d.bare {
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
		if !d.cached {
			k = freshKernel(k.t, d.access)
		}
		if !d.bare {
			return k.fieldsByName(d, p, depth)
		}
		if len(k.fields) > 0 && depth+1 > maxDecodeDepth {
			return errDecodeDepth // each field's own check, hoisted
		}
		for i := range k.fields {
			f := &k.fields[i]
			q := unsafe.Add(p, f.off)
			switch r := d.r; {
			case f.k.op == opInt:
				u, err := uint64(0), error(nil)
				if r.dpos < len(r.data) && r.data[r.dpos] < 0x80 {
					u = uint64(r.data[r.dpos])
					r.dpos++
				} else if u, err = r.readUintSlow(); err != nil {
					return err
				}
				n := int64(u>>1) ^ -int64(u&1)
				if shift := 64 - 8*f.k.size; n<<shift>>shift != n {
					return fmt.Errorf("%w: %d overflows %s", ErrBadStream, n, f.k.t)
				}
				storeBits(q, f.k.size, uint64(n))
				continue
			case f.k.op != opStructPtr || r.dpos == len(r.data):
			case r.data[r.dpos] == tagNil:
				r.dpos++
				*(*unsafe.Pointer)(q) = nil
				continue
			case r.data[r.dpos] == tagPtr:
				// into's pointer step, in this frame; into takes the rest.
				r.dpos++
				v, err := d.newObject(f.k.elem)
				if err == nil && depth+2 > maxDecodeDepth {
					err = errDecodeDepth
				} else if err == nil {
					err = f.k.elem.body(d, v.UnsafePointer(), depth+2)
				}
				if err != nil {
					return err
				}
				*(*unsafe.Pointer)(q) = v.UnsafePointer()
				continue
			}
			if err := f.k.into(d, q, depth+1); err != nil {
				return err
			}
		}
		return nil
	case tagArray:
		return k.fillElems(d, p, k.t.Len(), depth)
	}
	return k.scalarInto(d, p)
}

// fieldsByName decodes a V1 struct body into the struct of k's type at p: a
// field count, then each field's name and described value. A field is found
// by its name, wherever the sender's declaration put it.
func (k *kernel) fieldsByName(d *Decoder, p unsafe.Pointer, depth int) error {
	n, err := d.r.readLen()
	if err != nil {
		return err
	}
	for ; n > 0; n-- {
		name, err := d.r.readBytes()
		if err != nil {
			return err
		}
		i := 0
		for i < len(k.fields) && k.fields[i].name != string(name) {
			i++
		}
		if i == len(k.fields) {
			return fmt.Errorf("%w: type %s has no field %q", ErrBadStream, k.t, name)
		}
		if err := k.fields[i].k.into(d, unsafe.Add(p, k.fields[i].off), depth+1); err != nil {
			return err
		}
	}
	return nil
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

// scalarInto reads a scalar payload into the scalar of k's type at p,
// refusing one the type cannot hold.
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
