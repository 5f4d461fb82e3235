package wire

import (
	"fmt"
	"reflect"
	"sync"

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
// other configuration codes by the generic reflective paths (V3 borrows the
// struct field programs, and Decoder.shell a type's tag and min). The wire
// format is byte-for-byte identical either way — edge_test.go and the
// cross-engine tests exercise both sides of the switch against each other.

// kernel is the compiled codec program for one (type, mode) pair. Kernels
// refer to each other by pointer so recursive types resolve naturally: a
// child compiled while its parent is in progress holds the parent's
// *kernel, whose fields are assigned before publication. There is exactly
// one kernel per pair, so comparing kernels compares types.
type kernel struct {
	t reflect.Type
	// tag is the value tag t travels under (tagPtr … tagScalar), or 0 for
	// kinds with none of their own (interfaces, unserializable kinds).
	tag byte
	// min is a lower bound on the bytes of a slot of type t in any engine's
	// stream, which reader.admit holds a count against: 1 for a pointer, map,
	// slice or interface (nil) and for a scalar (a varint, a string reference),
	// the sum of its parts for a struct or array: 0 if it has no encoded part.
	min int
	// fields is the struct field program, in plan order, shared by both
	// directions and by engine V3's fill and check passes; zeros lists the
	// excluded unexported fields the encoder must find zero.
	fields []kernelField
	zeros  []kernelZero
	// elem is the pointee, element or map-value kernel; key the map key's.
	elem, key *kernel
	// cells is []elem for pointer and slice kernels: the type of a staging
	// or shadow slab.
	cells reflect.Type
	// exact says equal bytes and the same state (kernel.same) coincide: t
	// holds no string or interface inline. direct says an interface holds a
	// t in its data word rather than a pointer to a copy (the runtime's
	// rule). Both cover every field on AccessUnsafe kernels only.
	exact, direct bool
	// err is what encoding a chan, func, unsafe.Pointer or uintptr reports
	// — at encode time, not at compile time: the type may be a struct
	// field that is legitimately skipped in AccessExported mode.
	err error
}

// kernelField is one compiled struct field: the plan's field order with the
// accessor decision (direct vs. laundered) resolved at compile time.
type kernelField struct {
	index   int
	k       *kernel
	launder bool // unexported field under AccessUnsafe
	off     uintptr
}

// kernelZero is one excluded unexported field whose zero-ness is enforced
// before any field is emitted (the no-silent-loss rule), with the error
// precomputed.
type kernelZero struct {
	index int
	err   error
}

type kernelKey struct {
	t    reflect.Type
	mode graph.AccessMode
}

// kernelCache memoizes compiled kernels process-wide. Like planCache it is
// keyed by type and access mode only; see the planCache comment in plan.go
// for how these caches interact with the registry and RegisterStrict.
// Compilation is serialized by kernelMu.
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
	k := &kernel{t: t}
	session[t] = k

	k.min = 1
	k.exact = t.Kind() != reflect.String && t.Kind() != reflect.Interface
	switch t.Kind() {
	case reflect.Ptr, reflect.Map, reflect.Chan, reflect.Func, reflect.UnsafePointer:
		k.direct = true
	}
	switch k.tag = tagOf(t.Kind()); k.tag {
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
			if !sf.IsExported() && mode == graph.AccessExported {
				k.zeros = append(k.zeros, kernelZero{i,
					fmt.Errorf("%w: field %s.%s", graph.ErrUnexportedField, t, sf.Name)})
				continue
			}
			fk := compileKernel(sf.Type, mode, session)
			k.fields = append(k.fields, kernelField{i, fk, !sf.IsExported(), sf.Offset})
			k.min += fk.min
			k.exact = k.exact && fk.exact
		}
		k.direct = t.NumField() == 1 && len(k.fields) == 1 && k.fields[0].k.direct
	case 0:
		if t.Kind() != reflect.Interface {
			k.err = fmt.Errorf("%w: %s", graph.ErrNotSerializable, t)
		}
	}
	return k
}

// enc writes one value of k's type: described — tag, descriptor, contents —
// or, bare, as the occupant of a slot of type k.t. Every slot below a value
// is bare; an interface slot's value describes itself either way.
func (k *kernel) enc(e *Encoder, v reflect.Value, depth int, bare bool) error {
	if depth > maxEncodeDepth {
		return graph.ErrDepthExceeded
	}
	switch k.tag {
	case 0:
		if k.err != nil {
			return k.err
		}
		if v.IsNil() {
			return e.w.writeByte(tagNil)
		}
		// An interface: the dynamic type is only known at run time.
		elem := v.Elem()
		return e.memo.of(elem.Type(), e.opts.Access).enc(e, elem, depth+1, false)
	case tagPtr, tagMap, tagSlice:
		if v.IsNil() {
			return e.w.writeByte(tagNil)
		}
		id, seen, err := e.intern(v)
		if err != nil {
			return err
		}
		if seen {
			return e.writeRef(id)
		}
		if err := e.w.writeByte(k.tag); err != nil {
			return err
		}
	default:
		if !bare {
			if err := e.w.writeByte(k.tag); err != nil {
				return err
			}
		}
	}
	if !bare {
		// A pointer's descriptor is its pointee's.
		desc := k
		if k.tag == tagPtr {
			desc = k.elem
		}
		if err := e.encodeType(desc.t); err != nil {
			return err
		}
	}
	return k.contents(e, v, depth)
}

// contents writes what follows the tag and descriptor of a non-nil value of
// k's type on its first visit, itself at depth.
func (k *kernel) contents(e *Encoder, v reflect.Value, depth int) error {
	switch k.tag {
	case tagPtr:
		return k.elem.enc(e, v.Elem(), depth+1, true)
	case tagSlice:
		if err := e.w.writeUint(uint64(v.Len())); err != nil {
			return err
		}
		return k.encElems(e, v, depth)
	case tagMap, tagArray:
		return k.encElems(e, v, depth)
	case tagScalar:
		return e.encodeScalarPayload(v)
	}
	sv := graph.Launder(v)
	// All zero checks run before any field bytes, mirroring the generic
	// verifyZeroFields-then-encode order.
	for i := range k.zeros {
		if !sv.Field(k.zeros[i].index).IsZero() {
			return k.zeros[i].err
		}
	}
	for i := range k.fields {
		f := &k.fields[i]
		fv := sv.Field(f.index)
		if f.launder {
			fv = graph.Launder(fv)
		}
		if err := f.k.enc(e, fv, depth+1, true); err != nil {
			return err
		}
	}
	return nil
}

// encElems emits the bare contents of a map, slice or array — what follows
// the descriptor in the value's own encoding, and the whole of its record
// in the seeded-content protocol: entry count plus key/value pairs for
// maps, elements only otherwise (the caller owns a slice's length word).
func (k *kernel) encElems(e *Encoder, v reflect.Value, depth int) error {
	if k.tag != tagMap {
		for i, n := 0, v.Len(); i < n; i++ {
			if err := k.elem.enc(e, v.Index(i), depth+1, true); err != nil {
				return err
			}
		}
		return nil
	}
	if err := e.w.writeUint(uint64(v.Len())); err != nil {
		return err
	}
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

// The decode direction mirrors it: a slot is read by the kernel of its own
// static type and written in place; only an interface slot holds a described
// value, built from its own descriptor and assigned under setDecoded.

// into decodes the next value of the stream into dst, a slot of k's type.
func (k *kernel) into(d *Decoder, dst reflect.Value, depth int) error {
	if k.tag == 0 {
		v, err := d.decodeValue(depth)
		if err != nil {
			return err
		}
		return setDecoded(dst, v)
	}
	if depth > maxDecodeDepth {
		return errDecodeDepth
	}
	if k.tag >= tagStruct {
		return k.body(d, dst, depth)
	}
	tag, err := d.r.readByte()
	if err != nil {
		return err
	}
	var v reflect.Value
	switch {
	case tag == tagNil:
		dst.SetZero()
		return nil
	case tag == tagRef:
		v, err = d.decodeRef()
	case tag != k.tag:
		err = fmt.Errorf("%w: value tag %d in a slot of type %s", ErrBadStream, tag, k.t)
	case tag == tagPtr:
		v, err = d.build(tag, k.elem, depth)
	default:
		v, err = d.build(tag, k, depth)
	}
	if err != nil {
		return err
	}
	if v.Type() == k.t {
		dst.Set(v)
		return nil
	}
	return setDecoded(dst, v)
}

// body decodes what follows the tag and descriptor of an inline value of
// k's type — struct fields, array elements, a scalar payload — into dst.
func (k *kernel) body(d *Decoder, dst reflect.Value, depth int) error {
	switch k.tag {
	case tagStruct:
		for i := range k.fields {
			f := &k.fields[i]
			fv := dst.Field(f.index)
			if f.launder {
				fv = graph.Launder(fv)
			}
			if err := f.k.into(d, fv, depth+1); err != nil {
				return err
			}
		}
		return nil
	case tagArray:
		return k.fillElems(d, dst, depth)
	default:
		return d.scalarPayloadInto(dst)
	}
}

// fillElems decodes the elements of slice or array v, itself at depth, in
// place: one deeper than their container, as encElems counts them.
func (k *kernel) fillElems(d *Decoder, v reflect.Value, depth int) error {
	for i, n := 0, v.Len(); i < n; i++ {
		if err := k.elem.into(d, v.Index(i), depth+1); err != nil {
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
	key := reflect.New(k.key.t).Elem()
	val := reflect.New(k.elem.t).Elem()
	for i := 0; i < n; i++ {
		if err := k.key.into(d, key, depth+1); err != nil {
			return err
		}
		if err := k.elem.into(d, val, depth+1); err != nil {
			return err
		}
		if err := setEntry(mv, key, val); err != nil {
			return err
		}
	}
	return nil
}
