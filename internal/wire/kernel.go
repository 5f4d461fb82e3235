package wire

import (
	"fmt"
	"reflect"
	"sync"

	"nrmi/internal/graph"
)

// This file extends the kernel compilation strategy of internal/graph to the
// codec: once per (reflect.Type, AccessMode) a closure-based encode program
// is compiled that emits exactly the bytes Encoder.encodeValue would emit,
// with the per-node kind switch, struct plan lookup, and field metadata
// derivation (reflect.Type.Field allocates a StructField per call) all
// resolved at compile time. The decode direction is tag-driven — the stream,
// not the static type, chooses each branch — so only the struct field loop
// (the one place the decoder follows a static schema) is compiled.
//
// Kernels implement the V2 wire format only and are engaged exactly when
// Options.DisableKernels is unset on a V2 codec with the plan cache enabled;
// every other configuration takes the generic reflective paths unchanged.
// The wire format is byte-for-byte identical either way — edge_test.go and
// the cross-engine tests exercise both sides of the switch against each
// other.

// encOp writes one value of the op's static type, tag included.
type encOp func(e *Encoder, v reflect.Value, depth int) error

// encKernel is the compiled encode program for one (type, mode) pair. Ops
// are invoked through the kernel pointer so recursive types resolve
// naturally: a child op compiled while its parent is in progress holds the
// parent's *encKernel, whose fields are assigned before publication.
type encKernel struct {
	t   reflect.Type
	enc encOp
	// encElems emits the bare contents record used by the seeded-content
	// protocol and by the kernel's own enc op: entry count plus key/value
	// pairs for maps, elements only for slices (the caller owns the length
	// word). Nil for kinds that have no contents form.
	encElems encOp
}

type encKernelKey struct {
	t    reflect.Type
	mode graph.AccessMode
}

// encKernelCache memoizes compiled encode kernels process-wide. Like
// planCache it is keyed by type and access mode only; see the planCache
// comment in plan.go for how these caches interact with the registry and
// RegisterStrict. Duplicate concurrent compiles are harmless: compilation
// is deterministic and the last store wins.
var encKernelCache sync.Map // encKernelKey -> *encKernel

// encKernelFor returns the compiled encode kernel for t under mode,
// compiling (and publishing) it on first use.
func encKernelFor(t reflect.Type, mode graph.AccessMode) *encKernel {
	key := encKernelKey{t: t, mode: mode}
	if k, ok := encKernelCache.Load(key); ok {
		return k.(*encKernel)
	}
	// Compile with a session-local table so recursive types terminate; the
	// whole session is published only once every kernel in it is complete.
	session := make(map[reflect.Type]*encKernel)
	k := compileEnc(t, mode, session)
	for st, sk := range session {
		encKernelCache.Store(encKernelKey{t: st, mode: mode}, sk)
	}
	return k
}

func compileEnc(t reflect.Type, mode graph.AccessMode, session map[reflect.Type]*encKernel) *encKernel {
	if k, ok := encKernelCache.Load(encKernelKey{t: t, mode: mode}); ok {
		return k.(*encKernel)
	}
	if k, ok := session[t]; ok {
		return k
	}
	k := &encKernel{t: t}
	session[t] = k

	switch t.Kind() {
	case reflect.Interface:
		compileEncInterface(k)
	case reflect.Ptr:
		compileEncPtr(k, t, mode, session)
	case reflect.Map:
		compileEncMap(k, t, mode, session)
	case reflect.Slice:
		compileEncSlice(k, t, mode, session)
	case reflect.Struct:
		compileEncStruct(k, t, mode, session)
	case reflect.Array:
		compileEncArray(k, t, mode, session)
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64,
		reflect.Complex64, reflect.Complex128,
		reflect.String:
		compileEncScalar(k, t)
	default:
		// chan, func, unsafe.Pointer, uintptr: fail at encode time with the
		// generic path's error, not at compile time — the type may be a
		// struct field that is legitimately skipped in AccessExported mode.
		err := fmt.Errorf("%w: %s", graph.ErrNotSerializable, t)
		k.enc = func(e *Encoder, v reflect.Value, depth int) error {
			if depth > maxEncodeDepth {
				return graph.ErrDepthExceeded
			}
			return err
		}
	}
	return k
}

// registerObj assigns the next object ID to v's identity and records the
// (detached) reference in the linear map.
func (e *Encoder) registerObj(ident graph.Ident, v reflect.Value) {
	e.ids[ident] = len(e.objs)
	e.appendObj(v)
}

// appendObj grows the object table by one detached reference cell. On a
// pooled encoder the cells zeroed by ReleaseEncoder are reused when the
// type matches, so the steady-state table costs no allocations.
func (e *Encoder) appendObj(ref reflect.Value) {
	id := len(e.objs)
	if cap(e.objs) > id {
		e.objs = e.objs[:id+1]
		if old := e.objs[id]; old.IsValid() && old.Type() == ref.Type() && old.CanSet() {
			old.Set(ref)
			return
		}
		e.objs[id] = graph.StableRef(ref)
		return
	}
	e.objs = append(e.objs, graph.StableRef(ref))
}

func compileEncInterface(k *encKernel) {
	k.enc = func(e *Encoder, v reflect.Value, depth int) error {
		if depth > maxEncodeDepth {
			return graph.ErrDepthExceeded
		}
		if v.IsNil() {
			return e.w.writeByte(tagNil)
		}
		// The dynamic type is only known at run time: one cache load here,
		// then straight-line code below it.
		elem := v.Elem()
		return encKernelFor(elem.Type(), e.opts.Access).enc(e, elem, depth+1)
	}
}

func compileEncPtr(k *encKernel, t reflect.Type, mode graph.AccessMode, session map[reflect.Type]*encKernel) {
	elemK := compileEnc(t.Elem(), mode, session)
	elemT := t.Elem()
	k.enc = func(e *Encoder, v reflect.Value, depth int) error {
		if depth > maxEncodeDepth {
			return graph.ErrDepthExceeded
		}
		if v.IsNil() {
			return e.w.writeByte(tagNil)
		}
		ident, _ := graph.IdentOf(v)
		if id, ok := e.ids[ident]; ok {
			return e.writeRef(id)
		}
		e.registerObj(ident, v)
		if err := e.w.writeByte(tagPtr); err != nil {
			return err
		}
		if err := e.encodeType(elemT); err != nil {
			return err
		}
		return elemK.enc(e, v.Elem(), depth+1)
	}
}

func compileEncMap(k *encKernel, t reflect.Type, mode graph.AccessMode, session map[reflect.Type]*encKernel) {
	keyK := compileEnc(t.Key(), mode, session)
	elemK := compileEnc(t.Elem(), mode, session)
	k.encElems = func(e *Encoder, v reflect.Value, depth int) error {
		if err := e.w.writeUint(uint64(v.Len())); err != nil {
			return err
		}
		// Canonical key order (mapkeys.go) — must match the generic
		// encoder byte for byte.
		kp := acquireSortedKeys(v)
		defer releaseKeys(kp)
		for _, key := range *kp {
			if err := keyK.enc(e, key, depth+1); err != nil {
				return err
			}
			if err := elemK.enc(e, v.MapIndex(key), depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	k.enc = func(e *Encoder, v reflect.Value, depth int) error {
		if depth > maxEncodeDepth {
			return graph.ErrDepthExceeded
		}
		if v.IsNil() {
			return e.w.writeByte(tagNil)
		}
		ident, _ := graph.IdentOf(v)
		if id, ok := e.ids[ident]; ok {
			return e.writeRef(id)
		}
		e.registerObj(ident, v)
		if err := e.w.writeByte(tagMap); err != nil {
			return err
		}
		if err := e.encodeType(t); err != nil {
			return err
		}
		return k.encElems(e, v, depth)
	}
}

func compileEncSlice(k *encKernel, t reflect.Type, mode graph.AccessMode, session map[reflect.Type]*encKernel) {
	k.encElems = compileEncSliceElems(t, mode, session)
	k.enc = func(e *Encoder, v reflect.Value, depth int) error {
		if depth > maxEncodeDepth {
			return graph.ErrDepthExceeded
		}
		if v.IsNil() {
			return e.w.writeByte(tagNil)
		}
		ident, _ := graph.IdentOf(v)
		if id, ok := e.ids[ident]; ok {
			prev := e.objs[id]
			if prev.Kind() == reflect.Slice && prev.Len() != v.Len() {
				return fmt.Errorf("%w: lengths %d and %d share storage",
					graph.ErrSliceOverlap, prev.Len(), v.Len())
			}
			return e.writeRef(id)
		}
		e.registerObj(ident, v)
		if err := e.w.writeByte(tagSlice); err != nil {
			return err
		}
		if err := e.encodeType(t); err != nil {
			return err
		}
		if err := e.w.writeUint(uint64(v.Len())); err != nil {
			return err
		}
		return k.encElems(e, v, depth)
	}
}

// compileEncSliceElems builds the element-loop op, specializing leaf
// element types: for scalar elements the tag byte, type descriptor, and
// payload writer are hoisted out of the per-element work, and []byte gets a
// direct bytes loop with no reflect.Value.Index calls at all. The emitted
// bytes are identical to the generic loop's.
func compileEncSliceElems(t reflect.Type, mode graph.AccessMode, session map[reflect.Type]*encKernel) encOp {
	et := t.Elem()
	if et.Kind() == reflect.Uint8 {
		return func(e *Encoder, v reflect.Value, depth int) error {
			if v.Len() > 0 && depth+1 > maxEncodeDepth {
				return graph.ErrDepthExceeded
			}
			for _, b := range v.Bytes() {
				if err := e.w.writeByte(tagScalar); err != nil {
					return err
				}
				if err := e.encodeType(et); err != nil {
					return err
				}
				if err := e.w.writeUint(uint64(b)); err != nil {
					return err
				}
			}
			return nil
		}
	}
	if isScalarKind(et.Kind()) {
		payload := scalarPayloadOp(et.Kind())
		return func(e *Encoder, v reflect.Value, depth int) error {
			if v.Len() > 0 && depth+1 > maxEncodeDepth {
				return graph.ErrDepthExceeded
			}
			for i, n := 0, v.Len(); i < n; i++ {
				if err := e.w.writeByte(tagScalar); err != nil {
					return err
				}
				if err := e.encodeType(et); err != nil {
					return err
				}
				if err := payload(e, v.Index(i)); err != nil {
					return err
				}
			}
			return nil
		}
	}
	elemK := compileEnc(et, mode, session)
	return func(e *Encoder, v reflect.Value, depth int) error {
		for i, n := 0, v.Len(); i < n; i++ {
			if err := elemK.enc(e, v.Index(i), depth+1); err != nil {
				return err
			}
		}
		return nil
	}
}

// encZeroCheck is one excluded unexported field whose zero-ness is enforced
// before any field is emitted (the no-silent-loss rule), with the error
// precomputed.
type encZeroCheck struct {
	index int
	err   error
}

// encField is one compiled struct field program.
type encField struct {
	index   int
	k       *encKernel
	launder bool // unexported field under AccessUnsafe
}

func compileEncStruct(k *encKernel, t reflect.Type, mode graph.AccessMode, session map[reflect.Type]*encKernel) {
	var zeroChecks []encZeroCheck
	fields := make([]encField, 0, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		if !sf.IsExported() && mode == graph.AccessExported {
			zeroChecks = append(zeroChecks, encZeroCheck{
				index: i,
				err:   fmt.Errorf("%w: field %s.%s", graph.ErrUnexportedField, t, sf.Name),
			})
			continue
		}
		fields = append(fields, encField{
			index:   i,
			k:       compileEnc(sf.Type, mode, session),
			launder: !sf.IsExported(),
		})
	}
	k.enc = func(e *Encoder, v reflect.Value, depth int) error {
		if depth > maxEncodeDepth {
			return graph.ErrDepthExceeded
		}
		if err := e.w.writeByte(tagStruct); err != nil {
			return err
		}
		if err := e.encodeType(t); err != nil {
			return err
		}
		sv := graph.Launder(v)
		// All zero checks run before any field bytes, mirroring the generic
		// verifyZeroFields-then-encode order.
		for i := range zeroChecks {
			if !sv.Field(zeroChecks[i].index).IsZero() {
				return zeroChecks[i].err
			}
		}
		for i := range fields {
			f := &fields[i]
			fv := sv.Field(f.index)
			if f.launder {
				fv = graph.Launder(fv)
			}
			if err := f.k.enc(e, fv, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
}

func compileEncArray(k *encKernel, t reflect.Type, mode graph.AccessMode, session map[reflect.Type]*encKernel) {
	elemK := compileEnc(t.Elem(), mode, session)
	n := t.Len()
	k.enc = func(e *Encoder, v reflect.Value, depth int) error {
		if depth > maxEncodeDepth {
			return graph.ErrDepthExceeded
		}
		if err := e.w.writeByte(tagArray); err != nil {
			return err
		}
		if err := e.encodeType(t); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if err := elemK.enc(e, v.Index(i), depth+1); err != nil {
				return err
			}
		}
		return nil
	}
}

func compileEncScalar(k *encKernel, t reflect.Type) {
	payload := scalarPayloadOp(t.Kind())
	k.enc = func(e *Encoder, v reflect.Value, depth int) error {
		if depth > maxEncodeDepth {
			return graph.ErrDepthExceeded
		}
		if err := e.w.writeByte(tagScalar); err != nil {
			return err
		}
		if err := e.encodeType(t); err != nil {
			return err
		}
		return payload(e, v)
	}
}

func isScalarKind(kind reflect.Kind) bool {
	switch kind {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64,
		reflect.Complex64, reflect.Complex128,
		reflect.String:
		return true
	default:
		return false
	}
}

// scalarPayloadOp resolves the encodeScalarPayload kind switch once at
// compile time.
func scalarPayloadOp(kind reflect.Kind) func(e *Encoder, v reflect.Value) error {
	switch kind {
	case reflect.Bool:
		return func(e *Encoder, v reflect.Value) error {
			b := byte(0)
			if v.Bool() {
				b = 1
			}
			return e.w.writeByte(b)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return func(e *Encoder, v reflect.Value) error { return e.w.writeInt(v.Int()) }
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return func(e *Encoder, v reflect.Value) error { return e.w.writeUint(v.Uint()) }
	case reflect.Float32, reflect.Float64:
		return func(e *Encoder, v reflect.Value) error { return e.w.writeFloat(v.Float()) }
	case reflect.Complex64, reflect.Complex128:
		return func(e *Encoder, v reflect.Value) error {
			c := v.Complex()
			if err := e.w.writeFloat(real(c)); err != nil {
				return err
			}
			return e.w.writeFloat(imag(c))
		}
	case reflect.String:
		return func(e *Encoder, v reflect.Value) error { return e.encodeInternedString(v.String()) }
	default:
		panic(fmt.Sprintf("wire: scalarPayloadOp on %s", kind))
	}
}

// decField is one compiled struct field slot for the V2 positional decode
// loop: the plan's field order with the fieldForWrite accessor decision
// (direct vs. laundered) resolved at compile time.
type decField struct {
	index   int
	launder bool
}

// decStructKernel is the compiled decode program for one struct type. Only
// the field loop is compilable: everything else in the decoder is chosen by
// stream tags, not static types.
type decStructKernel struct {
	fields []decField
}

var decKernelCache sync.Map // encKernelKey -> *decStructKernel

func decKernelFor(t reflect.Type, mode graph.AccessMode) *decStructKernel {
	key := encKernelKey{t: t, mode: mode}
	if k, ok := decKernelCache.Load(key); ok {
		return k.(*decStructKernel)
	}
	p := planFor(t, mode, true)
	k := &decStructKernel{fields: make([]decField, 0, len(p.fields))}
	for _, pf := range p.fields {
		k.fields = append(k.fields, decField{
			index:   pf.index,
			launder: !t.Field(pf.index).IsExported(),
		})
	}
	decKernelCache.Store(key, k)
	return k
}
