package wire

import (
	"fmt"
	"io"
	"reflect"
	"unsafe"

	"nrmi/internal/graph"
)

// Encoder serializes object graphs into one message. A single Encoder may
// emit several values; aliasing is preserved across all of them (the paper's
// answer to parameters that share structure, Section 4.1). The encoder's
// object table, exposed via Objects, IS the linear map of the copy-restore
// algorithm: objects in first-encounter (DFS) order.
//
// The message is built in memory, and Flush hands it to the destination.
type Encoder struct {
	w writer
	// dst receives the message at Flush; flushed is how much of it has.
	dst     io.Writer
	flushed int
	opts    Options
	ids     graph.IdentTable
	objs    []reflect.Value
	// objs[:adopted] are SeedDecoded's objects, not cells.
	adopted    int
	typeTable  map[reflect.Type]int
	strTable   map[string]int
	headerDone bool
	// kernels routes value encoding through the compiled per-type programs
	// (kernel.go); derived from opts, cached here for the hot path.
	kernels bool
	// memo resolves the types this stream meets dynamically.
	memo kernelMemo
}

// NewEncoder returns an Encoder whose Flush writes to w. A nil w leaves the
// message to Bytes.
func NewEncoder(w io.Writer, opts Options) *Encoder {
	e := &Encoder{
		typeTable: make(map[reflect.Type]int),
		strTable:  make(map[string]int),
	}
	e.arm(w, opts)
	return e
}

// arm points a new or reset encoder at its destination and options.
func (e *Encoder) arm(w io.Writer, opts Options) {
	e.opts = opts.encoderDefaults()
	e.kernels = e.opts.kernelsEnabled()
	e.dst, e.flushed, e.headerDone = w, 0, false
	e.w.reset(e.opts.Engine)
}

// Objects returns the encoder's linear map: every identity-bearing object
// serialized so far, in first-encounter order. Index == wire object ID.
func (e *Encoder) Objects() []reflect.Value { return e.objs }

// BytesWritten returns the number of payload bytes produced so far.
func (e *Encoder) BytesWritten() int64 { return int64(len(e.w.buf)) }

// Bytes returns the message encoded so far. It is valid until the encoder
// encodes more or is released.
func (e *Encoder) Bytes() []byte { return e.w.buf }

// Flush hands what was encoded since the last Flush to the destination in
// one Write: the one place an encoder meets I/O, and so its only I/O error.
func (e *Encoder) Flush() error {
	if e.dst == nil || e.flushed == len(e.w.buf) {
		return nil
	}
	if _, err := e.dst.Write(e.w.buf[e.flushed:]); err != nil {
		return err
	}
	e.flushed = len(e.w.buf)
	return nil
}

// header emits the stream header exactly once. Misconfigured engines fail
// here with the typed error rather than producing a stream no decoder can
// name.
func (e *Encoder) header() error {
	if e.headerDone {
		return nil
	}
	if !e.opts.Engine.valid() {
		return fmt.Errorf("%w: Engine(%d)", ErrUnknownEngine, byte(e.opts.Engine))
	}
	e.headerDone = true
	format := byte(e.opts.Engine)
	if e.opts.Engine == EngineV2 {
		format = formatV2
	}
	e.w.buf = append(e.w.buf, headerMagic, format, byte(e.opts.Access))
	return nil
}

// Encode serializes one value (and everything reachable from it).
func (e *Encoder) Encode(v any) error { return e.EncodeValue(reflect.ValueOf(v)) }

// EncodeValue is Encode for callers holding reflect.Values; the invalid
// Value encodes as nil.
func (e *Encoder) EncodeValue(v reflect.Value) error {
	if err := e.header(); err != nil {
		return err
	}
	return e.encodeValue(v, 0, false)
}

// EncodeUint emits a raw unsigned integer for protocol framing (counts,
// object IDs) without value-tag overhead.
func (e *Encoder) EncodeUint(v uint64) error {
	if err := e.header(); err != nil {
		return err
	}
	e.w.writeUint(v)
	return nil
}

// EncodeString emits a raw string for protocol framing.
func (e *Encoder) EncodeString(s string) error {
	if err := e.header(); err != nil {
		return err
	}
	e.w.writeString(s)
	return nil
}

// intern is the one place an object enters the linear map: it returns the ID
// of v (a non-nil pointer, map or slice) and whether the stream has it
// already, assigning the next ID on a first visit with the same single probe.
// A reference that shares an identity without being an alias is refused, or,
// having no storage, numbered afresh outside the index (graph.Aliases).
func (e *Encoder) intern(v reflect.Value) (id int, seen bool, err error) {
	ident, _ := graph.IdentOf(v)
	if id, seen = e.ids.GetOrPut(ident, len(e.objs)); seen {
		if seen, err = graph.Aliases(e.objs[id], v); seen || err != nil {
			return id, seen, err
		}
	}
	id, cell := e.next(v.Type())
	if cell.IsValid() {
		cell.Set(v)
	} else {
		e.objs[id] = graph.StableRef(v)
	}
	return id, false, nil
}

// internPtr is intern for the non-nil pointer of k's type at p, read from
// its slot: the pointer word is the identity, and a reusable cell takes it
// with one typed store.
func (e *Encoder) internPtr(k *kernel, p unsafe.Pointer) (id int, seen bool, err error) {
	q := *(*unsafe.Pointer)(p)
	if id, seen = e.ids.GetOrPut(graph.PtrIdent(uintptr(q)), len(e.objs)); seen {
		if seen, err = graph.Aliases(e.objs[id], k.ref(p)); seen || err != nil {
			return id, seen, err
		}
	}
	id, cell := e.next(k.t)
	if cell.IsValid() {
		*(*unsafe.Pointer)(unsafe.Pointer(cell.UnsafeAddr())) = q
	} else {
		e.objs[id] = graph.StableRef(k.ref(p))
	}
	return id, false, nil
}

// next adds an entry to the table and returns its ID and, if the detached
// reference cell ReleaseEncoder zeroed and parked there has type t, that cell
// to write through: the steady-state table allocates nothing.
func (e *Encoder) next(t reflect.Type) (int, reflect.Value) {
	id := len(e.objs)
	if id == cap(e.objs) {
		e.objs = append(e.objs, reflect.Value{})
		return id, reflect.Value{}
	}
	e.objs = e.objs[:id+1]
	if cell := e.objs[id]; cell.IsValid() && cell.Type() == t && cell.CanSet() {
		return id, cell
	}
	return id, reflect.Value{}
}

// SeedDecoded enters a Decoder's objs as the next objects of the table, held
// as they are and emitting nothing, so a reply refers to a request's object
// by its request ID. A repeat is not entered again, which leaves the table
// shorter than objs; an overlap is refused as intern refuses it.
func (e *Encoder) SeedDecoded(objs []reflect.Value) error {
	for _, v := range objs {
		ident, _ := graph.IdentOf(v)
		if id, seen := e.ids.GetOrPut(ident, len(e.objs)); seen {
			same, err := graph.Aliases(e.objs[id], v)
			if err != nil {
				return err
			}
			if same {
				continue
			}
		}
		e.objs = append(e.objs, v)
	}
	e.adopted = len(e.objs)
	return nil
}

// EncodeSeededContent emits a bare content record for the seeded object id:
// the object's current pointee / entries / elements, with nested references
// encoded as back-references or inline new objects. This is how the server
// ships back the state of every pre-call object, including ones that became
// unreachable (paper, Section 3, step 3).
func (e *Encoder) EncodeSeededContent(id int) error {
	if err := e.header(); err != nil {
		return err
	}
	if id < 0 || id >= len(e.objs) {
		return fmt.Errorf("wire: EncodeSeededContent(%d): no such object", id)
	}
	obj := e.objs[id]
	var k *kernel
	if e.kernels {
		// The object's own kernel leads to its contents' kernels; a run of
		// records of one type costs one lookup.
		k = e.memo.of(obj.Type(), e.opts.Access)
	}
	switch obj.Kind() {
	case reflect.Ptr:
		e.w.writeByte(contentPtr)
		if k != nil {
			return k.elem.encAt(e, obj.UnsafePointer(), 0, true)
		}
		return e.encodeValue(obj.Elem(), 0, e.bareSlots())
	case reflect.Map:
		e.w.writeByte(contentMap)
		if k != nil {
			return k.encMap(e, obj, 0)
		}
		return e.encodeMapEntries(obj, 0)
	case reflect.Slice:
		e.w.writeByte(contentSlice)
		e.w.writeUint(uint64(obj.Len()))
		if k != nil {
			return k.encElems(e, obj.UnsafePointer(), obj.Len(), 0)
		}
		return e.encodeSliceElems(obj, 0)
	default:
		return fmt.Errorf("wire: seeded object %d has unexpected kind %s", id, obj.Kind())
	}
}

const maxEncodeDepth = 10000

// bareSlots reports whether the stream's statically typed slots travel bare
// (V2) or every value is described (V1).
func (e *Encoder) bareSlots() bool { return e.opts.Engine == EngineV2 }

// encodeValue writes v, described — tag, descriptor, contents — or, bare, as
// the occupant of a slot whose static type already says what v is: a pointer,
// map or slice without its descriptor, anything else as its contents alone.
// An interface slot is never bare: its value describes itself.
func (e *Encoder) encodeValue(v reflect.Value, depth int, bare bool) error {
	if depth > maxEncodeDepth {
		return graph.ErrDepthExceeded
	}
	if !v.IsValid() {
		e.w.writeByte(tagNil)
		return nil
	}
	if e.kernels {
		// Compiled fast path: one memo probe for the root, straight-line
		// per-field ops below it, byte-identical output. The generic switch
		// below is the V1 / portable reference path.
		return e.memo.of(v.Type(), e.opts.Access).enc(e, v, depth, bare)
	}
	tag, t := tagOf(v.Kind()), v.Type()
	switch tag {
	case 0:
		if v.Kind() != reflect.Interface {
			return fmt.Errorf("%w: %s", graph.ErrNotSerializable, t)
		}
		if v.IsNil() {
			e.w.writeByte(tagNil)
			return nil
		}
		return e.encodeValue(v.Elem(), depth+1, false)
	case tagPtr, tagMap, tagSlice:
		if v.IsNil() {
			e.w.writeByte(tagNil)
			return nil
		}
		if id, seen, err := e.intern(v); err != nil || seen {
			return e.refOr(id, err)
		}
		// First visit: tag, descriptor (a pointer's is its pointee's), contents.
		e.w.writeByte(tag)
		if tag == tagPtr {
			t = t.Elem()
		}
	default:
		if !bare {
			e.w.writeByte(tag)
		}
	}
	if !bare {
		if err := e.encodeType(t); err != nil {
			return err
		}
	}
	switch tag {
	case tagPtr:
		return e.encodeValue(v.Elem(), depth+1, e.bareSlots())
	case tagMap:
		return e.encodeMapEntries(v, depth)
	case tagSlice:
		e.w.writeUint(uint64(v.Len()))
		return e.encodeSliceElems(v, depth)
	case tagStruct:
		return e.encodeStructFields(v, depth)
	case tagArray:
		return e.encodeSliceElems(v, depth)
	}
	return e.encodeScalarPayload(v)
}

func (e *Encoder) encodeMapEntries(v reflect.Value, depth int) error {
	e.w.writeUint(uint64(v.Len()))
	kp := acquireSortedKeys(v)
	defer releaseKeys(kp)
	for _, k := range *kp {
		if err := e.encodeValue(k, depth+1, e.bareSlots()); err != nil {
			return err
		}
		if err := e.encodeValue(v.MapIndex(k), depth+1, e.bareSlots()); err != nil {
			return err
		}
	}
	return nil
}

func (e *Encoder) encodeSliceElems(v reflect.Value, depth int) error {
	for i := 0; i < v.Len(); i++ {
		if err := e.encodeValue(v.Index(i), depth+1, e.bareSlots()); err != nil {
			return err
		}
	}
	return nil
}

func (e *Encoder) encodeStructFields(v reflect.Value, depth int) error {
	sv := graph.Launder(v)
	// The plan is rebuilt from raw reflection on every struct (V2's cached
	// path is its kernels); V1 ships field names, V2 a silent positional layout.
	p := planFor(sv.Type(), e.opts.Access)
	if err := verifyZeroFields(sv, p); err != nil {
		return err
	}
	if e.opts.Engine == EngineV1 {
		e.w.writeUint(uint64(len(p.fields)))
	}
	for _, pf := range p.fields {
		if e.opts.Engine == EngineV1 {
			e.w.writeString(pf.name)
		}
		f, ok, err := graph.FieldForRead(sv, pf.index, e.opts.Access)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if err := e.encodeValue(f, depth+1, e.bareSlots()); err != nil {
			return err
		}
	}
	return nil
}

func (e *Encoder) encodeScalarPayload(v reflect.Value) error {
	switch v.Kind() {
	case reflect.Bool:
		b := byte(0)
		if v.Bool() {
			b = 1
		}
		e.w.writeByte(b)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		e.w.writeInt(v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		e.w.writeUint(v.Uint())
	case reflect.Float32, reflect.Float64:
		e.w.writeFloat(v.Float())
	case reflect.Complex64, reflect.Complex128:
		c := v.Complex()
		e.w.writeFloat(real(c))
		e.w.writeFloat(imag(c))
	case reflect.String:
		e.encodeInternedString(v.String())
	default:
		return fmt.Errorf("%w: %s", graph.ErrNotSerializable, v.Type())
	}
	return nil
}

// encodeInternedString writes a string scalar. Engine V2 interns repeated
// strings per stream (like Java serialization's string back-references): a
// uvarint head of 0 introduces a literal that joins the table; n>0 is a
// back-reference to table entry n-1. Engine V1 writes every occurrence in
// full — one more verbosity the paper's JDK 1.3 baseline exhibits.
func (e *Encoder) encodeInternedString(str string) {
	if e.opts.Engine != EngineV2 {
		e.w.writeString(str)
		return
	}
	if idx, ok := e.strTable[str]; ok {
		e.w.writeUint(uint64(idx) + 1)
		return
	}
	e.strTable[str] = len(e.strTable)
	e.w.writeUint(0)
	e.w.writeString(str)
}
