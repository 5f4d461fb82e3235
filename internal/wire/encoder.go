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
	// bare says statically typed slots travel bare (V2); under V1 every slot
	// is described. cached says struct kernels come from kernelCache; an
	// uncached encoder (V1, DisablePlanCache) compiles one per struct value.
	bare, cached bool
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
	e.bare = e.opts.Engine == EngineV2
	e.cached = e.bare && !e.opts.DisablePlanCache
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

// header emits the stream header exactly once. A misconfigured engine or
// access mode fails here with its typed error rather than producing a stream
// no decoder can name.
func (e *Encoder) header() error {
	if e.headerDone {
		return nil
	}
	if !e.opts.Engine.valid() {
		return fmt.Errorf("%w: Engine(%d)", ErrUnknownEngine, byte(e.opts.Engine))
	}
	if !knownAccess(e.opts.Access) {
		return fmt.Errorf("%w: %s", ErrUnknownAccess, e.opts.Access)
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
func (e *Encoder) Encode(v any) error {
	if err := e.header(); err != nil {
		return err
	}
	if v == nil {
		e.w.writeByte(tagNil)
		return nil
	}
	rv := reflect.ValueOf(v)
	return e.memo.of(rv.Type(), e.opts.Access).enc(e, rv, 0, false)
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
	// The object's own kernel leads to its contents' kernels; a run of
	// records of one type costs one lookup.
	k := e.memo.of(obj.Type(), e.opts.Access)
	switch obj.Kind() {
	case reflect.Ptr:
		e.w.writeByte(contentPtr)
		return k.elem.encAt(e, obj.UnsafePointer(), 0, e.bare)
	case reflect.Map:
		e.w.writeByte(contentMap)
		return k.encMap(e, obj, 0)
	case reflect.Slice:
		e.w.writeByte(contentSlice)
		e.w.writeUint(uint64(obj.Len()))
		return k.encElems(e, obj.UnsafePointer(), obj.Len(), 0)
	default:
		return fmt.Errorf("wire: seeded object %d has unexpected kind %s", id, obj.Kind())
	}
}

const maxEncodeDepth = 10000

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
