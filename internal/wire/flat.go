package wire

import (
	"fmt"
	"math"
	"reflect"

	"nrmi/internal/graph"
)

// Engine V3: the flat-buffer wire format (PROTOCOL.md section 9).
//
// Where V1/V2 interleave tags, values, and object contents in one recursive
// stream, V3 ships each encoded graph as a self-contained frame:
//
//	uvarint bodyLen
//	u32 newNodes   u32 newTypes   u32 typesLen          (frame header)
//	typeSection                                         (typesLen bytes)
//	offsets        ((newNodes+1) x u32: record starts, ascending; the
//	                last entry is the total record-region length)
//	records        (one per node discovered by this frame, in id order)
//	tail           (the root value, or a seeded-content record)
//
// All multi-byte fields are little-endian and fixed-width, in the spirit of
// myDB's BNode pages: a decoder seeks to any node record by slicing the
// offset table, without parsing its neighbours. Node ids and type indices
// are cumulative across the frames of one stream, so seeded objects and
// back-references work exactly as under V1/V2.
//
// Records describe identity-bearing objects (the linear-map entries):
//
//	fRecPtr   u32 elemTypeIdx  value
//	fRecMap   u32 mapTypeIdx   u32 count  count x (value value)
//	fRecSlice u32 sliceTypeIdx u32 len    len x value
//
// Values are stateless expressions — nothing in a record depends on decoder
// state accumulated while parsing another record, so a record parses on its
// own and fuzzed frames fail deterministically:
//
//	fNil
//	fRef    u32 nodeId
//	fScalar u32 typeIdx  payload          (fixed-width; strings inline)
//	fStruct u32 typeIdx  fields in plan order
//	fArray  u32 typeIdx  elements
const (
	fNil    byte = 0x00
	fRef    byte = 0x01
	fScalar byte = 0x02
	fStruct byte = 0x03
	fArray  byte = 0x04

	fRecPtr   byte = 0x60
	fRecMap   byte = 0x61
	fRecSlice byte = 0x62
)

// flatFrameHeaderLen is the fixed frame header: newNodes, newTypes,
// typesLen.
const flatFrameHeaderLen = 12

// flatEnc is the per-Encoder scratch state for frame assembly. The buffers
// are retained across frames and across pooled reuse, so a steady-state
// encoder assembles frames without allocating.
type flatEnc struct {
	tail     []byte   // root value or seeded-content record
	rec      []byte   // node records, in id order
	typ      []byte   // type section: defs appended by flatTypeIdx
	offs     []uint32 // record start offsets
	head     []byte   // assembled header + offset bytes
	newTypes int
	base     int // len(e.objs) at frame start: first new node id
}

func (f *flatEnc) beginFrame(base int) {
	f.tail = f.tail[:0]
	f.rec = f.rec[:0]
	f.typ = f.typ[:0]
	f.offs = f.offs[:0]
	f.head = f.head[:0]
	f.newTypes = 0
	f.base = base
}

func putU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func putU64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// flatFrame assembles and emits one frame. buildTail populates f.tail (and,
// through node registration, queues new records); the record drain and the
// final assembly are shared by every frame kind.
func (e *Encoder) flatFrame(buildTail func(f *flatEnc) ([]byte, error)) error {
	if err := e.header(); err != nil {
		return err
	}
	if e.flat == nil {
		e.flat = &flatEnc{}
	}
	f := e.flat
	f.beginFrame(len(e.objs))

	tail, err := buildTail(f)
	if err != nil {
		return err
	}
	f.tail = tail

	// Drain the record queue. Encoding a record can discover further nodes
	// (intern appends to e.objs), so the bound re-evaluates.
	for next := f.base; next < len(e.objs); next++ {
		f.offs = append(f.offs, uint32(len(f.rec)))
		f.rec, err = e.flatRecord(f.rec, e.objs[next])
		if err != nil {
			return err
		}
	}
	f.offs = append(f.offs, uint32(len(f.rec)))
	newNodes := len(e.objs) - f.base

	f.head = putU32(f.head, uint32(newNodes))
	f.head = putU32(f.head, uint32(f.newTypes))
	f.head = putU32(f.head, uint32(len(f.typ)))
	f.head = append(f.head, f.typ...)
	for _, off := range f.offs {
		f.head = putU32(f.head, off)
	}
	bodyLen := len(f.head) + len(f.rec) + len(f.tail)
	if err := e.w.writeUint(uint64(bodyLen)); err != nil {
		return err
	}
	if err := e.w.write(f.head); err != nil {
		return err
	}
	if err := e.w.write(f.rec); err != nil {
		return err
	}
	return e.w.write(f.tail)
}

// flatEncodeRoot emits an Encode/EncodeValue frame: tail is a single value.
func (e *Encoder) flatEncodeRoot(v reflect.Value) error {
	return e.flatFrame(func(f *flatEnc) ([]byte, error) {
		return e.flatValue(f.tail, v, 0)
	})
}

// flatEncodeSeededContent emits an EncodeSeededContent frame: tail is a
// content record for the seeded object, in the same grammar as the node
// records of the frame body.
func (e *Encoder) flatEncodeSeededContent(id int) error {
	if id < 0 || id >= len(e.objs) {
		return fmt.Errorf("wire: EncodeSeededContent(%d): no such object", id)
	}
	return e.flatFrame(func(f *flatEnc) ([]byte, error) {
		return e.flatRecord(f.tail, e.objs[id])
	})
}

// flatRecord appends the content record for one identity-bearing object.
func (e *Encoder) flatRecord(b []byte, obj reflect.Value) ([]byte, error) {
	switch obj.Kind() {
	case reflect.Ptr:
		idx, err := e.flatTypeIdx(obj.Type().Elem())
		if err != nil {
			return b, err
		}
		b = append(b, fRecPtr)
		b = putU32(b, idx)
		return e.flatValue(b, obj.Elem(), 0)
	case reflect.Map:
		idx, err := e.flatTypeIdx(obj.Type())
		if err != nil {
			return b, err
		}
		b = append(b, fRecMap)
		b = putU32(b, idx)
		b = putU32(b, uint32(obj.Len()))
		kp := acquireSortedKeys(obj)
		defer releaseKeys(kp)
		for _, k := range *kp {
			if b, err = e.flatValue(b, k, 0); err != nil {
				return b, err
			}
			if b, err = e.flatValue(b, obj.MapIndex(k), 0); err != nil {
				return b, err
			}
		}
		return b, nil
	case reflect.Slice:
		idx, err := e.flatTypeIdx(obj.Type())
		if err != nil {
			return b, err
		}
		b = append(b, fRecSlice)
		b = putU32(b, idx)
		b = putU32(b, uint32(obj.Len()))
		for i := 0; i < obj.Len(); i++ {
			if b, err = e.flatValue(b, obj.Index(i), 0); err != nil {
				return b, err
			}
		}
		return b, nil
	default:
		return b, fmt.Errorf("wire: object record for unexpected kind %s", obj.Kind())
	}
}

// flatValue appends one value expression. Identity-bearing objects always
// reduce to fRef — first encounters register the node and queue its record
// for the frame's drain loop, so value expressions never nest object
// contents.
func (e *Encoder) flatValue(b []byte, v reflect.Value, depth int) ([]byte, error) {
	if depth > maxEncodeDepth {
		return b, graph.ErrDepthExceeded
	}
	if !v.IsValid() {
		return append(b, fNil), nil
	}
	switch v.Kind() {
	case reflect.Interface:
		if v.IsNil() {
			return append(b, fNil), nil
		}
		return e.flatValue(b, v.Elem(), depth+1)

	case reflect.Ptr, reflect.Map, reflect.Slice:
		if v.IsNil() {
			return append(b, fNil), nil
		}
		id, _, err := e.intern(v)
		if err != nil {
			return b, err
		}
		b = append(b, fRef)
		return putU32(b, uint32(id)), nil

	case reflect.Struct:
		idx, err := e.flatTypeIdx(v.Type())
		if err != nil {
			return b, err
		}
		b = append(b, fStruct)
		b = putU32(b, idx)
		return e.flatStructFields(b, v, depth)

	case reflect.Array:
		idx, err := e.flatTypeIdx(v.Type())
		if err != nil {
			return b, err
		}
		b = append(b, fArray)
		b = putU32(b, idx)
		for i := 0; i < v.Len(); i++ {
			if b, err = e.flatValue(b, v.Index(i), depth+1); err != nil {
				return b, err
			}
		}
		return b, nil

	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64,
		reflect.Complex64, reflect.Complex128,
		reflect.String:
		idx, err := e.flatTypeIdx(v.Type())
		if err != nil {
			return b, err
		}
		b = append(b, fScalar)
		b = putU32(b, idx)
		return e.flatScalarPayload(b, v)

	default:
		return b, fmt.Errorf("%w: %s", graph.ErrNotSerializable, v.Type())
	}
}

func (e *Encoder) flatStructFields(b []byte, v reflect.Value, depth int) ([]byte, error) {
	sv := graph.Launder(v)
	p := planFor(sv.Type(), e.opts.Access, !e.opts.DisablePlanCache)
	if err := verifyZeroFields(sv, p); err != nil {
		return b, err
	}
	var err error
	for _, pf := range p.fields {
		f, ok, ferr := graph.FieldForRead(sv, pf.index, e.opts.Access)
		if ferr != nil {
			return b, ferr
		}
		if !ok {
			continue
		}
		if b, err = e.flatValue(b, f, depth+1); err != nil {
			return b, err
		}
	}
	return b, nil
}

// flatScalarPayload appends a scalar's fixed-width payload: bool one byte,
// integers and floats 8 bytes LE, complex 16, strings a u32 length plus raw
// bytes (inline every time — record parsing must not depend on an interning
// table built while parsing other records).
func (e *Encoder) flatScalarPayload(b []byte, v reflect.Value) ([]byte, error) {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1), nil
		}
		return append(b, 0), nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return putU64(b, uint64(v.Int())), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return putU64(b, v.Uint()), nil
	case reflect.Float32, reflect.Float64:
		return putU64(b, math.Float64bits(v.Float())), nil
	case reflect.Complex64, reflect.Complex128:
		c := v.Complex()
		b = putU64(b, math.Float64bits(real(c)))
		return putU64(b, math.Float64bits(imag(c))), nil
	case reflect.String:
		s := v.String()
		if uint64(len(s)) > math.MaxUint32 {
			return b, fmt.Errorf("%w: string of %d bytes", ErrLimit, len(s))
		}
		b = putU32(b, uint32(len(s)))
		return append(b, s...), nil
	default:
		return b, fmt.Errorf("%w: %s", graph.ErrNotSerializable, v.Type())
	}
}

// flatTypeIdx interns t into the stream's cumulative type table, appending
// a definition to the current frame's type section on first encounter.
// Definitions reference component types by index, so dependencies are
// interned (and therefore defined) first; unnamed composite types are
// finite expressions over named and predeclared types, so the recursion
// terminates.
func (e *Encoder) flatTypeIdx(t reflect.Type) (uint32, error) {
	if idx, ok := e.typeTable[t]; ok {
		return uint32(idx), nil
	}
	f := e.flat
	var def []byte
	if named(t) {
		wireName, err := e.opts.Registry.NameOf(t)
		if err != nil {
			return 0, err
		}
		def = append(def, dNamed)
		def = putU32(def, uint32(len(wireName)))
		def = append(def, wireName...)
	} else {
		switch t.Kind() {
		case reflect.Ptr:
			elem, err := e.flatTypeIdx(t.Elem())
			if err != nil {
				return 0, err
			}
			def = append(def, dPtr)
			def = putU32(def, elem)
		case reflect.Slice:
			elem, err := e.flatTypeIdx(t.Elem())
			if err != nil {
				return 0, err
			}
			def = append(def, dSlice)
			def = putU32(def, elem)
		case reflect.Map:
			key, err := e.flatTypeIdx(t.Key())
			if err != nil {
				return 0, err
			}
			elem, err := e.flatTypeIdx(t.Elem())
			if err != nil {
				return 0, err
			}
			def = append(def, dMap)
			def = putU32(def, key)
			def = putU32(def, elem)
		case reflect.Array:
			elem, err := e.flatTypeIdx(t.Elem())
			if err != nil {
				return 0, err
			}
			def = append(def, dArray)
			def = putU32(def, uint32(t.Len()))
			def = putU32(def, elem)
		case reflect.Interface:
			if t.NumMethod() != 0 {
				return 0, fmt.Errorf("wire: unnamed non-empty interface type %s cannot cross the wire; name and register it", t)
			}
			def = append(def, dIface)
		default:
			if _, ok := kindTypes[t.Kind()]; !ok {
				return 0, fmt.Errorf("wire: type %s (kind %s) cannot cross the wire", t, t.Kind())
			}
			def = append(def, byte(t.Kind()))
		}
	}
	idx := len(e.typeTable)
	e.typeTable[t] = idx
	f.typ = append(f.typ, def...)
	f.newTypes++
	return uint32(idx), nil
}
