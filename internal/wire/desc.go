package wire

import (
	"fmt"
	"math"
	"reflect"
)

// Type-descriptor lead bytes. Values 1..26 are reflect.Kind numbers for
// scalar kinds; the composite markers live above the kind range.
const (
	dPtr      byte = 200
	dSlice    byte = 201
	dMap      byte = 202
	dArray    byte = 203
	dNamed    byte = 204
	dIface    byte = 205
	dTableRef byte = 206 // V2 only: uvarint index into the stream type table
	dTableDef byte = 207 // V2 only: define the next table entry, then body
)

// kindTypes maps scalar reflect.Kind values to their predeclared types for
// structural decoding.
var kindTypes = map[reflect.Kind]reflect.Type{
	reflect.Bool:       reflect.TypeOf(false),
	reflect.Int:        reflect.TypeOf(int(0)),
	reflect.Int8:       reflect.TypeOf(int8(0)),
	reflect.Int16:      reflect.TypeOf(int16(0)),
	reflect.Int32:      reflect.TypeOf(int32(0)),
	reflect.Int64:      reflect.TypeOf(int64(0)),
	reflect.Uint:       reflect.TypeOf(uint(0)),
	reflect.Uint8:      reflect.TypeOf(uint8(0)),
	reflect.Uint16:     reflect.TypeOf(uint16(0)),
	reflect.Uint32:     reflect.TypeOf(uint32(0)),
	reflect.Uint64:     reflect.TypeOf(uint64(0)),
	reflect.Float32:    reflect.TypeOf(float32(0)),
	reflect.Float64:    reflect.TypeOf(float64(0)),
	reflect.Complex64:  reflect.TypeOf(complex64(0)),
	reflect.Complex128: reflect.TypeOf(complex128(0)),
	reflect.String:     reflect.TypeOf(""),
}

var emptyIfaceType = reflect.TypeOf((*any)(nil)).Elem()

// encodeType emits a descriptor for t. Under V2 every distinct type is
// emitted structurally once — a named type as its wire name and layout
// fingerprint (layout.go) — and referenced by table index afterwards; under
// V1 the full structural form (with type names spelled out) is emitted on
// every occurrence — the paper's verbose-JDK-1.3 behaviour.
func (e *Encoder) encodeType(t reflect.Type) error {
	if e.opts.Engine == EngineV2 {
		if idx, ok := e.typeTable[t]; ok {
			e.w.writeTagged(dTableRef, uint64(idx))
			return nil
		}
		e.w.writeByte(dTableDef)
		e.typeTable[t] = len(e.typeTable)
	}
	return e.encodeTypeBody(t)
}

func (e *Encoder) encodeTypeBody(t reflect.Type) error {
	if named(t) {
		wireName, err := e.opts.Registry.NameOf(t)
		if err != nil {
			return err
		}
		e.w.writeByte(dNamed)
		e.w.writeString(wireName)
		if e.opts.Engine != EngineV2 {
			return nil
		}
		sum, err := fingerprint(e.opts.Registry, t, e.opts.Access, e.cached)
		if err != nil {
			return err
		}
		e.w.writeFixed(sum)
		return nil
	}
	switch t.Kind() {
	case reflect.Ptr:
		e.w.writeByte(dPtr)
		return e.encodeType(t.Elem())
	case reflect.Slice:
		e.w.writeByte(dSlice)
		return e.encodeType(t.Elem())
	case reflect.Map:
		e.w.writeByte(dMap)
		if err := e.encodeType(t.Key()); err != nil {
			return err
		}
		return e.encodeType(t.Elem())
	case reflect.Array:
		e.w.writeTagged(dArray, uint64(t.Len()))
		return e.encodeType(t.Elem())
	case reflect.Interface:
		if t.NumMethod() != 0 {
			return fmt.Errorf("wire: unnamed non-empty interface type %s cannot cross the wire; name and register it", t)
		}
		e.w.writeByte(dIface)
	default:
		if _, ok := kindTypes[t.Kind()]; !ok {
			return fmt.Errorf("wire: type %s (kind %s) cannot cross the wire", t, t.Kind())
		}
		e.w.writeByte(byte(t.Kind()))
	}
	return nil
}

// decodeType reads one type descriptor, nested depth levels inside the one a
// value carries: no deeper than values may be, as it is read by recursion.
func (d *Decoder) decodeType(depth int) (reflect.Type, error) {
	if depth > maxDecodeDepth {
		return nil, errDecodeDepth
	}
	b, err := d.r.readByte()
	if err != nil {
		return nil, err
	}
	switch b {
	case dTableRef:
		idx, err := d.r.readUint()
		if err != nil {
			return nil, err
		}
		if idx >= uint64(len(d.typeTable)) || d.typeTable[idx] == nil {
			return nil, fmt.Errorf("%w: type table index %d out of range", ErrBadStream, idx)
		}
		return d.typeTable[idx], nil
	case dTableDef:
		idx := len(d.typeTable)
		d.typeTable = append(d.typeTable, nil)
		if b, err = d.r.readByte(); err != nil {
			return nil, err
		}
		t, err := d.decodeTypeBody(b, depth)
		if err != nil {
			return nil, err
		}
		d.typeTable[idx] = t
		return t, nil
	}
	return d.decodeTypeBody(b, depth)
}

// decodeTypeBody reads what follows lead byte b of a descriptor at depth.
func (d *Decoder) decodeTypeBody(b byte, depth int) (reflect.Type, error) {
	switch b {
	case dNamed:
		name, err := d.r.readBytes()
		if err != nil {
			return nil, err
		}
		t, err := d.opts.Registry.TypeByName(name)
		if err != nil || d.engine != EngineV2 {
			return t, err
		}
		// Compared before any content of the type is read.
		theirs, err := d.r.readFixed()
		if err != nil {
			return nil, err
		}
		ours, err := fingerprint(d.opts.Registry, t, d.access, d.cached)
		if err != nil {
			return nil, err
		}
		if theirs != ours {
			return nil, fmt.Errorf("%w: %q is %s here (%016x, peer %016x)", ErrLayout, name, t, ours, theirs)
		}
		return t, nil
	case dPtr:
		elem, err := d.decodeType(depth + 1)
		if err != nil {
			return nil, err
		}
		return reflect.PointerTo(elem), nil
	case dSlice:
		elem, err := d.decodeType(depth + 1)
		if err != nil {
			return nil, err
		}
		return reflect.SliceOf(elem), nil
	case dMap:
		key, err := d.decodeType(depth + 1)
		if err != nil {
			return nil, err
		}
		elem, err := d.decodeType(depth + 1)
		if err != nil {
			return nil, err
		}
		if !key.Comparable() {
			return nil, fmt.Errorf("%w: map key type %s is not comparable", ErrBadStream, key)
		}
		return reflect.MapOf(key, elem), nil
	case dArray:
		n, err := d.r.readUint()
		if err != nil {
			return nil, err
		}
		elem, err := d.decodeType(depth + 1)
		if err != nil {
			return nil, err
		}
		return arrayOf(n, elem)
	case dIface:
		return emptyIfaceType, nil
	default:
		k := reflect.Kind(b)
		if t, ok := kindTypes[k]; ok {
			return t, nil
		}
		return nil, fmt.Errorf("%w: unknown type descriptor byte 0x%02x", ErrBadStream, b)
	}
}

// arrayOf is reflect.ArrayOf for a length off the stream. A type is described
// with no value of it to follow (an empty slice's element), so the bytes left
// say nothing about n: values meet them in Decoder.shell. This refuses what
// reflect.ArrayOf panics on or kernel.min overflows on: 2 GiB.
func arrayOf(n uint64, elem reflect.Type) (reflect.Type, error) {
	if n > math.MaxInt32/uint64(max(elem.Size(), 1)) {
		return nil, fmt.Errorf("%w: array type [%d]%s", ErrLimit, n, elem)
	}
	return reflect.ArrayOf(int(n), elem), nil
}
