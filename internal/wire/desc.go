package wire

import (
	"fmt"
	"math"
	"reflect"
	"slices"
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
var kindTypes = map[reflect.Kind]reflect.Type{}

func init() {
	for _, v := range []any{false, 0, int8(0), int16(0), int32(0), int64(0), uint(0), uint8(0),
		uint16(0), uint32(0), uint64(0), float32(0), 0.0, complex64(0), 0i, ""} {
		kindTypes[reflect.TypeOf(v).Kind()] = reflect.TypeOf(v)
	}
}

var emptyIfaceType = reflect.TypeOf((*any)(nil)).Elem()

// encodeType emits a descriptor for t. Under V2 every distinct type is
// emitted structurally once — a named type as its wire name and layout
// fingerprint (layout.go) — and referenced by table index afterwards; under
// V1 the full structural form (with type names spelled out) is emitted on
// every occurrence — the paper's verbose-JDK-1.3 behaviour. A message names
// few types, so the table is a slice scanned by identity.
func (e *Encoder) encodeType(t reflect.Type) error {
	if e.opts.Engine == EngineV2 {
		id := typeID(t)
		if idx := slices.Index(e.typeTable, id); idx >= 0 {
			e.w.writeTagged(dTableRef, uint64(idx))
			return nil
		}
		e.w.writeByte(dTableDef)
		e.typeTable = append(e.typeTable, id)
	}
	return e.encodeTypeBody(t)
}

// encodeTypeBody writes a bound named type from its record, any other type
// by its structure.
func (e *Encoder) encodeTypeBody(t reflect.Type) error {
	rec := e.opts.Registry.record(t)
	switch {
	case rec == nil && named(t):
		_, err := e.opts.Registry.NameOf(t)
		return err
	case rec != nil && rec.named:
		e.w.writeByte(dNamed)
		e.w.writeString(rec.name)
		if e.opts.Engine != EngineV2 {
			return nil
		}
		sum, err := e.opts.Registry.sum(rec, e.opts.Access, e.cached)
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
		rec := d.opts.Registry.recordNamed(name)
		if rec == nil {
			return nil, fmt.Errorf("%w: %q", ErrTypeNotRegistered, name)
		}
		if d.engine != EngineV2 {
			return rec.t, nil
		}
		// Compared before any content of the type is read.
		theirs, err := d.r.readFixed()
		if err != nil {
			return nil, err
		}
		ours, err := d.opts.Registry.sum(rec, d.access, d.cached)
		if err != nil {
			return nil, err
		}
		if theirs != ours {
			return nil, fmt.Errorf("%w: %q is %s here (%016x, peer %016x)", ErrLayout, name, rec.t, ours, theirs)
		}
		return rec.t, nil
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
