package wire

import (
	"fmt"
	"io"
	"math"
	"reflect"

	"nrmi/internal/graph"
)

// Decoder reconstructs object graphs from a stream produced by Encoder. It
// assigns object IDs in stream order, so after decoding, Objects() is a
// linear map positionally identical to the encoder's — the paper's
// optimization of rebuilding the linear map during un-serialization instead
// of shipping it (Section 5.2.4, optimization 1).
type Decoder struct {
	r          *reader
	opts       Options
	table      []reflect.Value
	numSeeded  int
	typeTable  []reflect.Type
	strTable   []string
	headerDone bool

	// engine and access are authoritative from the stream header.
	engine Engine
	access graph.AccessMode

	// kernels routes struct decoding through the compiled field programs
	// (kernel.go); decided at header time, when the engine is known.
	kernels bool

	// arena batch-allocates the objects materialized by engine-V3 frames
	// (arena.go). Lazily created on the first V3 frame; released when the
	// decoder is recycled, or explicitly via ReleaseArena on abandoned
	// decoders.
	arena *Arena

	// frameFree and fcFree recycle the frame and FlatContent shells of the
	// V3 restore path: a response restores one frame per old object, so
	// without recycling the shells alone cost two allocations per restored
	// object. Entries are cleared before being parked, so the freelists
	// never pin payload bytes or user objects.
	frameFree []*flatFrame
	fcFree    []*FlatContent

	// lowRef is the lowest object ID the current top-level Decode read as a
	// back-reference; see LowestRef.
	lowRef int
}

// NewDecoder returns a Decoder reading from r. The engine and access mode
// are learned from the stream header; opts supplies the registry and
// limits.
func NewDecoder(r io.Reader, opts Options) *Decoder {
	o := opts.withDefaults()
	return &Decoder{r: newReader(r, o.MaxElems), opts: o, lowRef: math.MaxInt}
}

// NewDecoderBytes returns a Decoder reading from an in-memory message.
// Engine V3 decodes such messages by slicing: frame regions alias data
// instead of being copied, so data must stay valid (and unmodified) until
// decoding — including any pending FlatContent commits — has finished.
func NewDecoderBytes(data []byte, opts Options) *Decoder {
	o := opts.withDefaults()
	d := &Decoder{r: newReader(nil, o.MaxElems), opts: o, lowRef: math.MaxInt}
	d.r.resetBytes(data, o.MaxElems)
	return d
}

// Objects returns the decoder's linear map: every object materialized or
// seeded so far, in ID order.
func (d *Decoder) Objects() []reflect.Value { return d.table }

// NumSeeded returns how many IDs were pre-assigned via SeedObject.
func (d *Decoder) NumSeeded() int { return d.numSeeded }

// BytesRead returns the number of payload bytes consumed so far.
func (d *Decoder) BytesRead() int64 { return d.r.count }

// Engine returns the engine announced by the stream header; valid after the
// first decode call.
func (d *Decoder) Engine() Engine { return d.engine }

// Access returns the field-access mode announced by the stream header;
// valid after the first decode call.
func (d *Decoder) Access() graph.AccessMode { return d.access }

// LowestRef is Encoder.LowestRef for the most recent Decode or DecodeValue:
// both ends of a stream report the same value for the same argument.
func (d *Decoder) LowestRef() int { return d.lowRef }

// SeedObject pre-assigns the next object ID to an existing local object.
// References to that ID decode to this exact object rather than a fresh
// copy. The restore protocol seeds the client's original objects before
// decoding the server's response.
func (d *Decoder) SeedObject(ref reflect.Value) (int, error) {
	if !graph.IsIdentityKind(ref.Kind()) || ref.IsNil() {
		return 0, fmt.Errorf("wire: SeedObject requires a non-nil ptr, map, or slice, got %s", ref.Kind())
	}
	id := len(d.table)
	d.table = append(d.table, graph.StableRef(ref))
	d.numSeeded++
	return id, nil
}

// SeedDetached is SeedObject for a run of reference cells that are already
// detached (an Encoder's Objects()): they join the table as they are. The
// cells must stay untouched until decoding has finished.
func (d *Decoder) SeedDetached(cells []reflect.Value) {
	d.table = append(d.table, cells...)
	d.numSeeded += len(cells)
}

// header consumes the stream header exactly once.
func (d *Decoder) header() error {
	if d.headerDone {
		return nil
	}
	d.headerDone = true
	b, err := d.r.readByte()
	if err != nil {
		return err
	}
	if b != headerMagic {
		return fmt.Errorf("%w: bad magic 0x%02x", ErrBadStream, b)
	}
	eng, err := d.r.readByte()
	if err != nil {
		return err
	}
	switch Engine(eng) {
	case EngineV1, EngineV2:
	case EngineV3:
		if d.opts.DisableEngineV3 {
			// Reject with the exact error a pre-V3 peer produces, so the
			// client-side engine fallback can be exercised against new
			// binaries (see Options.DisableEngineV3).
			return fmt.Errorf("%w: unknown engine %d", ErrBadStream, eng)
		}
	default:
		return fmt.Errorf("%w: unknown engine %d", ErrBadStream, eng)
	}
	d.engine = Engine(eng)
	acc, err := d.r.readByte()
	if err != nil {
		return err
	}
	d.access = graph.AccessMode(acc)
	d.r.setEngine(d.engine)
	d.kernels = d.engine == EngineV2 && !d.opts.DisablePlanCache && !d.opts.DisableKernels
	return nil
}

// Decode reads one value.
func (d *Decoder) Decode() (any, error) {
	v, err := d.DecodeValue()
	if err != nil {
		return nil, err
	}
	if !v.IsValid() {
		return nil, nil
	}
	return v.Interface(), nil
}

// DecodeValue reads one value as a reflect.Value. An invalid Value denotes
// an encoded nil.
func (d *Decoder) DecodeValue() (reflect.Value, error) {
	d.lowRef = math.MaxInt
	if err := d.header(); err != nil {
		return reflect.Value{}, err
	}
	if d.engine == EngineV3 {
		return d.flatDecodeRoot()
	}
	return d.decodeValue(0)
}

// DecodeUint reads a raw unsigned integer written with EncodeUint.
func (d *Decoder) DecodeUint() (uint64, error) {
	if err := d.header(); err != nil {
		return 0, err
	}
	return d.r.readUint()
}

// DecodeString reads a raw string written with EncodeString.
func (d *Decoder) DecodeString() (string, error) {
	if err := d.header(); err != nil {
		return "", err
	}
	return d.r.readString()
}

// DecodeSeededContent reads a content record (written by
// EncodeSeededContent) for seeded object id and materializes it into a
// fresh temporary of the same shape: the "modified version" of an old
// object in the paper's algorithm (step 4). References inside the record
// resolve against the decoder's table, i.e. to original seeded objects or
// to newly materialized ones.
func (d *Decoder) DecodeSeededContent(id int) (reflect.Value, error) {
	if err := d.header(); err != nil {
		return reflect.Value{}, err
	}
	if id < 0 || id >= d.numSeeded {
		return reflect.Value{}, fmt.Errorf("wire: DecodeSeededContent(%d): not a seeded object", id)
	}
	orig := d.table[id]
	if d.engine == EngineV3 {
		return d.flatSeededStaged(id)
	}
	kind, err := d.r.readByte()
	if err != nil {
		return reflect.Value{}, err
	}
	switch kind {
	case contentPtr:
		if orig.Kind() != reflect.Ptr {
			return reflect.Value{}, fmt.Errorf("%w: content kind ptr for %s object", ErrBadStream, orig.Kind())
		}
		tmp := reflect.New(orig.Type().Elem())
		if d.kernels {
			// As under tagPtr: the staging cell exists, decode into it.
			if err := d.decodeValueInto(tmp.Elem(), 0); err != nil {
				return reflect.Value{}, err
			}
			return tmp, nil
		}
		elem, err := d.decodeValue(0)
		if err != nil {
			return reflect.Value{}, err
		}
		if err := setDecoded(tmp.Elem(), elem); err != nil {
			return reflect.Value{}, err
		}
		return tmp, nil
	case contentMap:
		if orig.Kind() != reflect.Map {
			return reflect.Value{}, fmt.Errorf("%w: content kind map for %s object", ErrBadStream, orig.Kind())
		}
		n, err := d.r.readLen()
		if err != nil {
			return reflect.Value{}, err
		}
		tmp := reflect.MakeMapWithSize(orig.Type(), n)
		if err := d.decodeMapEntriesInto(tmp, n); err != nil {
			return reflect.Value{}, err
		}
		return tmp, nil
	case contentSlice:
		if orig.Kind() != reflect.Slice {
			return reflect.Value{}, fmt.Errorf("%w: content kind slice for %s object", ErrBadStream, orig.Kind())
		}
		n, err := d.r.readLen()
		if err != nil {
			return reflect.Value{}, err
		}
		if n != orig.Len() {
			return reflect.Value{}, fmt.Errorf("%w: slice object resized %d -> %d; slices are fixed-length array objects",
				ErrBadStream, orig.Len(), n)
		}
		tmp := reflect.MakeSlice(orig.Type(), n, n)
		if err := d.decodeSliceElemsInto(tmp); err != nil {
			return reflect.Value{}, err
		}
		return tmp, nil
	default:
		return reflect.Value{}, fmt.Errorf("%w: unknown content kind 0x%02x", ErrBadStream, kind)
	}
}

const maxDecodeDepth = 10000

func (d *Decoder) decodeValue(depth int) (reflect.Value, error) {
	if depth > maxDecodeDepth {
		return reflect.Value{}, graph.ErrDepthExceeded
	}
	tag, err := d.r.readByte()
	if err != nil {
		return reflect.Value{}, err
	}
	return d.decodeTagged(tag, depth)
}

// decodeValueInto decodes the next value directly into dst when the wire
// form allows it — a scalar payload or struct body of dst's exact type —
// skipping the intermediate reflect.New staging value of the generic path.
// Every other tag (nil, refs, pointers, interface-typed destinations, …)
// falls back to decodeValue + setDecoded, so behavior and errors are
// identical. Only the compiled-kernel paths call this; the generic and
// ablation paths keep their original allocation profile.
func (d *Decoder) decodeValueInto(dst reflect.Value, depth int) error {
	if depth > maxDecodeDepth {
		return graph.ErrDepthExceeded
	}
	tag, err := d.r.readByte()
	if err != nil {
		return err
	}
	switch tag {
	case tagScalar:
		st, err := d.decodeType()
		if err != nil {
			return err
		}
		if st == dst.Type() {
			return d.scalarPayloadInto(dst)
		}
		fv, err := d.decodeScalarPayload(st)
		if err != nil {
			return err
		}
		return setDecoded(dst, fv)
	case tagStruct:
		st, err := d.decodeType()
		if err != nil {
			return err
		}
		if st.Kind() != reflect.Struct {
			return fmt.Errorf("%w: tagStruct with non-struct type %s", ErrBadStream, st)
		}
		if st == dst.Type() {
			return d.decodeStructInto(dst, depth)
		}
		fv, err := d.decodeStruct(st, depth)
		if err != nil {
			return err
		}
		return setDecoded(dst, fv)
	}
	fv, err := d.decodeTagged(tag, depth)
	if err != nil {
		return err
	}
	return setDecoded(dst, fv)
}

func (d *Decoder) decodeTagged(tag byte, depth int) (reflect.Value, error) {
	switch tag {
	case tagNil:
		return reflect.Value{}, nil

	case tagRef:
		id, err := d.r.readLen()
		if err != nil {
			return reflect.Value{}, err
		}
		if id >= len(d.table) {
			return reflect.Value{}, fmt.Errorf("%w: reference to unknown object %d", ErrBadStream, id)
		}
		d.lowRef = min(d.lowRef, id)
		return d.table[id], nil

	case tagPtr:
		elemT, err := d.decodeType()
		if err != nil {
			return reflect.Value{}, err
		}
		pv := reflect.New(elemT)
		d.table = append(d.table, pv) // register before content: cycles resolve
		if d.kernels {
			// The pointee cell already exists; decode its content in place
			// rather than staging it through a second allocation.
			if err := d.decodeValueInto(pv.Elem(), depth+1); err != nil {
				return reflect.Value{}, err
			}
			return pv, nil
		}
		elem, err := d.decodeValue(depth + 1)
		if err != nil {
			return reflect.Value{}, err
		}
		if err := setDecoded(pv.Elem(), elem); err != nil {
			return reflect.Value{}, err
		}
		return pv, nil

	case tagMap:
		mt, err := d.decodeType()
		if err != nil {
			return reflect.Value{}, err
		}
		if mt.Kind() != reflect.Map {
			return reflect.Value{}, fmt.Errorf("%w: tagMap with non-map type %s", ErrBadStream, mt)
		}
		n, err := d.r.readLen()
		if err != nil {
			return reflect.Value{}, err
		}
		mv := reflect.MakeMapWithSize(mt, n)
		d.table = append(d.table, mv)
		if err := d.decodeMapEntriesInto(mv, n); err != nil {
			return reflect.Value{}, err
		}
		return mv, nil

	case tagSlice:
		st, err := d.decodeType()
		if err != nil {
			return reflect.Value{}, err
		}
		if st.Kind() != reflect.Slice {
			return reflect.Value{}, fmt.Errorf("%w: tagSlice with non-slice type %s", ErrBadStream, st)
		}
		n, err := d.r.readLen()
		if err != nil {
			return reflect.Value{}, err
		}
		sv := reflect.MakeSlice(st, n, n)
		d.table = append(d.table, sv)
		if err := d.decodeSliceElemsInto(sv); err != nil {
			return reflect.Value{}, err
		}
		return sv, nil

	case tagStruct:
		st, err := d.decodeType()
		if err != nil {
			return reflect.Value{}, err
		}
		if st.Kind() != reflect.Struct {
			return reflect.Value{}, fmt.Errorf("%w: tagStruct with non-struct type %s", ErrBadStream, st)
		}
		return d.decodeStruct(st, depth)

	case tagArray:
		at, err := d.decodeType()
		if err != nil {
			return reflect.Value{}, err
		}
		if at.Kind() != reflect.Array {
			return reflect.Value{}, fmt.Errorf("%w: tagArray with non-array type %s", ErrBadStream, at)
		}
		av := reflect.New(at).Elem()
		for i := 0; i < at.Len(); i++ {
			ev, err := d.decodeValue(depth + 1)
			if err != nil {
				return reflect.Value{}, err
			}
			if err := setDecoded(av.Index(i), ev); err != nil {
				return reflect.Value{}, err
			}
		}
		return av, nil

	case tagScalar:
		st, err := d.decodeType()
		if err != nil {
			return reflect.Value{}, err
		}
		return d.decodeScalarPayload(st)

	default:
		return reflect.Value{}, fmt.Errorf("%w: unknown value tag 0x%02x", ErrBadStream, tag)
	}
}

func (d *Decoder) decodeMapEntriesInto(mv reflect.Value, n int) error {
	for i := 0; i < n; i++ {
		kv, err := d.decodeValue(0)
		if err != nil {
			return err
		}
		vv, err := d.decodeValue(0)
		if err != nil {
			return err
		}
		key := reflect.New(mv.Type().Key()).Elem()
		if err := setDecoded(key, kv); err != nil {
			return err
		}
		val := reflect.New(mv.Type().Elem()).Elem()
		if err := setDecoded(val, vv); err != nil {
			return err
		}
		mv.SetMapIndex(key, val)
	}
	return nil
}

func (d *Decoder) decodeSliceElemsInto(sv reflect.Value) error {
	for i := 0; i < sv.Len(); i++ {
		ev, err := d.decodeValue(0)
		if err != nil {
			return err
		}
		if err := setDecoded(sv.Index(i), ev); err != nil {
			return err
		}
	}
	return nil
}

func (d *Decoder) decodeStruct(st reflect.Type, depth int) (reflect.Value, error) {
	sv := reflect.New(st).Elem()
	if err := d.decodeStructInto(sv, depth); err != nil {
		return reflect.Value{}, err
	}
	return sv, nil
}

// decodeStructInto decodes a struct body into sv, which must be an
// addressable value of the encoded type.
func (d *Decoder) decodeStructInto(sv reflect.Value, depth int) error {
	st := sv.Type()
	if d.engine == EngineV1 {
		// V1 ships a field count and names; resolve each by name.
		n, err := d.r.readLen()
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			name, err := d.r.readString()
			if err != nil {
				return err
			}
			p := planFor(st, d.access, false)
			idx, ok := p.byName[name]
			if !ok {
				return fmt.Errorf("%w: type %s has no field %q", ErrBadStream, st, name)
			}
			fv, err := d.decodeValue(depth + 1)
			if err != nil {
				return err
			}
			dst, ok, err := graph.FieldForWrite(sv, idx, d.access)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("%w: field %s.%s not writable in %s mode",
					ErrBadStream, st, name, d.access)
			}
			if err := setDecoded(dst, fv); err != nil {
				return err
			}
		}
		return nil
	}
	if d.kernels {
		// Compiled field program: plan order with the fieldForWrite accessor
		// decision (direct vs. laundered) resolved once per type. sv is
		// always addressable here, so fields decode in place.
		k := decKernelFor(st, d.access)
		for i := range k.fields {
			f := &k.fields[i]
			dst := sv.Field(f.index)
			if f.launder {
				dst = graph.Launder(dst)
			}
			if err := d.decodeValueInto(dst, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	p := planFor(st, d.access, !d.opts.DisablePlanCache)
	for _, pf := range p.fields {
		fv, err := d.decodeValue(depth + 1)
		if err != nil {
			return err
		}
		dst, ok, err := graph.FieldForWrite(sv, pf.index, d.access)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if err := setDecoded(dst, fv); err != nil {
			return err
		}
	}
	return nil
}

func (d *Decoder) decodeScalarPayload(t reflect.Type) (reflect.Value, error) {
	v := reflect.New(t).Elem()
	if err := d.scalarPayloadInto(v); err != nil {
		return reflect.Value{}, err
	}
	return v, nil
}

// scalarPayloadInto reads a scalar payload directly into v, which must be a
// settable value of the encoded scalar type.
func (d *Decoder) scalarPayloadInto(v reflect.Value) error {
	t := v.Type()
	switch t.Kind() {
	case reflect.Bool:
		b, err := d.r.readByte()
		if err != nil {
			return err
		}
		v.SetBool(b != 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		i, err := d.r.readInt()
		if err != nil {
			return err
		}
		if v.OverflowInt(i) {
			return fmt.Errorf("%w: %d overflows %s", ErrBadStream, i, t)
		}
		v.SetInt(i)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		u, err := d.r.readUint()
		if err != nil {
			return err
		}
		if v.OverflowUint(u) {
			return fmt.Errorf("%w: %d overflows %s", ErrBadStream, u, t)
		}
		v.SetUint(u)
	case reflect.Float32, reflect.Float64:
		f, err := d.r.readFloat()
		if err != nil {
			return err
		}
		v.SetFloat(f)
	case reflect.Complex64, reflect.Complex128:
		re, err := d.r.readFloat()
		if err != nil {
			return err
		}
		im, err := d.r.readFloat()
		if err != nil {
			return err
		}
		v.SetComplex(complex(re, im))
	case reflect.String:
		s, err := d.decodeInternedString()
		if err != nil {
			return err
		}
		v.SetString(s)
	default:
		return fmt.Errorf("%w: scalar descriptor with kind %s", ErrBadStream, t.Kind())
	}
	return nil
}

// decodeInternedString reads a string scalar, resolving V2 back-references
// against the per-stream string table.
func (d *Decoder) decodeInternedString() (string, error) {
	if d.engine != EngineV2 {
		return d.r.readString()
	}
	head, err := d.r.readUint()
	if err != nil {
		return "", err
	}
	if head == 0 {
		s, err := d.r.readString()
		if err != nil {
			return "", err
		}
		d.strTable = append(d.strTable, s)
		return s, nil
	}
	idx := head - 1
	if idx >= uint64(len(d.strTable)) {
		return "", fmt.Errorf("%w: string back-reference %d out of range", ErrBadStream, idx)
	}
	return d.strTable[idx], nil
}

// setDecoded assigns a decoded value (possibly invalid, denoting nil) into
// dst with strict type checking.
func setDecoded(dst, src reflect.Value) error {
	if !src.IsValid() {
		dst.Set(reflect.Zero(dst.Type()))
		return nil
	}
	if !src.Type().AssignableTo(dst.Type()) {
		return fmt.Errorf("%w: cannot assign %s to %s", ErrBadStream, src.Type(), dst.Type())
	}
	dst.Set(src)
	return nil
}
