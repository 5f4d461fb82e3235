package wire

import (
	"fmt"
	"io"
	"reflect"

	"nrmi/internal/graph"
)

// The generic reflective codec: a second, independent implementation of both
// formats, which the runtime's kernels (kernel.go) are held to byte for byte
// and graph for graph — by TestKernelEncodeByteIdentity*, the *Parity tests,
// the slot tests and FuzzDecode. It walks values with reflect.Value, derives
// each struct's field plan from raw reflection on every visit and reaches
// fields through graph's accessors. It shares with the runtime only what is
// not value coding: the header, the writer and reader, the object table
// (intern), type descriptors, string interning and Decoder.shell's admission
// of a new object. It calls no kernel's enc, encAt, into, body, fillElems or
// fillMap.

// genericEncoder encodes through the generic path.
type genericEncoder struct{ *Encoder }

func newGenericEncoder(w io.Writer, opts Options) genericEncoder {
	return genericEncoder{NewEncoder(w, opts)}
}

// Encode is Encoder.Encode.
func (g genericEncoder) Encode(v any) error {
	if err := g.header(); err != nil {
		return err
	}
	return g.value(reflect.ValueOf(v), 0, false)
}

// EncodeSeededContent is Encoder.EncodeSeededContent.
func (g genericEncoder) EncodeSeededContent(id int) error {
	if err := g.header(); err != nil {
		return err
	}
	if id < 0 || id >= len(g.objs) {
		return fmt.Errorf("wire: EncodeSeededContent(%d): no such object", id)
	}
	obj := g.objs[id]
	switch obj.Kind() {
	case reflect.Ptr:
		g.w.writeByte(contentPtr)
		return g.value(obj.Elem(), 0, g.bareSlots())
	case reflect.Map:
		g.w.writeByte(contentMap)
		return g.mapEntries(obj, 0)
	case reflect.Slice:
		g.w.writeByte(contentSlice)
		g.w.writeUint(uint64(obj.Len()))
		return g.sliceElems(obj, 0)
	default:
		return fmt.Errorf("wire: seeded object %d has unexpected kind %s", id, obj.Kind())
	}
}

// bareSlots reports whether the stream's statically typed slots travel bare
// (V2) or every value is described (V1).
func (g genericEncoder) bareSlots() bool { return g.opts.Engine == EngineV2 }

// value writes v, described — tag, descriptor, contents — or, bare, as the
// occupant of a slot whose static type already says what v is: a pointer,
// map or slice without its descriptor, anything else as its contents alone.
// An interface slot is never bare: its value describes itself.
func (g genericEncoder) value(v reflect.Value, depth int, bare bool) error {
	if depth > maxEncodeDepth {
		return graph.ErrDepthExceeded
	}
	if !v.IsValid() {
		g.w.writeByte(tagNil)
		return nil
	}
	tag, t := tagOf(v.Kind()), v.Type()
	switch tag {
	case 0:
		if v.Kind() != reflect.Interface {
			return fmt.Errorf("%w: %s", graph.ErrNotSerializable, t)
		}
		if v.IsNil() {
			g.w.writeByte(tagNil)
			return nil
		}
		return g.value(v.Elem(), depth+1, false)
	case tagPtr, tagMap, tagSlice:
		if v.IsNil() {
			g.w.writeByte(tagNil)
			return nil
		}
		if id, seen, err := g.intern(v); err != nil || seen {
			return g.refOr(id, err)
		}
		// First visit: tag, descriptor (a pointer's is its pointee's), contents.
		g.w.writeByte(tag)
		if tag == tagPtr {
			t = t.Elem()
		}
	default:
		if !bare {
			g.w.writeByte(tag)
		}
	}
	if !bare {
		if err := g.encodeType(t); err != nil {
			return err
		}
	}
	switch tag {
	case tagPtr:
		return g.value(v.Elem(), depth+1, g.bareSlots())
	case tagMap:
		return g.mapEntries(v, depth)
	case tagSlice:
		g.w.writeUint(uint64(v.Len()))
		return g.sliceElems(v, depth)
	case tagStruct:
		return g.structFields(v, depth)
	case tagArray:
		return g.sliceElems(v, depth)
	}
	return g.scalarPayload(v)
}

func (g genericEncoder) mapEntries(v reflect.Value, depth int) error {
	g.w.writeUint(uint64(v.Len()))
	kp := acquireSortedKeys(v)
	defer releaseKeys(kp)
	for _, k := range *kp {
		if err := g.value(k, depth+1, g.bareSlots()); err != nil {
			return err
		}
		if err := g.value(v.MapIndex(k), depth+1, g.bareSlots()); err != nil {
			return err
		}
	}
	return nil
}

func (g genericEncoder) sliceElems(v reflect.Value, depth int) error {
	for i := 0; i < v.Len(); i++ {
		if err := g.value(v.Index(i), depth+1, g.bareSlots()); err != nil {
			return err
		}
	}
	return nil
}

func (g genericEncoder) structFields(v reflect.Value, depth int) error {
	sv := graph.Launder(v)
	// V1 ships field names, V2 a silent positional layout.
	p := planFor(sv.Type(), g.opts.Access)
	if err := verifyZeroFields(sv, p); err != nil {
		return err
	}
	if !g.bareSlots() {
		g.w.writeUint(uint64(len(p.fields)))
	}
	for _, pf := range p.fields {
		if !g.bareSlots() {
			g.w.writeString(pf.name)
		}
		f, ok, err := graph.FieldForRead(sv, pf.index, g.opts.Access)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if err := g.value(f, depth+1, g.bareSlots()); err != nil {
			return err
		}
	}
	return nil
}

func (g genericEncoder) scalarPayload(v reflect.Value) error {
	switch v.Kind() {
	case reflect.Bool:
		b := byte(0)
		if v.Bool() {
			b = 1
		}
		g.w.writeByte(b)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		g.w.writeInt(v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		g.w.writeUint(v.Uint())
	case reflect.Float32, reflect.Float64:
		g.w.writeFloat(v.Float())
	case reflect.Complex64, reflect.Complex128:
		c := v.Complex()
		g.w.writeFloat(real(c))
		g.w.writeFloat(imag(c))
	case reflect.String:
		g.encodeInternedString(v.String())
	default:
		return fmt.Errorf("%w: %s", graph.ErrNotSerializable, v.Type())
	}
	return nil
}

// planField describes one struct field included in the wire format.
type planField struct {
	index int
	name  string
}

// structPlan is the per-(type, access-mode) field schema: the fields in
// declaration order, and the unexported ones AccessExported leaves out,
// which must be zero.
type structPlan struct {
	fields    []planField
	zeroCheck []int
	byName    map[string]int // wire name -> field index (V1 decode)
}

// planFor returns the field plan for t under mode, recomputed from raw
// reflection every time.
func planFor(t reflect.Type, mode graph.AccessMode) *structPlan {
	p := &structPlan{byName: make(map[string]int)}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() && mode == graph.AccessExported {
			p.zeroCheck = append(p.zeroCheck, i)
			continue
		}
		p.fields = append(p.fields, planField{index: i, name: f.Name})
		p.byName[f.Name] = i
	}
	return p
}

// verifyZeroFields enforces the no-silent-loss rule for excluded fields.
func verifyZeroFields(sv reflect.Value, p *structPlan) error {
	for _, i := range p.zeroCheck {
		if !sv.Field(i).IsZero() {
			return fmt.Errorf("%w: field %s.%s", graph.ErrUnexportedField,
				sv.Type(), sv.Type().Field(i).Name)
		}
	}
	return nil
}

// genericDecoder decodes through the generic path.
type genericDecoder struct{ *Decoder }

func newGenericDecoder(data []byte, opts Options) genericDecoder {
	return genericDecoder{NewDecoderBytes(data, opts)}
}

// Decode is Decoder.Decode.
func (g genericDecoder) Decode() (any, error) {
	if err := g.header(); err != nil {
		return nil, err
	}
	v, err := g.value(0)
	if err != nil || !v.IsValid() {
		return nil, err
	}
	return v.Interface(), nil
}

// DecodeSeededContent is Decoder.DecodeSeededContent, staging a pointer
// record in a cell of its own.
func (g genericDecoder) DecodeSeededContent(id int) (reflect.Value, error) {
	if err := g.header(); err != nil {
		return reflect.Value{}, err
	}
	if id < 0 || id >= g.numSeeded {
		return reflect.Value{}, fmt.Errorf("wire: DecodeSeededContent(%d): not a seeded object", id)
	}
	orig := g.table[id]
	kind, err := g.r.readByte()
	if err != nil {
		return reflect.Value{}, err
	}
	if kind < contentPtr || kind > contentSlice {
		return reflect.Value{}, fmt.Errorf("%w: unknown content kind 0x%02x", ErrBadStream, kind)
	}
	t := orig.Type()
	if tag := kind - contentPtr + tagPtr; tag != tagOf(t.Kind()) {
		return reflect.Value{}, fmt.Errorf("%w: content kind 0x%02x for %s object", ErrBadStream, kind, orig.Kind())
	}
	if kind == contentPtr {
		tmp := reflect.New(t.Elem())
		return tmp, g.slot(tmp.Elem(), 0)
	}
	k := g.memo.of(t, g.access) // for admission only
	least := k.elem.min
	if kind == contentMap {
		least += k.key.min
	}
	n, err := g.lenOf(least, t.Elem())
	if err != nil {
		return reflect.Value{}, err
	}
	switch {
	case kind == contentMap:
		tmp := reflect.MakeMapWithSize(t, n)
		return tmp, g.mapEntriesInto(tmp, n, 0)
	case n == orig.Len():
		tmp := reflect.MakeSlice(t, n, n)
		return tmp, g.sliceElemsInto(tmp, 0)
	}
	return reflect.Value{}, fmt.Errorf("%w: slice object resized %d -> %d; slices are fixed-length array objects",
		ErrBadStream, orig.Len(), n)
}

// value reads one described value at depth.
func (g genericDecoder) value(depth int) (reflect.Value, error) {
	if depth > maxDecodeDepth {
		return reflect.Value{}, errDecodeDepth
	}
	tag, err := g.r.readByte()
	if err != nil {
		return reflect.Value{}, err
	}
	switch {
	case tag == tagNil:
		return reflect.Value{}, nil
	case tag == tagRef:
		return g.decodeRef()
	case tag > tagScalar:
		return reflect.Value{}, fmt.Errorf("%w: unknown value tag 0x%02x", ErrBadStream, tag)
	}
	t, err := g.decodeType(0)
	if err != nil {
		return reflect.Value{}, err
	}
	return g.build(tag, t, depth)
}

// build materializes what tag announces as a value of type t — for tagPtr a
// pointer to one: Decoder.shell admits and allocates it, and the generic
// path fills it.
func (g genericDecoder) build(tag byte, t reflect.Type, depth int) (reflect.Value, error) {
	v, n, err := g.shell(tag, g.memo.of(t, g.access))
	if err != nil {
		return v, err
	}
	switch tag {
	case tagPtr:
		return v, g.slot(v.Elem(), depth+1)
	case tagMap:
		return v, g.mapEntriesInto(v, n, depth)
	case tagSlice:
		return v, g.sliceElemsInto(v, depth)
	}
	return v, g.bodyInto(v, depth)
}

// slot decodes the next value of the stream into dst, a slot of static type
// dst.Type(). Under V1, and wherever the slot is an interface, that is a
// described value; otherwise it is bare: a pointer, map or slice as tagNil,
// tagRef or its own tag and contents, anything else as its contents alone.
func (g genericDecoder) slot(dst reflect.Value, depth int) error {
	t := dst.Type()
	want := tagOf(t.Kind())
	var v reflect.Value
	var err error
	switch {
	case g.engine == EngineV1 || want == 0:
		v, err = g.value(depth)
	case depth > maxDecodeDepth:
		return errDecodeDepth
	case want >= tagStruct:
		return g.bodyInto(dst, depth)
	default:
		var tag byte
		if tag, err = g.r.readByte(); err != nil {
			return err
		}
		switch {
		case tag == tagNil:
		case tag == tagRef:
			v, err = g.decodeRef()
		case tag != want:
			err = fmt.Errorf("%w: value tag %d in a slot of type %s", ErrBadStream, tag, t)
		case tag == tagPtr:
			v, err = g.build(tag, t.Elem(), depth)
		default:
			v, err = g.build(tag, t, depth)
		}
	}
	if err != nil {
		return err
	}
	return setDecoded(dst, v)
}

// bodyInto decodes the contents of an inline value — struct fields, array
// elements, a scalar payload — into v.
func (g genericDecoder) bodyInto(v reflect.Value, depth int) error {
	switch v.Kind() {
	case reflect.Struct:
		return g.structInto(v, depth)
	case reflect.Array:
		return g.sliceElemsInto(v, depth)
	}
	return g.scalarInto(v)
}

// mapEntriesInto and sliceElemsInto count an entry one deeper than its
// container at depth, as the encoder does.
func (g genericDecoder) mapEntriesInto(mv reflect.Value, n, depth int) error {
	for i := 0; i < n; i++ {
		key := reflect.New(mv.Type().Key()).Elem()
		if err := g.slot(key, depth+1); err != nil {
			return err
		}
		val := reflect.New(mv.Type().Elem()).Elem()
		if err := g.slot(val, depth+1); err != nil {
			return err
		}
		if err := setEntry(mv, key, val); err != nil {
			return err
		}
	}
	return nil
}

func (g genericDecoder) sliceElemsInto(sv reflect.Value, depth int) error {
	for i := 0; i < sv.Len(); i++ {
		if err := g.slot(sv.Index(i), depth+1); err != nil {
			return err
		}
	}
	return nil
}

// structInto decodes a struct body into sv, which must be an addressable
// value of the encoded type.
func (g genericDecoder) structInto(sv reflect.Value, depth int) error {
	st := sv.Type()
	p := planFor(st, g.access)
	if g.engine != EngineV1 {
		for _, pf := range p.fields {
			dst, ok, err := graph.FieldForWrite(sv, pf.index, g.access)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			if err := g.slot(dst, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	// V1 ships a field count and names; resolve each by name.
	n, err := g.r.readLen()
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		name, err := g.r.readString()
		if err != nil {
			return err
		}
		idx, ok := p.byName[name]
		if !ok {
			return fmt.Errorf("%w: type %s has no field %q", ErrBadStream, st, name)
		}
		dst, ok, err := graph.FieldForWrite(sv, idx, g.access)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("%w: field %s.%s not writable in %s mode", ErrBadStream, st, name, g.access)
		}
		if err := g.slot(dst, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// scalarInto reads a scalar payload directly into v, which must be a
// settable value of the encoded scalar type.
func (g genericDecoder) scalarInto(v reflect.Value) error {
	switch v.Kind() {
	case reflect.Bool:
		b, err := g.r.readByte()
		if err != nil {
			return err
		}
		v.SetBool(b != 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		i, err := g.r.readInt()
		if err != nil {
			return err
		}
		if v.OverflowInt(i) {
			return fmt.Errorf("%w: %d overflows %s", ErrBadStream, i, v.Type())
		}
		v.SetInt(i)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		u, err := g.r.readUint()
		if err != nil {
			return err
		}
		if v.OverflowUint(u) {
			return fmt.Errorf("%w: %d overflows %s", ErrBadStream, u, v.Type())
		}
		v.SetUint(u)
	case reflect.Float32, reflect.Float64:
		f, err := g.r.readFloat()
		if err != nil {
			return err
		}
		if v.OverflowFloat(f) {
			return fmt.Errorf("%w: %g overflows %s", ErrBadStream, f, v.Type())
		}
		v.SetFloat(f)
	case reflect.Complex64, reflect.Complex128:
		re, err := g.r.readFloat()
		if err != nil {
			return err
		}
		im, err := g.r.readFloat()
		if err != nil {
			return err
		}
		if v.OverflowComplex(complex(re, im)) {
			return fmt.Errorf("%w: %g overflows %s", ErrBadStream, complex(re, im), v.Type())
		}
		v.SetComplex(complex(re, im))
	case reflect.String:
		s, err := g.decodeInternedString()
		if err != nil {
			return err
		}
		v.SetString(s)
	default:
		return fmt.Errorf("%w: scalar descriptor with kind %s", ErrBadStream, v.Kind())
	}
	return nil
}

// A codecPath is one implementation under test: the runtime's kernels, or
// the generic oracle. Its encoders and decoders are used through the methods
// below, which both implement.
type codecPath struct {
	name string
	enc  func(w io.Writer, opts Options) pathEncoder
	dec  func(data []byte, opts Options) pathDecoder
}

type pathEncoder interface {
	Encode(v any) error
	EncodeSeededContent(id int) error
	SeedDecoded(objs []reflect.Value) error
	Flush() error
	BytesWritten() int64
	Objects() []reflect.Value
}

type pathDecoder interface {
	Decode() (any, error)
	DecodeSeededContent(id int) (reflect.Value, error)
	SeedDetached(cells []reflect.Value)
	ExpectContents(n int)
	BytesRead() int64
	Objects() []reflect.Value
	ReleaseArena()
}

var (
	kernelPath = codecPath{"kernel",
		func(w io.Writer, opts Options) pathEncoder { return NewEncoder(w, opts) },
		func(data []byte, opts Options) pathDecoder { return NewDecoderBytes(data, opts) }}
	genericPath = codecPath{"generic",
		func(w io.Writer, opts Options) pathEncoder { return newGenericEncoder(w, opts) },
		func(data []byte, opts Options) pathDecoder { return newGenericDecoder(data, opts) }}
	codecPaths = []codecPath{kernelPath, genericPath}
)
