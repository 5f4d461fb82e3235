package wire

import (
	"fmt"
	"math"
	"reflect"

	"nrmi/internal/graph"
)

// Engine V3 decode: frames are parsed by slicing (flat.go documents the
// layout). New objects come out of the decoder's arena; a seeded-content
// record is staged into a temporary, as under V1/V2, which the core layer
// validates and commits into the original.

// flatCur is a bounds-checked cursor over one frame region. Every read
// failure is a structural stream error: the region lengths were declared by
// the frame header, so running out of bytes means the frame lies.
type flatCur struct {
	b   []byte
	pos int
}

func (c *flatCur) remaining() int { return len(c.b) - c.pos }

func (c *flatCur) u8() (byte, error) {
	if c.pos >= len(c.b) {
		return 0, fmt.Errorf("%w: truncated flat frame", ErrBadStream)
	}
	v := c.b[c.pos]
	c.pos++
	return v, nil
}

func (c *flatCur) u32() (uint32, error) {
	if len(c.b)-c.pos < 4 {
		return 0, fmt.Errorf("%w: truncated flat frame", ErrBadStream)
	}
	b := c.b[c.pos:]
	c.pos += 4
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, nil
}

func (c *flatCur) u64() (uint64, error) {
	if len(c.b)-c.pos < 8 {
		return 0, fmt.Errorf("%w: truncated flat frame", ErrBadStream)
	}
	b := c.b[c.pos:]
	c.pos += 8
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56, nil
}

// bytes checks every length of bytes — a region, a name, a string.
func (c *flatCur) bytes(n int) ([]byte, error) {
	if n < 0 || len(c.b)-c.pos < n {
		return nil, fmt.Errorf("%w: truncated flat frame: %w", ErrBadStream, errShort)
	}
	p := c.b[c.pos : c.pos+n : c.pos+n]
	c.pos += n
	return p, nil
}

// flatFrame is one parsed frame. body aliases the reader's payload.
type flatFrame struct {
	body     []byte
	offs     []byte // raw offset table: (newNodes+1) x u32 LE
	recs     []byte // record region
	tail     flatCur
	newNodes int
	base     int // table id of the frame's first new node
}

func (fr *flatFrame) offAt(i int) int {
	b := fr.offs[4*i:]
	return int(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
}

// newFlatFrame takes a frame shell from the decoder's freelist, or
// allocates one.
func (d *Decoder) newFlatFrame(body []byte) *flatFrame {
	if n := len(d.frameFree); n > 0 {
		fr := d.frameFree[n-1]
		d.frameFree = d.frameFree[:n-1]
		*fr = flatFrame{body: body}
		return fr
	}
	return &flatFrame{body: body}
}

// recycleFrame parks the cleared shell of a frame on the freelist.
func (d *Decoder) recycleFrame(fr *flatFrame) {
	*fr = flatFrame{}
	d.frameFree = append(d.frameFree, fr)
}

// arenaFor lazily creates the decoder's arena.
func (d *Decoder) arenaFor() *Arena {
	if d.arena == nil {
		d.arena = acquireArena()
	}
	return d.arena
}

// ReleaseArena releases the decoder's arena and its staging slab (dropping
// the slab references) without recycling the decoder itself. The core layer
// calls it on failed restores, where the decoder must be abandoned but the
// arena's lifetime contract — released exactly once per call — still holds.
// Objects already handed out survive through ordinary GC reachability.
func (d *Decoder) ReleaseArena() {
	d.stage.drop()
	if d.arena != nil {
		d.arena.Release()
		d.arena = nil
	}
}

// readFlatFrame reads and validates one frame: header sanity, a complete
// type section, a strictly consistent offset table, then materializes the
// frame's new objects (shell pass: identity exists before any content is
// parsed, so cycles resolve) and fills them (fill pass). The returned
// frame's tail cursor is positioned at the frame tail.
func (d *Decoder) readFlatFrame() (*flatFrame, error) {
	n, err := d.r.readLen()
	if err != nil {
		return nil, err
	}
	body, err := d.r.slice(n)
	if err != nil {
		return nil, err
	}
	fr := d.newFlatFrame(body)
	if err := d.parseFlatFrame(fr); err != nil {
		d.recycleFrame(fr)
		return nil, err
	}
	return fr, nil
}

func (d *Decoder) parseFlatFrame(fr *flatFrame) error {
	cur := flatCur{b: fr.body}
	newNodes, err := cur.u32()
	if err != nil {
		return err
	}
	newTypes, err := cur.u32()
	if err != nil {
		return err
	}
	typesLen, err := cur.u32()
	if err != nil {
		return err
	}
	// A node is a byte at least; 4*(newNodes+1) below stays an int.
	if uint64(newNodes) > uint64(cur.remaining()) {
		return fmt.Errorf("%w: %d nodes in a frame of %d bytes", errShort, newNodes, len(fr.body))
	}
	typeBytes, err := cur.bytes(int(typesLen))
	if err != nil {
		return err
	}
	tcur := flatCur{b: typeBytes}
	for i := uint32(0); i < newTypes; i++ {
		if err := d.flatTypeDef(&tcur); err != nil {
			return err
		}
	}
	if tcur.remaining() != 0 {
		return fmt.Errorf("%w: %d stray bytes after type section", ErrBadStream, tcur.remaining())
	}

	fr.newNodes = int(newNodes)
	fr.offs, err = cur.bytes(4 * (fr.newNodes + 1))
	if err != nil {
		return err
	}
	recsLen := fr.offAt(fr.newNodes)
	if fr.offAt(0) != 0 {
		return fmt.Errorf("%w: offset table does not start at 0", ErrBadStream)
	}
	for i := 0; i < fr.newNodes; i++ {
		if fr.offAt(i) > fr.offAt(i+1) {
			return fmt.Errorf("%w: offset table not ascending at %d", ErrBadStream, i)
		}
	}
	fr.recs, err = cur.bytes(recsLen)
	if err != nil {
		return err
	}
	fr.tail = cur
	fr.base = len(d.table)

	// Shell pass: materialize every new node from its record header alone.
	for i := 0; i < fr.newNodes; i++ {
		rc := flatCur{b: fr.recs[fr.offAt(i):fr.offAt(i+1)]}
		shell, err := d.flatShell(&rc)
		if err != nil {
			return fmt.Errorf("wire: flat node %d: %w", fr.base+i, err)
		}
		d.table = append(d.table, shell)
	}
	// Fill pass: parse each record body into its shell. A record must
	// consume exactly its declared span — overlapping or padded records are
	// structural errors, not silently tolerated.
	for i := 0; i < fr.newNodes; i++ {
		rc := flatCur{b: fr.recs[fr.offAt(i):fr.offAt(i+1)]}
		if err := d.flatFillRecord(&rc, d.table[fr.base+i]); err != nil {
			return fmt.Errorf("wire: flat node %d: %w", fr.base+i, err)
		}
		if rc.remaining() != 0 {
			return fmt.Errorf("%w: node %d record has %d stray bytes",
				ErrBadStream, fr.base+i, rc.remaining())
		}
	}
	return nil
}

// flatTypeDef parses one type definition and appends the resolved type to
// the cumulative table. Definitions may only reference earlier indices.
func (d *Decoder) flatTypeDef(c *flatCur) error {
	lead, err := c.u8()
	if err != nil {
		return err
	}
	at := func() (reflect.Type, error) {
		idx, err := c.u32()
		if err != nil {
			return nil, err
		}
		if int(idx) >= len(d.typeTable) || d.typeTable[idx] == nil {
			return nil, fmt.Errorf("%w: type def references index %d of %d",
				ErrBadStream, idx, len(d.typeTable))
		}
		return d.typeTable[idx], nil
	}
	var t reflect.Type
	switch lead {
	case dNamed:
		nameLen, err := c.u32()
		if err != nil {
			return err
		}
		nb, err := c.bytes(int(nameLen))
		if err != nil {
			return err
		}
		t, err = d.opts.Registry.TypeByName(nb)
		if err != nil {
			return err
		}
	case dPtr:
		elem, err := at()
		if err != nil {
			return err
		}
		t = reflect.PointerTo(elem)
	case dSlice:
		elem, err := at()
		if err != nil {
			return err
		}
		t = reflect.SliceOf(elem)
	case dMap:
		key, err := at()
		if err != nil {
			return err
		}
		elem, err := at()
		if err != nil {
			return err
		}
		if !key.Comparable() {
			return fmt.Errorf("%w: map key type %s is not comparable", ErrBadStream, key)
		}
		t = reflect.MapOf(key, elem)
	case dArray:
		n, err := c.u32()
		if err != nil {
			return err
		}
		elem, err := at()
		if err != nil {
			return err
		}
		if t, err = arrayOf(uint64(n), elem); err != nil {
			return err
		}
	case dIface:
		t = emptyIfaceType
	default:
		k := reflect.Kind(lead)
		kt, ok := kindTypes[k]
		if !ok {
			return fmt.Errorf("%w: unknown flat type def lead 0x%02x", ErrBadStream, lead)
		}
		t = kt
	}
	d.typeTable = append(d.typeTable, t)
	return nil
}

func (d *Decoder) flatTypeAt(idx uint32) (reflect.Type, error) {
	if int(idx) >= len(d.typeTable) || d.typeTable[idx] == nil {
		return nil, fmt.Errorf("%w: type index %d of %d", ErrBadStream, idx, len(d.typeTable))
	}
	return d.typeTable[idx], nil
}

func (d *Decoder) flatMin(t reflect.Type) int { return d.memo.of(t, d.access).min }

// flatHead parses a record header and admits what the record holds: the
// record kind, its type (the pointee's, for a pointer record) and, for a map
// or slice record, its count. A record's values lie within the record.
func (d *Decoder) flatHead(c *flatCur) (lead byte, t reflect.Type, n int, err error) {
	if lead, err = c.u8(); err != nil {
		return
	}
	idx, err := c.u32()
	if err != nil {
		return
	}
	if t, err = d.flatTypeAt(idx); err != nil {
		return
	}
	var count uint32
	switch lead {
	case fRecPtr:
		return lead, t, 1, d.r.admit(1, d.flatMin(t), t, c.remaining())
	case fRecMap:
		if t.Kind() != reflect.Map {
			return lead, t, 0, fmt.Errorf("%w: map record with non-map type %s", ErrBadStream, t)
		}
		if count, err = c.u32(); err == nil {
			err = d.r.admit(uint64(count), d.flatMin(t.Key())+d.flatMin(t.Elem()), t.Elem(), c.remaining())
		}
	case fRecSlice:
		if t.Kind() != reflect.Slice {
			return lead, t, 0, fmt.Errorf("%w: slice record with non-slice type %s", ErrBadStream, t)
		}
		if count, err = c.u32(); err == nil {
			err = d.r.admit(uint64(count), d.flatMin(t.Elem()), t.Elem(), c.remaining())
		}
	default:
		err = fmt.Errorf("%w: unknown record kind 0x%02x", ErrBadStream, lead)
	}
	return lead, t, int(count), err
}

// flatShell materializes an empty object from a record header: pointers and
// slices come from the arena, maps from reflect.MakeMapWithSize (map
// storage cannot be batched).
func (d *Decoder) flatShell(c *flatCur) (reflect.Value, error) {
	lead, t, n, err := d.flatHead(c)
	switch {
	case err != nil:
		return reflect.Value{}, err
	case lead == fRecPtr:
		return d.arenaFor().NewPtr(t), nil
	case lead == fRecMap:
		return reflect.MakeMapWithSize(t, n), nil
	}
	return d.arenaFor().NewSlice(t, n), nil
}

// flatFillRecord parses a record into shell, which flatShell made from the
// same bytes: the header is read again, not admitted again.
func (d *Decoder) flatFillRecord(c *flatCur, shell reflect.Value) error {
	lead, err := c.u8()
	if err != nil {
		return err
	}
	if _, err := c.u32(); err != nil { // type index, validated by the shell pass
		return err
	}
	n := 1
	if lead != fRecPtr {
		count, err := c.u32() // fixed by the shell pass
		if err != nil {
			return err
		}
		n = int(count)
	}
	return d.flatFillBody(c, lead, shell, n)
}

// flatFillBody parses the body of a record of kind lead and count n into v.
func (d *Decoder) flatFillBody(c *flatCur, lead byte, v reflect.Value, n int) error {
	switch lead {
	case fRecPtr:
		return d.flatFillValue(c, v.Elem(), 0)
	case fRecMap:
		return d.flatFillMapEntries(c, v, n)
	}
	for i := 0; i < n; i++ {
		if err := d.flatFillValue(c, v.Index(i), 0); err != nil {
			return err
		}
	}
	return nil
}

// flatFillMapEntries parses count key/value pairs into map mv. The staging
// cells are reused across entries: SetMapIndex copies both words, so one
// pair of cells serves the whole map.
func (d *Decoder) flatFillMapEntries(c *flatCur, mv reflect.Value, count int) error {
	if count == 0 {
		return nil
	}
	mt := mv.Type()
	key := reflect.New(mt.Key()).Elem()
	val := reflect.New(mt.Elem()).Elem()
	for i := 0; i < count; i++ {
		key.SetZero()
		val.SetZero()
		if err := d.flatFillValue(c, key, 0); err != nil {
			return err
		}
		if err := d.flatFillValue(c, val, 0); err != nil {
			return err
		}
		if err := setEntry(mv, key, val); err != nil {
			return err
		}
	}
	return nil
}

// flatFillValue parses one value expression into dst, validating as it
// goes: type identity, reference bounds, assignability, and scalar overflow
// are all checked before the corresponding write, and any error leaves dst
// with a partially written but type-correct prefix — which is why the
// restore path fills a staged temporary, never the original.
func (d *Decoder) flatFillValue(c *flatCur, dst reflect.Value, depth int) error {
	if depth > maxDecodeDepth {
		return errDecodeDepth
	}
	lead, err := c.u8()
	if err != nil {
		return err
	}
	switch lead {
	case fNil:
		dst.SetZero()
		return nil

	case fRef:
		id, err := c.u32()
		if err != nil {
			return err
		}
		if int(id) >= len(d.table) {
			return fmt.Errorf("%w: reference to unknown object %d", ErrBadStream, id)
		}
		obj := d.table[id]
		if !obj.Type().AssignableTo(dst.Type()) {
			return fmt.Errorf("%w: cannot assign %s to %s", ErrBadStream, obj.Type(), dst.Type())
		}
		dst.Set(obj)
		return nil

	case fScalar:
		idx, err := c.u32()
		if err != nil {
			return err
		}
		st, err := d.flatTypeAt(idx)
		if err != nil {
			return err
		}
		if st == dst.Type() {
			return d.flatScalarInto(c, dst)
		}
		if !st.AssignableTo(dst.Type()) {
			return fmt.Errorf("%w: cannot assign %s to %s", ErrBadStream, st, dst.Type())
		}
		v := reflect.New(st).Elem()
		if err := d.flatScalarInto(c, v); err != nil {
			return err
		}
		dst.Set(v)
		return nil

	case fStruct:
		idx, err := c.u32()
		if err != nil {
			return err
		}
		st, err := d.flatTypeAt(idx)
		if err != nil {
			return err
		}
		if st.Kind() != reflect.Struct {
			return fmt.Errorf("%w: struct value with non-struct type %s", ErrBadStream, st)
		}
		if st == dst.Type() {
			return d.flatFillStruct(c, d.memo.of(st, d.access), dst, depth)
		}
		if !st.AssignableTo(dst.Type()) {
			return fmt.Errorf("%w: cannot assign %s to %s", ErrBadStream, st, dst.Type())
		}
		v := reflect.New(st).Elem()
		if err := d.flatFillStruct(c, d.memo.of(st, d.access), v, depth); err != nil {
			return err
		}
		dst.Set(v)
		return nil

	case fArray:
		idx, err := c.u32()
		if err != nil {
			return err
		}
		at, err := d.flatTypeAt(idx)
		if err != nil {
			return err
		}
		if at.Kind() != reflect.Array {
			return fmt.Errorf("%w: array value with non-array type %s", ErrBadStream, at)
		}
		if at == dst.Type() {
			for i := 0; i < at.Len(); i++ {
				if err := d.flatFillValue(c, dst.Index(i), depth+1); err != nil {
					return err
				}
			}
			return nil
		}
		if !at.AssignableTo(dst.Type()) {
			return fmt.Errorf("%w: cannot assign %s to %s", ErrBadStream, at, dst.Type())
		}
		if err := d.r.admit(1, d.flatMin(at), at, c.remaining()); err != nil {
			return err
		}
		v := reflect.New(at).Elem()
		for i := 0; i < at.Len(); i++ {
			if err := d.flatFillValue(c, v.Index(i), depth+1); err != nil {
				return err
			}
		}
		dst.Set(v)
		return nil

	default:
		return fmt.Errorf("%w: unknown flat value lead 0x%02x", ErrBadStream, lead)
	}
}

// flatFillStruct fills a struct body into sv (an addressable value of k's
// type, the encoded one), in plan order, laundering unexported fields
// exactly like the V2 in-place kernel path.
func (d *Decoder) flatFillStruct(c *flatCur, k *kernel, sv reflect.Value, depth int) error {
	for i := range k.fields {
		f := &k.fields[i]
		dst := sv.Field(f.index)
		if f.launder {
			dst = graph.Launder(dst)
		}
		if err := d.flatFillValue(c, dst, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// flatScalarInto writes a scalar payload into v, which must have the
// encoded scalar type.
func (d *Decoder) flatScalarInto(c *flatCur, v reflect.Value) error {
	switch v.Kind() {
	case reflect.Bool:
		b, err := c.u8()
		if err != nil {
			return err
		}
		v.SetBool(b != 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		u, err := c.u64()
		if err != nil {
			return err
		}
		i := int64(u)
		if v.OverflowInt(i) {
			return fmt.Errorf("%w: %d overflows %s", ErrBadStream, i, v.Type())
		}
		v.SetInt(i)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		u, err := c.u64()
		if err != nil {
			return err
		}
		if v.OverflowUint(u) {
			return fmt.Errorf("%w: %d overflows %s", ErrBadStream, u, v.Type())
		}
		v.SetUint(u)
	case reflect.Float32, reflect.Float64:
		u, err := c.u64()
		if err != nil {
			return err
		}
		v.SetFloat(math.Float64frombits(u))
	case reflect.Complex64, reflect.Complex128:
		re, err := c.u64()
		if err != nil {
			return err
		}
		im, err := c.u64()
		if err != nil {
			return err
		}
		v.SetComplex(complex(math.Float64frombits(re), math.Float64frombits(im)))
	case reflect.String:
		n, err := c.u32()
		if err != nil {
			return err
		}
		sb, err := c.bytes(int(n))
		if err != nil {
			return err
		}
		v.SetString(string(sb)) // the only copy out of the frame
	default:
		return fmt.Errorf("%w: scalar value with kind %s", ErrBadStream, v.Kind())
	}
	return nil
}

// flatDecodeRoot reads one frame and returns its root value. The frame
// bytes are fully consumed into the object graph (strings are copied), so
// staged frames release before returning.
func (d *Decoder) flatDecodeRoot() (reflect.Value, error) {
	fr, err := d.readFlatFrame()
	if err != nil {
		return reflect.Value{}, err
	}
	defer d.recycleFrame(fr)
	v, err := d.flatAnyValue(&fr.tail, 0)
	if err != nil {
		return reflect.Value{}, err
	}
	if fr.tail.remaining() != 0 {
		return reflect.Value{}, fmt.Errorf("%w: %d stray bytes after frame tail",
			ErrBadStream, fr.tail.remaining())
	}
	return v, nil
}

// flatAnyValue parses a value expression with no destination: the wire type
// dictates the result type, as at the top level of Decode.
func (d *Decoder) flatAnyValue(c *flatCur, depth int) (reflect.Value, error) {
	if depth > maxDecodeDepth {
		return reflect.Value{}, errDecodeDepth
	}
	lead, err := c.u8()
	if err != nil {
		return reflect.Value{}, err
	}
	switch lead {
	case fNil:
		return reflect.Value{}, nil
	case fRef:
		id, err := c.u32()
		if err != nil {
			return reflect.Value{}, err
		}
		if int(id) >= len(d.table) {
			return reflect.Value{}, fmt.Errorf("%w: reference to unknown object %d", ErrBadStream, id)
		}
		return d.table[id], nil
	case fScalar, fStruct, fArray:
		idx, err := c.u32()
		if err != nil {
			return reflect.Value{}, err
		}
		t, err := d.flatTypeAt(idx)
		if err != nil {
			return reflect.Value{}, err
		}
		if err := d.r.admit(1, d.flatMin(t), t, c.remaining()); err != nil {
			return reflect.Value{}, err
		}
		v := reflect.New(t).Elem()
		switch lead {
		case fScalar:
			err = d.flatScalarInto(c, v)
		case fStruct:
			if t.Kind() != reflect.Struct {
				return reflect.Value{}, fmt.Errorf("%w: struct value with non-struct type %s", ErrBadStream, t)
			}
			err = d.flatFillStruct(c, d.memo.of(t, d.access), v, depth)
		case fArray:
			if t.Kind() != reflect.Array {
				return reflect.Value{}, fmt.Errorf("%w: array value with non-array type %s", ErrBadStream, t)
			}
			for i := 0; i < t.Len() && err == nil; i++ {
				err = d.flatFillValue(c, v.Index(i), depth+1)
			}
		}
		if err != nil {
			return reflect.Value{}, err
		}
		return v, nil
	default:
		return reflect.Value{}, fmt.Errorf("%w: unknown flat value lead 0x%02x", ErrBadStream, lead)
	}
}

// flatSeededStaged is DecodeSeededContent's engine-V3 implementation: it
// reads a content frame, whose new objects come from the arena, and stages
// the record the way V2 stages one. The temporary is allocated apart from
// the arena — a pointee in the staging slab, a slice or map of its own — so
// that a new object the application keeps cannot keep the temporary, and
// what it pointed at before the commit, alive.
func (d *Decoder) flatSeededStaged(id int) (reflect.Value, error) {
	orig := d.table[id]
	fr, err := d.readFlatFrame()
	if err != nil {
		return reflect.Value{}, err
	}
	defer d.recycleFrame(fr)
	lead, t, n, err := d.flatHead(&fr.tail)
	if err != nil {
		return reflect.Value{}, err
	}
	var tmp reflect.Value
	switch {
	case lead == fRecPtr && orig.Kind() == reflect.Ptr && t == orig.Type().Elem():
		tmp = d.stagingCell(d.memo.of(orig.Type(), d.access), id)
	case lead == fRecPtr || t != orig.Type():
		return reflect.Value{}, fmt.Errorf("%w: content record 0x%02x of type %s for seeded %s object",
			ErrBadStream, lead, t, orig.Type())
	case lead == fRecMap:
		tmp = reflect.MakeMapWithSize(t, n)
	case n == orig.Len():
		tmp = reflect.MakeSlice(t, n, n)
	default:
		return reflect.Value{}, fmt.Errorf("%w: slice object resized %d -> %d; slices are fixed-length array objects",
			ErrBadStream, orig.Len(), n)
	}
	if err := d.flatFillBody(&fr.tail, lead, tmp, n); err != nil {
		return reflect.Value{}, err
	}
	if fr.tail.remaining() != 0 {
		return reflect.Value{}, fmt.Errorf("%w: %d stray bytes after content record",
			ErrBadStream, fr.tail.remaining())
	}
	return tmp, nil
}
