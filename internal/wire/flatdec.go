package wire

import (
	"fmt"
	"math"
	"reflect"

	"nrmi/internal/graph"
)

// Engine V3 decode: frames are parsed by slicing (flat.go documents the
// layout). New objects come out of the decoder's arena; seeded-content
// records are not staged at all — DecodeSeededFlat validates a record
// against the original object without writing, and FlatContent.Commit
// re-parses it straight into the original's fields.

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
	released bool
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
// Exactly-once: a frame already recycled elsewhere is left alone.
func (d *Decoder) recycleFrame(fr *flatFrame) {
	if fr == nil || fr.released {
		return
	}
	*fr = flatFrame{released: true}
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

// flatShell materializes an empty object from a record header: pointers and
// slices come from the arena, maps from reflect.MakeMapWithSize (map
// storage cannot be batched).
func (d *Decoder) flatShell(c *flatCur) (reflect.Value, error) {
	lead, err := c.u8()
	if err != nil {
		return reflect.Value{}, err
	}
	idx, err := c.u32()
	if err != nil {
		return reflect.Value{}, err
	}
	t, err := d.flatTypeAt(idx)
	if err != nil {
		return reflect.Value{}, err
	}
	// A record's values lie within the record.
	switch lead {
	case fRecPtr:
		if err := d.r.admit(1, d.flatMin(t), t, c.remaining()); err != nil {
			return reflect.Value{}, err
		}
		return d.arenaFor().NewPtr(t), nil
	case fRecMap:
		if t.Kind() != reflect.Map {
			return reflect.Value{}, fmt.Errorf("%w: map record with non-map type %s", ErrBadStream, t)
		}
		count, err := c.u32()
		if err != nil {
			return reflect.Value{}, err
		}
		if err := d.r.admit(uint64(count), d.flatMin(t.Key())+d.flatMin(t.Elem()), t.Elem(), c.remaining()); err != nil {
			return reflect.Value{}, err
		}
		return reflect.MakeMapWithSize(t, int(count)), nil
	case fRecSlice:
		if t.Kind() != reflect.Slice {
			return reflect.Value{}, fmt.Errorf("%w: slice record with non-slice type %s", ErrBadStream, t)
		}
		n, err := c.u32()
		if err != nil {
			return reflect.Value{}, err
		}
		if err := d.r.admit(uint64(n), d.flatMin(t.Elem()), t.Elem(), c.remaining()); err != nil {
			return reflect.Value{}, err
		}
		return d.arenaFor().NewSlice(t, int(n)), nil
	default:
		return reflect.Value{}, fmt.Errorf("%w: unknown record kind 0x%02x", ErrBadStream, lead)
	}
}

// flatFillRecord parses a record body into shell, which must have been
// produced by flatShell from the same bytes (the header re-parse is cheap
// and keeps the two passes independent).
func (d *Decoder) flatFillRecord(c *flatCur, shell reflect.Value) error {
	lead, err := c.u8()
	if err != nil {
		return err
	}
	if _, err := c.u32(); err != nil { // type index, validated by the shell pass
		return err
	}
	switch lead {
	case fRecPtr:
		return d.flatFillValue(c, shell.Elem(), 0)
	case fRecMap:
		count, err := c.u32()
		if err != nil {
			return err
		}
		return d.flatFillMapEntries(c, shell, int(count))
	case fRecSlice:
		if _, err := c.u32(); err != nil { // length, fixed by the shell pass
			return err
		}
		for i := 0; i < shell.Len(); i++ {
			if err := d.flatFillValue(c, shell.Index(i), 0); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("%w: unknown record kind 0x%02x", ErrBadStream, lead)
	}
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
// with a partially written but type-correct prefix — callers that need
// all-or-nothing semantics (the restore path) run flatCheckValue over the
// same bytes first.
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
// reads a content frame and materializes the record into a fresh temporary,
// matching the V2 staging semantics. The zero-copy path is DecodeSeededFlat.
func (d *Decoder) flatSeededStaged(id int) (reflect.Value, error) {
	orig := d.table[id]
	fr, err := d.readFlatFrame()
	if err != nil {
		return reflect.Value{}, err
	}
	defer d.recycleFrame(fr)
	head := fr.tail // shell pass re-reads the record header
	tmp, err := d.flatShell(&head)
	if err != nil {
		return reflect.Value{}, err
	}
	if tmp.Type() != orig.Type() {
		return reflect.Value{}, fmt.Errorf("%w: content of type %s for seeded %s object",
			ErrBadStream, tmp.Type(), orig.Type())
	}
	if orig.Kind() == reflect.Slice && tmp.Len() != orig.Len() {
		return reflect.Value{}, fmt.Errorf("%w: slice object resized %d -> %d; slices are fixed-length array objects",
			ErrBadStream, orig.Len(), tmp.Len())
	}
	if err := d.flatFillRecord(&fr.tail, tmp); err != nil {
		return reflect.Value{}, err
	}
	if fr.tail.remaining() != 0 {
		return reflect.Value{}, fmt.Errorf("%w: %d stray bytes after content record",
			ErrBadStream, fr.tail.remaining())
	}
	return tmp, nil
}

// FlatContent is a validated-but-uncommitted seeded content record: the
// engine-V3 replacement for the staging temporary of DecodeSeededContent.
// DecodeSeededFlat proves the record can be committed; Commit re-parses the
// retained record bytes straight into the original object's fields. Until
// Commit or Release the record aliases the decoder's payload, which must
// stay alive and unmodified.
type FlatContent struct {
	d    *Decoder
	orig reflect.Value
	fr   *flatFrame
	rec  flatCur // positioned at the start of the tail record
	done bool
}

// DecodeSeededFlat reads a content record (written by EncodeSeededContent)
// for seeded object id from an engine-V3 stream and validates it against
// the original object without materializing anything: type identity,
// reference bounds, scalar overflow, and (for slices) unchanged length are
// all proven here, so Commit cannot fail. This is the paper's two-phase
// restore with the staging copy deleted — the "modified version" of the old
// object exists only as bytes in the receive buffer.
func (d *Decoder) DecodeSeededFlat(id int) (*FlatContent, error) {
	if err := d.header(); err != nil {
		return nil, err
	}
	if d.engine != EngineV3 {
		return nil, fmt.Errorf("wire: DecodeSeededFlat on engine %s stream", d.engine)
	}
	if id < 0 || id >= d.numSeeded {
		return nil, fmt.Errorf("wire: DecodeSeededFlat(%d): not a seeded object", id)
	}
	orig := d.table[id]
	fr, err := d.readFlatFrame()
	if err != nil {
		return nil, err
	}
	rec := fr.tail
	if err := d.flatCheckRecord(&fr.tail, orig); err != nil {
		d.recycleFrame(fr)
		return nil, err
	}
	if fr.tail.remaining() != 0 {
		n := fr.tail.remaining()
		d.recycleFrame(fr)
		return nil, fmt.Errorf("%w: %d stray bytes after content record", ErrBadStream, n)
	}
	if n := len(d.fcFree); n > 0 {
		fc := d.fcFree[n-1]
		d.fcFree = d.fcFree[:n-1]
		*fc = FlatContent{d: d, orig: orig, fr: fr, rec: rec}
		return fc, nil
	}
	return &FlatContent{d: d, orig: orig, fr: fr, rec: rec}, nil
}

// Commit overwrites the original object's contents from the record bytes.
// The record passed validation in DecodeSeededFlat, so the re-parse cannot
// fail on well-behaved memory; an error here means the retained buffer was
// corrupted after validation and the original may be partially written.
func (fc *FlatContent) Commit() error {
	if fc.done {
		return nil
	}
	err := fc.d.flatCommitRecord(&fc.rec, fc.orig)
	fc.retire()
	return err
}

// Release drops the record without committing (the abort path). Idempotent,
// and a no-op after Commit.
func (fc *FlatContent) Release() {
	if fc == nil || fc.done {
		return
	}
	fc.retire()
}

// retire releases the frame and parks the cleared FlatContent on its
// decoder's freelist. The shell may be handed out again by the decoder's
// next DecodeSeededFlat; further Commit/Release calls through a stale
// pointer remain no-ops until then, so callers must simply not retain a
// FlatContent past its Commit or Release.
func (fc *FlatContent) retire() {
	d := fc.d
	d.recycleFrame(fc.fr)
	*fc = FlatContent{d: d, done: true}
	d.fcFree = append(d.fcFree, fc)
}

// flatCheckRecord validates a content record against the original object it
// would overwrite. It consumes exactly the bytes flatCommitRecord will.
func (d *Decoder) flatCheckRecord(c *flatCur, orig reflect.Value) error {
	lead, err := c.u8()
	if err != nil {
		return err
	}
	idx, err := c.u32()
	if err != nil {
		return err
	}
	t, err := d.flatTypeAt(idx)
	if err != nil {
		return err
	}
	switch lead {
	case fRecPtr:
		if orig.Kind() != reflect.Ptr {
			return fmt.Errorf("%w: content kind ptr for %s object", ErrBadStream, orig.Kind())
		}
		if t != orig.Type().Elem() {
			return fmt.Errorf("%w: ptr content of type *%s for %s object", ErrBadStream, t, orig.Type())
		}
		return d.flatCheckValue(c, t, 0)
	case fRecMap:
		if orig.Kind() != reflect.Map {
			return fmt.Errorf("%w: content kind map for %s object", ErrBadStream, orig.Kind())
		}
		if t != orig.Type() {
			return fmt.Errorf("%w: map content of type %s for %s object", ErrBadStream, t, orig.Type())
		}
		count, err := c.u32()
		if err != nil {
			return err
		}
		kt, vt := t.Key(), t.Elem()
		for i := uint32(0); i < count; i++ {
			if err := d.flatCheckValue(c, kt, 0); err != nil {
				return err
			}
			if err := d.flatCheckValue(c, vt, 0); err != nil {
				return err
			}
		}
		return nil
	case fRecSlice:
		if orig.Kind() != reflect.Slice {
			return fmt.Errorf("%w: content kind slice for %s object", ErrBadStream, orig.Kind())
		}
		if t != orig.Type() {
			return fmt.Errorf("%w: slice content of type %s for %s object", ErrBadStream, t, orig.Type())
		}
		n, err := c.u32()
		if err != nil {
			return err
		}
		if int(n) != orig.Len() {
			return fmt.Errorf("%w: slice object resized %d -> %d; slices are fixed-length array objects",
				ErrBadStream, orig.Len(), n)
		}
		et := t.Elem()
		for i := uint32(0); i < n; i++ {
			if err := d.flatCheckValue(c, et, 0); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("%w: unknown record kind 0x%02x", ErrBadStream, lead)
	}
}

// flatCommitRecord re-parses a validated content record, writing into orig
// in place: pointees and slice elements are overwritten field by field, maps
// are cleared and refilled through reused staging cells.
func (d *Decoder) flatCommitRecord(c *flatCur, orig reflect.Value) error {
	if _, err := c.u8(); err != nil { // record kind, validated
		return err
	}
	if _, err := c.u32(); err != nil { // type index, validated
		return err
	}
	switch orig.Kind() {
	case reflect.Ptr:
		return d.flatFillValue(c, orig.Elem(), 0)
	case reflect.Map:
		count, err := c.u32()
		if err != nil {
			return err
		}
		orig.Clear()
		return d.flatFillMapEntries(c, orig, int(count))
	case reflect.Slice:
		if _, err := c.u32(); err != nil { // length, validated
			return err
		}
		for i := 0; i < orig.Len(); i++ {
			if err := d.flatFillValue(c, orig.Index(i), 0); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("%w: cannot restore kind %s", ErrBadStream, orig.Kind())
	}
}

// flatCheckValue parses one value expression without writing anything,
// proving that flatFillValue over the same bytes into a destination of type
// t will succeed. The two parsers must consume identical byte spans.
func (d *Decoder) flatCheckValue(c *flatCur, t reflect.Type, depth int) error {
	if depth > maxDecodeDepth {
		return errDecodeDepth
	}
	lead, err := c.u8()
	if err != nil {
		return err
	}
	switch lead {
	case fNil:
		return nil

	case fRef:
		id, err := c.u32()
		if err != nil {
			return err
		}
		if int(id) >= len(d.table) {
			return fmt.Errorf("%w: reference to unknown object %d", ErrBadStream, id)
		}
		if ot := d.table[id].Type(); !ot.AssignableTo(t) {
			return fmt.Errorf("%w: cannot assign %s to %s", ErrBadStream, ot, t)
		}
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
		if st != t && !st.AssignableTo(t) {
			return fmt.Errorf("%w: cannot assign %s to %s", ErrBadStream, st, t)
		}
		return d.flatCheckScalar(c, st)

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
		if st != t && !st.AssignableTo(t) {
			return fmt.Errorf("%w: cannot assign %s to %s", ErrBadStream, st, t)
		}
		k := d.memo.of(st, d.access)
		for i := range k.fields {
			if err := d.flatCheckValue(c, k.fields[i].k.t, depth+1); err != nil {
				return err
			}
		}
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
		if at != t && !at.AssignableTo(t) {
			return fmt.Errorf("%w: cannot assign %s to %s", ErrBadStream, at, t)
		}
		et := at.Elem()
		for i := 0; i < at.Len(); i++ {
			if err := d.flatCheckValue(c, et, depth+1); err != nil {
				return err
			}
		}
		return nil

	default:
		return fmt.Errorf("%w: unknown flat value lead 0x%02x", ErrBadStream, lead)
	}
}

// flatCheckScalar validates and skips a scalar payload of type st,
// duplicating flatScalarInto's bounds and overflow checks without a
// destination value.
func (d *Decoder) flatCheckScalar(c *flatCur, st reflect.Type) error {
	switch st.Kind() {
	case reflect.Bool:
		_, err := c.u8()
		return err
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		u, err := c.u64()
		if err != nil {
			return err
		}
		if bits := st.Bits(); bits < 64 {
			if i := int64(u); i<<(64-bits)>>(64-bits) != i {
				return fmt.Errorf("%w: %d overflows %s", ErrBadStream, int64(u), st)
			}
		}
		return nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		u, err := c.u64()
		if err != nil {
			return err
		}
		if bits := st.Bits(); bits < 64 && u>>bits != 0 {
			return fmt.Errorf("%w: %d overflows %s", ErrBadStream, u, st)
		}
		return nil
	case reflect.Float32, reflect.Float64:
		_, err := c.u64()
		return err
	case reflect.Complex64, reflect.Complex128:
		if _, err := c.u64(); err != nil {
			return err
		}
		_, err := c.u64()
		return err
	case reflect.String:
		n, err := c.u32()
		if err != nil {
			return err
		}
		_, err = c.bytes(int(n))
		return err
	default:
		return fmt.Errorf("%w: scalar value with kind %s", ErrBadStream, st.Kind())
	}
}
