package wire

import (
	"fmt"
	"reflect"
	"sync/atomic"

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

	// bare and cached are the Encoder's, decided at header time, when the
	// format is known. memo resolves the types met outside the type table
	// (seeded originals).
	bare, cached bool
	memo         kernelMemo

	// stage is the slab DecodeSeededContent carves its staging cells from,
	// staged the records it decoded; shadow holds the pre-call state of
	// decoded objects (shadow.go).
	stage  stageSlab
	staged []Staged
	shadow shadow

	// arena batch-allocates the new pointer objects and slices of a decoder
	// configured with engine V3 (arena.go). Created on first use; released
	// when the decoder is recycled, or explicitly via ReleaseArena on
	// abandoned decoders.
	arena *Arena
}

// NewDecoderBytes returns a Decoder reading from an in-memory message. The
// format and access mode are learned from the stream header; opts supplies
// the registry and, with Engine, where new objects are allocated. Nothing
// decoded aliases data except what DecodeBytes returns.
func NewDecoderBytes(data []byte, opts Options) *Decoder {
	o := opts.withDefaults()
	return &Decoder{r: &reader{data: data}, opts: o}
}

// Objects returns the decoder's linear map: every object materialized or
// seeded so far, in ID order.
func (d *Decoder) Objects() []reflect.Value { return d.table }

// NumSeeded returns how many IDs were pre-assigned via SeedDetached.
func (d *Decoder) NumSeeded() int { return d.numSeeded }

// BytesRead returns the number of payload bytes consumed so far.
func (d *Decoder) BytesRead() int64 { return d.r.bytesRead() }

// Engine returns the engine announced by the stream header; valid after the
// first decode call.
func (d *Decoder) Engine() Engine { return d.engine }

// Access returns the field-access mode announced by the stream header;
// valid after the first decode call.
func (d *Decoder) Access() graph.AccessMode { return d.access }

// SeedDetached pre-assigns the next object IDs to cells, detached references
// to existing local objects (an Encoder's Objects()), which join the table as
// they are: a reference to one of those IDs decodes to that exact object
// rather than a fresh copy. The restore protocol seeds the client's original
// objects before decoding the server's response. The cells must stay
// untouched until decoding has finished.
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
	// The engine byte is a format id (formatV2): the V2 format that
	// described every value, and the retired flat format 3, are refused like
	// any id this decoder lacks.
	switch eng {
	case formatV2:
		d.engine = EngineV2
	case byte(EngineV1):
		d.engine = EngineV1
	default:
		return fmt.Errorf("%w: unknown engine %d", ErrBadStream, eng)
	}
	acc, err := d.r.readByte()
	if err != nil {
		return err
	}
	if !knownAccess(graph.AccessMode(acc)) {
		return fmt.Errorf("%w: unknown access mode %d", ErrBadStream, acc)
	}
	d.access = graph.AccessMode(acc)
	d.r.engine = d.engine
	d.bare = d.engine == EngineV2
	d.cached = d.bare && !d.opts.DisablePlanCache
	return nil
}

// Decode reads one value.
func (d *Decoder) Decode() (any, error) {
	if err := d.header(); err != nil {
		return nil, err
	}
	v, err := d.decodeValue(0)
	if err != nil || !v.IsValid() {
		return nil, err
	}
	return v.Interface(), nil
}

// DecodeUint reads a raw unsigned integer written with EncodeUint.
func (d *Decoder) DecodeUint() (uint64, error) {
	if err := d.header(); err != nil {
		return 0, err
	}
	return d.r.readUint()
}

// DecodeBytes reads a raw string written with EncodeString as a view of the
// message, copying nothing: it is valid for as long as the message is.
func (d *Decoder) DecodeBytes() ([]byte, error) {
	if err := d.header(); err != nil {
		return nil, err
	}
	return d.r.readBytes()
}

// Staged is a content record DecodeSeededContent decoded: the seeded
// original it restores and the temporary that holds its new state.
type Staged struct{ Orig, Tmp reflect.Value }

// Staged returns the records DecodeSeededContent decoded, in stream order.
// The list is the decoder's: valid until ReleaseDecoder.
func (d *Decoder) Staged() []Staged { return d.staged }

// DecodeSeededContent reads a content record (written by
// EncodeSeededContent) for seeded object id and materializes it into a
// fresh temporary of the same shape: the "modified version" of an old
// object in the paper's algorithm (step 4). References inside the record
// resolve against the decoder's table, i.e. to original seeded objects or
// to newly materialized ones. A decoded record joins Staged.
func (d *Decoder) DecodeSeededContent(id int) (reflect.Value, error) {
	tmp, err := d.seededContent(id)
	if err == nil {
		d.staged = append(d.staged, Staged{d.table[id], tmp})
	}
	return tmp, err
}

func (d *Decoder) seededContent(id int) (reflect.Value, error) {
	if err := d.header(); err != nil {
		return reflect.Value{}, err
	}
	if id < 0 || id >= d.numSeeded {
		return reflect.Value{}, fmt.Errorf("wire: DecodeSeededContent(%d): not a seeded object", id)
	}
	orig := d.table[id]
	kind, err := d.r.readByte()
	if err != nil {
		return reflect.Value{}, err
	}
	// The original's own kernel leads to its contents' kernels; a run of
	// records of one type costs one lookup.
	k := d.memo.of(orig.Type(), d.access)
	if kind < contentPtr || kind > contentSlice {
		return reflect.Value{}, fmt.Errorf("%w: unknown content kind 0x%02x", ErrBadStream, kind)
	}
	// The record kinds are in the order of the value tags of what they restore.
	tag := kind - contentPtr + tagPtr
	if tag != k.tag {
		return reflect.Value{}, fmt.Errorf("%w: content kind 0x%02x for %s object", ErrBadStream, kind, orig.Kind())
	}
	if kind == contentPtr {
		// As under tagPtr: the staging cell exists, decode into it.
		tmp := d.stagingCell(k, id)
		return tmp, k.elem.into(d, tmp.UnsafePointer(), 0)
	}
	least := k.elem.min
	if kind == contentMap {
		least += k.key.min
	}
	n, err := d.lenOf(least, k.elem.t)
	if err != nil {
		return reflect.Value{}, err
	}
	var tmp reflect.Value
	switch {
	case kind == contentMap:
		tmp = reflect.MakeMapWithSize(k.t, n)
	case n == orig.Len():
		tmp = reflect.MakeSlice(k.t, n, n)
	default:
		return reflect.Value{}, fmt.Errorf("%w: slice object resized %d -> %d; slices are fixed-length array objects",
			ErrBadStream, orig.Len(), n)
	}
	return tmp, d.fill(tag, k, tmp, n, 0)
}

// maxStageSlab caps the cells of one staging slab.
const maxStageSlab = 256

// stageSlab hands out the staging cells of one reply's pointer records. The
// cells are private to the apply and dead once it commits, so a run of
// records of one type shares one allocation that no object the application
// keeps points into — unlike decoded objects and V3's arena slabs, from which
// no temporary is ever taken. cells is a settable []pointee; left is the
// number of cells that may still be reserved: the records to come
// (ExpectContents) less the cells of the slabs made so far, so a reply never
// gets more cells than it has records, however its types alternate. next > 0
// while the reply holds cells of the current slab. A pooled decoder keeps
// the slab's array: ReleaseDecoder, which follows a commit, zeroes it for the
// next reply of the type; a failed apply drops it (ReleaseArena).
type stageSlab struct {
	k     *kernel // pointer kernel whose pointees cells holds
	cells reflect.Value
	next  int
	left  int
}

// Staging slab counters for tests: a slab carved is zeroed for the next
// reply, or dropped, once.
var stageCarved, stageZeroed, stageDropped atomic.Int64

// StagingCounters reports the package-wide staging slab totals.
func StagingCounters() (carved, zeroed, dropped int64) {
	return stageCarved.Load(), stageZeroed.Load(), stageDropped.Load()
}

// end ends the reply's hold on the current slab: zeroed for the next reply
// once its temporaries are committed (keep), else given up to them.
func (s *stageSlab) end(keep bool) {
	if s.next > 0 && keep {
		s.cells.Clear()
		s.cells.SetLen(0)
		stageZeroed.Add(1)
	} else if s.next > 0 {
		s.cells.SetZero()
		stageDropped.Add(1)
	}
	s.next = 0
}

// ExpectContents announces that n DecodeSeededContent records follow.
func (d *Decoder) ExpectContents(n int) { d.stage.left = n }

// stagingCell returns a zeroed pointee cell for the content record of
// seeded pointer id, whose kernel is k. A new slab is sized by the run of
// seeded objects of the same type that starts at id — the records that will
// use it, when the peer ships them in ascending order.
func (d *Decoder) stagingCell(k *kernel, id int) reflect.Value {
	s := &d.stage
	if s.k != k || s.next == s.cells.Len() {
		run, most := 1, min(s.left, maxStageSlab, d.numSeeded-id)
		for run < most && d.table[id+run].Type() == k.t {
			run++
		}
		s.left -= run
		if run == 1 {
			return reflect.New(k.elem.t)
		}
		s.end(false)
		if s.k != k {
			s.k, s.cells = k, reflect.New(k.cells).Elem()
		}
		s.cells.Grow(run)
		s.cells.SetLen(run)
		stageCarved.Add(1)
	}
	s.next++
	return s.cells.Index(s.next - 1).Addr()
}

const maxDecodeDepth = 10000

// errDecodeDepth refuses a stream nested deeper than maxDecodeDepth.
var errDecodeDepth = fmt.Errorf("%w: %w", ErrBadStream, graph.ErrDepthExceeded)

func (d *Decoder) decodeValue(depth int) (reflect.Value, error) {
	if depth > maxDecodeDepth {
		return reflect.Value{}, errDecodeDepth
	}
	tag, err := d.r.readByte()
	if err != nil {
		return reflect.Value{}, err
	}
	return d.decodeTagged(tag, depth)
}

// decodeRef reads the operand of a tagRef.
func (d *Decoder) decodeRef() (reflect.Value, error) {
	id, err := d.r.readUint()
	if err != nil {
		return reflect.Value{}, err
	}
	if id >= uint64(len(d.table)) {
		return reflect.Value{}, fmt.Errorf("%w: reference to unknown object %d", ErrBadStream, id)
	}
	return d.table[id], nil
}

// decodeTagged reads what follows the tag of a described value.
func (d *Decoder) decodeTagged(tag byte, depth int) (reflect.Value, error) {
	switch {
	case tag == tagNil:
		return reflect.Value{}, nil
	case tag == tagRef:
		return d.decodeRef()
	case tag > tagScalar:
		return reflect.Value{}, fmt.Errorf("%w: unknown value tag 0x%02x", ErrBadStream, tag)
	}
	t, err := d.decodeType(0)
	if err != nil {
		return reflect.Value{}, err
	}
	return d.build(tag, d.memo.of(t, d.access), depth)
}

// build materializes what tag announces as a value of k's type — for tagPtr a
// pointer to it — whether k is from a descriptor or from a bare value's slot.
func (d *Decoder) build(tag byte, k *kernel, depth int) (reflect.Value, error) {
	v, n, err := d.shell(tag, k)
	if err == nil {
		err = d.fill(tag, k, v, n, depth)
	}
	return v, err
}

// shell allocates that value after reader.admit and enters an object in the
// table before its contents are read, so cycles resolve. A decoder configured
// with engine V3 takes a new slice from its arena, and newObject a new
// pointee; the stream is the same V2 either way.
func (d *Decoder) shell(tag byte, k *kernel) (v reflect.Value, n int, err error) {
	switch {
	case tag != tagPtr && tag != k.tag:
		err = fmt.Errorf("%w: value tag %d with type %s", ErrBadStream, tag, k.t)
	case tag == tagPtr:
		v, err = d.newObject(k)
	case tag == tagMap:
		if n, err = d.lenOf(k.key.min+k.elem.min, k.elem.t); err == nil {
			v = reflect.MakeMapWithSize(k.t, n)
		}
	case tag == tagSlice:
		if n, err = d.lenOf(k.elem.min, k.elem.t); err == nil && d.opts.Engine == EngineV3 {
			v = d.arenaFor().NewSlice(k.t, n)
		} else if err == nil {
			v = reflect.MakeSlice(k.t, n, n)
		}
	default:
		if err = d.r.admit(1, k.min, k.t, len(d.r.data)-d.r.dpos); err == nil {
			v = reflect.New(k.t).Elem()
		}
	}
	if err == nil && (tag == tagMap || tag == tagSlice) {
		d.table = append(d.table, v)
	}
	return v, n, err
}

// newObject admits one new object of k's type, allocates it — from the arena
// under engine V3 — and enters a *k.t to it in the table before its contents
// are read. With lenOf it is the one place where a count or a type off the
// stream sizes an allocation.
func (d *Decoder) newObject(k *kernel) (v reflect.Value, err error) {
	if err = d.r.admit(1, k.min, k.t, len(d.r.data)-d.r.dpos); err != nil {
		return v, err
	}
	if d.opts.Engine == EngineV3 {
		v = d.arenaFor().NewPtr(k.t)
	} else {
		v = reflect.New(k.t)
	}
	d.table = append(d.table, v)
	return v, nil
}

// lenOf reads the count of a slice or map of t's, at least least bytes each.
func (d *Decoder) lenOf(least int, t reflect.Type) (int, error) {
	n, err := d.r.readUint()
	if err != nil {
		return 0, err
	}
	return int(n), d.r.admit(n, least, t, len(d.r.data)-d.r.dpos)
}

// fill decodes the contents of shell v.
func (d *Decoder) fill(tag byte, k *kernel, v reflect.Value, n, depth int) error {
	switch tag {
	case tagPtr:
		return k.into(d, v.UnsafePointer(), depth+1)
	case tagMap:
		return k.fillMap(d, v, n, depth)
	case tagSlice:
		return k.fillElems(d, v.UnsafePointer(), n, depth)
	}
	return k.body(d, v.Addr().UnsafePointer(), depth)
}

// setEntry is mv[key] = val, refusing what SetMapIndex would panic on: a key
// type that holds an interface admits a slice or a map, which no map can hash.
func setEntry(mv, key, val reflect.Value) error {
	if !key.Comparable() {
		return fmt.Errorf("%w: unhashable key in a %s", ErrBadStream, mv.Type())
	}
	mv.SetMapIndex(key, val)
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
