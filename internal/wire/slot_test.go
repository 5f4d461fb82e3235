package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"

	"nrmi/internal/graph"
)

// Tests that take the slot as input. Under V2 a value is described — tag,
// descriptor, contents — only where the reader cannot know its type: at the
// top of each Encode and in an interface slot. Every other slot travels bare,
// read by the receiver's own declaration of the slot's static type.

// shape is a named non-empty interface; square implements it by value, disc
// by pointer.
type shape interface{ Area() int }

type square struct{ Side int }

func (s square) Area() int { return s.Side * s.Side }

type disc struct{ R int }

func (d *disc) Area() int { return 3 * d.R * d.R }

// fields holds four struct-field slots of static type T.
type fields[T any] struct{ A, B, C, D T }

func slotRegistry(t *testing.T) *Registry {
	t.Helper()
	reg := testRegistry(t)
	for name, sample := range map[string]any{"square": square{}, "disc": disc{}} {
		if err := reg.Register(name, sample); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.RegisterType("shape", reflect.TypeFor[shape]()); err != nil {
		t.Fatal(err)
	}
	return reg
}

// slotCase is one static type with its holders per slot kind: each holder
// list is encoded on one stream, so a value can alias an object of an earlier
// holder.
type slotCase struct {
	static  string
	holders map[string][]any
}

// slotsOf builds the holders that give v[0..3] a slot of static type T of each
// kind. The pointee holders are the content-record pointees when seeded.
func slotsOf[T any](t *testing.T, reg *Registry, static string, v [4]T) slotCase {
	t.Helper()
	if err := reg.Register("fields of "+reflect.TypeFor[T]().String(), fields[T]{}); err != nil {
		t.Fatal(err)
	}
	arr, ptr := v, v
	return slotCase{static, map[string][]any{
		"struct field":  {&fields[T]{v[0], v[1], v[2], v[3]}},
		"slice element": {v[:]},
		"array element": {&arr},
		"map value":     {map[int]T{0: v[0], 1: v[1], 2: v[2], 3: v[3]}},
		"pointee":       {&ptr[0], &ptr[1], &ptr[2], &ptr[3]},
	}}
}

// keyedSlotsOf adds the map-key holders — one single-entry map per value, so
// that key kinds with no canonical order still encode deterministically.
func keyedSlotsOf[T comparable](t *testing.T, reg *Registry, static string, v [4]T) slotCase {
	c := slotsOf(t, reg, static, v)
	c.holders["map key"] = []any{map[T]int{v[0]: 0}, map[T]int{v[1]: 1}, map[T]int{v[2]: 2}, map[T]int{v[3]: 3}}
	return c
}

func slotCases(t *testing.T, reg *Registry) []slotCase {
	// Each static type gets: its zero value (nil where it has one), a new
	// value, an alias of an earlier object, and a self-cycle where the type
	// can close one.
	node := func() (n, cyc *wnode) {
		cyc = &wnode{Data: 3}
		cyc.Left, cyc.Right = cyc, &wnode{Data: 4, Right: cyc}
		return &wnode{Data: 1, Left: &wnode{Data: 2}}, cyc
	}
	n1, c1 := node()
	n2, c2 := node()
	n3, c3 := node()
	n4, c4 := node()
	n5, c5 := node()
	n6, _ := node()
	selfSlice := make([]any, 2)
	selfSlice[0], selfSlice[1] = selfSlice, n6
	sl := []*wnode{n3, nil, n3}
	mp := map[string]*wnode{"a": n4, "b": n4}
	d := &disc{R: 2}
	return []slotCase{
		keyedSlotsOf(t, reg, "int", [4]int{0, 7, -300, 7}),
		keyedSlotsOf(t, reg, "namedInt", [4]namedInt{0, 9, -1, math.MaxInt}),
		keyedSlotsOf(t, reg, "inner", [4]inner{{}, {1, 2}, {-3, 4}, {1, 2}}),
		keyedSlotsOf(t, reg, "[2]*wnode", [4][2]*wnode{{}, {n1, nil}, {n1, n1}, {c1, c1.Right}}),
		keyedSlotsOf(t, reg, "*wnode", [4]*wnode{nil, n2, n2, c2}),
		slotsOf(t, reg, "[]*wnode", [4][]*wnode{nil, sl, sl, {c3, c3}}),
		slotsOf(t, reg, "map[string]*wnode", [4]map[string]*wnode{nil, mp, mp, {"c": c4}}),
		keyedSlotsOf(t, reg, "any", [4]any{nil, n5, n5, c5}),
		slotsOf(t, reg, "any mixed", [4]any{5, "s", inner{1, 2}, selfSlice}),
		keyedSlotsOf(t, reg, "shape", [4]shape{nil, square{2}, d, d}),
	}
}

// encodeRoots encodes values as top-level values of one stream — or, seeded,
// seeds them all and ships one content record each — and returns the bytes
// and the encoder's object table.
func encodeRoots(t *testing.T, opts Options, values []any, seeded bool) ([]byte, []reflect.Value) {
	t.Helper()
	return kernelPath.encodeRoots(t, opts, values, seeded)
}

// encodeRoots is encodeRoots on path p.
func (p codecPath) encodeRoots(t *testing.T, opts Options, values []any, seeded bool) ([]byte, []reflect.Value) {
	t.Helper()
	var buf bytes.Buffer
	enc := p.enc(&buf, opts)
	for _, v := range values {
		var err error
		if seeded {
			err = enc.SeedDecoded(valuesOf(v))
		} else {
			err = enc.Encode(v)
		}
		if err != nil {
			t.Fatalf("encoding %T: %v", v, err)
		}
	}
	for id := 0; seeded && id < len(values); id++ {
		if err := enc.EncodeSeededContent(id); err != nil {
			t.Fatalf("content record of %T: %v", values[id], err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), enc.Objects()
}

// decodeRoots is the receiving end of encodeRoots on path p. Seeded, the
// decoder's originals are empty shells of the holders' types (and lengths),
// and the result is the staged modified version of each.
func (p codecPath) decodeRoots(t *testing.T, opts Options, stream []byte, like []any, seeded bool) ([]any, []reflect.Value) {
	t.Helper()
	dec := p.dec(stream, opts)
	defer dec.ReleaseArena() // the staged temporaries are the caller's
	if seeded {
		for _, h := range like {
			shell, hv := reflect.Value{}, reflect.ValueOf(h)
			switch hv.Kind() {
			case reflect.Ptr:
				shell = reflect.New(hv.Type().Elem())
			case reflect.Map:
				shell = reflect.MakeMap(hv.Type())
			default:
				shell = reflect.MakeSlice(hv.Type(), hv.Len(), hv.Len())
			}
			seed(dec, shell.Interface())
		}
		dec.ExpectContents(len(like))
	}
	got := make([]any, len(like))
	for i := range like {
		if seeded {
			tmp, err := dec.DecodeSeededContent(i)
			if err != nil {
				t.Fatalf("content record %d: %v", i, err)
			}
			got[i] = tmp.Interface()
		} else if v, err := dec.Decode(); err != nil {
			t.Fatalf("value %d: %v", i, err)
		} else {
			got[i] = v
		}
	}
	if int(dec.BytesRead()) != len(stream) {
		t.Fatalf("decoder consumed %d of %d bytes", dec.BytesRead(), len(stream))
	}
	return got, dec.Objects()
}

// TestSlotRoundTrip: slot kind × static type × value × codec path × {stream
// value, seeded content record}. Both paths write the same bytes; both read
// them back to a graph Equal to the original with the same alias partition —
// the object tables of the two ends list objects of the same types in the
// same order.
func TestSlotRoundTrip(t *testing.T) {
	reg := slotRegistry(t)
	for _, c := range slotCases(t, reg) {
		for kind, holders := range c.holders {
			for _, seeded := range []bool{false, true} {
				name := fmt.Sprintf("%s of type %s, seeded=%t", kind, c.static, seeded)
				var first []byte
				opts := Options{Registry: reg}
				for _, p := range codecPaths {
					path := p.name
					stream, sent := p.encodeRoots(t, opts, holders, seeded)
					if first == nil {
						first = stream
					} else if !bytes.Equal(first, stream) {
						t.Fatalf("%s: the two encoder paths disagree:\n% x\n% x", name, first, stream)
					}
					got, received := p.decodeRoots(t, opts, stream, holders, seeded)
					if !sameGraph(t, reg, graph.AccessExported, holders, got) {
						t.Errorf("%s, %s path: decoded %#v, want %#v", name, path, got, holders)
					}
					if len(sent) != len(received) {
						t.Fatalf("%s, %s path: %d objects sent, %d received", name, path, len(sent), len(received))
					}
					for id := range sent {
						// A named pointer type aside, the tables agree on types.
						if sent[id].Type() != received[id].Type() {
							t.Errorf("%s, %s path: object %d is a %s here and a %s there", name, path, id, sent[id].Type(), received[id].Type())
						}
					}
				}
			}
		}
	}
}

// TestBareSlotSizes is the size rule itself: a bare scalar slot costs exactly
// its payload, a bare pointer slot one tag byte more than its pointee, and a
// nil or repeated reference its tag (and ID) alone.
func TestBareSlotSizes(t *testing.T) {
	reg := slotRegistry(t)
	size := func(v any) int {
		stream, _ := encodeRoots(t, Options{Registry: reg}, []any{v}, false)
		return len(stream)
	}
	// The cost of the last slot: the message with it less the message without.
	for _, tc := range []struct {
		name          string
		with, without any
		want          int
	}{
		{"int 1", []int{5, 1}, []int{5}, 1},
		{"int -300", []int{5, -300}, []int{5}, len(binary.AppendVarint(nil, -300))},
		{"namedInt", []namedInt{5, 1 << 40}, []namedInt{5}, len(binary.AppendVarint(nil, 1<<40))},
		{"uint32", []uint32{5, 1 << 30}, []uint32{5}, len(binary.AppendUvarint(nil, 1<<30))},
		{"bool", []bool{true, false}, []bool{true}, 1},
		{"float64", []float64{1, 2.5}, []float64{1}, 8},
		{"complex128", []complex128{1, 2i}, []complex128{1}, 16},
		{"new string", []string{"a", "xyz"}, []string{"a"}, 1 + 1 + 3},
		{"repeated string", []string{"a", "a"}, []string{"a"}, 1},
		{"struct of two ints", []inner{{}, {1, -2}}, []inner{{}}, 2},
		{"array of three int16", [][3]int16{{}, {1, 2, 300}}, [][3]int16{{}}, 4},
		{"nil pointer", []*inner{{}, nil}, []*inner{{}}, 1},
		{"new pointer: its pointee and one tag", []*inner{{}, {1, -2}}, []*inner{{}}, 1 + 2},
		{"nil slice", [][]int{{}, nil}, [][]int{{}}, 1},
		{"new slice: tag, length, elements", [][]int{{}, {7, 8, 9}}, [][]int{{}}, 1 + 1 + 3},
		{"new map: tag, count, pairs", []map[int]bool{{}, {1: true, 2: false}}, []map[int]bool{{}}, 1 + 1 + 4},
		{"tree leaf", []*wnode{{}, {Data: 1000}}, []*wnode{{}}, 1 + 2 + 1 + 1},
	} {
		if got := size(tc.with) - size(tc.without); got != tc.want {
			t.Errorf("%s: the slot costs %d bytes, want %d", tc.name, got, tc.want)
		}
	}
	shared := &inner{X: 1}
	if got := size([]*inner{shared, shared}) - size([]*inner{shared}); got != 2 {
		t.Errorf("alias of an earlier object: the slot costs %d bytes, want tagRef and a one-byte ID", got)
	}
	// An interface slot still pays for its descriptor: tag, table reference.
	if got := size([]any{1, 1}) - size([]any{1}); got != 1+2+1 {
		t.Errorf("described int in an interface slot costs %d bytes, want 4", got)
	}
}

// TestOtherEnginesUnmoved pins the V1 stream of the whole type zoo to the
// hash taken before the V2 format moved to bare slots — V1 is byte for byte
// what it was — and holds V3's stream to V2's, whose bytes it writes.
func TestOtherEnginesUnmoved(t *testing.T) {
	reg := testRegistry(t)
	encode := func(eng Engine) []byte {
		var buf bytes.Buffer
		return encodeStream(t, NewEncoder(&buf, Options{Engine: eng, Registry: reg}), &buf, wireZoo())
	}
	const want = "1054 928185d008a633653a37608d94cfb75f46f1ad593dec1dcffbd874eb275e39b7"
	if v1 := encode(EngineV1); fmt.Sprintf("%d %x", len(v1), sha256.Sum256(v1)) != want {
		t.Errorf("v1 zoo stream is %d %x, was %s", len(v1), sha256.Sum256(v1), want)
	}
	if v3, v2 := encode(EngineV3), encode(EngineV2); !bytes.Equal(v3, v2) {
		t.Errorf("v3 zoo stream (%d B) differs from v2's (%d B)", len(v3), len(v2))
	}
}

// hostileReply decodes records as the reply to a call that seeded the three
// nodes of a small tree (IDs 0, 1, 2) and a bag (ID 3), one content record
// per given ID, on path p. It reports the error and how many objects the
// decoder's table holds afterwards.
func (p codecPath) hostileReply(t *testing.T, opts Options, stream []byte, ids ...int) (error, int) {
	t.Helper()
	root := &wnode{Data: 1, Left: &wnode{Data: 2}, Right: &wnode{Data: 3}}
	dec := p.dec(stream, opts)
	defer dec.ReleaseArena()
	seed(dec, root, root.Left, root.Right, &wbag{})
	dec.ExpectContents(len(ids))
	for _, id := range ids {
		if _, err := dec.DecodeSeededContent(id); err != nil {
			return err, len(dec.Objects())
		}
	}
	return nil, len(dec.Objects())
}

// TestHostileBareSlots: what a bare slot must refuse, on both paths — each a
// typed error with nothing materialized beyond the seeded originals.
func TestHostileBareSlots(t *testing.T) {
	reg := slotRegistry(t)
	header := []byte{headerMagic, formatV2, 0}
	stream := func(parts ...[]byte) []byte { return bytes.Join(append([][]byte{header}, parts...), nil) }
	root := &wnode{Data: 1, Left: &wnode{Data: 2}, Right: &wnode{Data: 3}}
	valid, _ := encodeRoots(t, Options{Registry: reg}, []any{root, root.Left, root.Right}, true)
	if want := stream([]byte{contentPtr, 2, tagRef, 1, tagRef, 2, contentPtr, 4, tagNil, tagNil, contentPtr, 6, tagNil, tagNil}); !bytes.Equal(valid, want) {
		t.Fatalf("the three-node reply is % x, hand-spelled % x", valid, want)
	}
	// The bag's record describes one new object, in an interface slot.
	bagRecord, _ := encodeRoots(t, Options{Registry: reg}, []any{&wbag{Any: &wnode{}}}, true)
	flipped := bytes.Clone(bagRecord)
	flipped[bytes.Index(bagRecord, []byte("wnode"))+len("wnode")+7] ^= 1

	type hostile struct {
		name   string
		stream []byte
		ids    []int
		is     error
	}
	cases := []hostile{
		{"a MAP tag in a pointer slot", stream([]byte{contentPtr, 2, tagMap, 0, tagNil}), []int{0}, ErrBadStream},
		{"a SLICE tag in a pointer slot", stream([]byte{contentPtr, 2, tagNil, tagSlice, 0}), []int{0}, ErrBadStream},
		{"an unknown tag in a pointer slot", stream([]byte{contentPtr, 2, 9, tagNil}), []int{0}, ErrBadStream},
		// The parent format's SCALAR, descriptor, payload where the slot wants
		// the payload alone: 7 reads as Data, the descriptor as Left's tag.
		{"a described value in a bare slot", stream([]byte{contentPtr, tagScalar, dTableDef, byte(reflect.Int), 2, tagNil, tagNil}), []int{0}, ErrBadStream},
		{"REF to an object of another type", stream([]byte{contentPtr, 2, tagRef, 3, tagNil}), []int{0}, ErrBadStream},
		{"REF past the table", stream([]byte{contentPtr, 2, tagRef, 4, tagNil}), []int{0}, ErrBadStream},
		{"a MAP record for a pointer object", stream([]byte{contentMap, 0}), []int{3}, ErrBadStream},
		{"fingerprint off by one bit", flipped, []int{3}, ErrLayout},
		{"a parent-format stream", append([]byte{headerMagic, byte(EngineV2), 0}, valid[3:]...), []int{0, 1, 2}, ErrBadStream},
	}
	for cut := 0; cut < len(valid); cut++ {
		cases = append(cases, hostile{fmt.Sprintf("truncation at %d of %d", cut, len(valid)), valid[:cut], []int{0, 1, 2}, io.ErrUnexpectedEOF})
	}
	opts := Options{Registry: reg}
	for _, tc := range cases {
		for _, p := range codecPaths {
			err, objects := p.hostileReply(t, opts, tc.stream, tc.ids...)
			if !errors.Is(err, tc.is) {
				t.Errorf("%s, %s path: %v, want %v", tc.name, p.name, err, tc.is)
			}
			if objects != 4 {
				t.Errorf("%s, %s path: the table holds %d objects after the failure, 4 were seeded", tc.name, p.name, objects)
			}
		}
	}
	for _, p := range codecPaths {
		if err, _ := p.hostileReply(t, opts, valid, 0, 1, 2); err != nil {
			t.Errorf("the valid reply, %s path: %v", p.name, err)
		}
		if err, objects := p.hostileReply(t, opts, bagRecord, 3); err != nil || objects != 5 {
			t.Errorf("the bag's valid record, %s path: %v, %d objects", p.name, err, objects)
		}
	}
}

// TestParentFormatStreamRefused: a stream of the V2 format that described
// every value (engine byte 2), or of the retired flat format (3), meets the
// typed unknown-engine rejection before any payload byte is read.
func TestParentFormatStreamRefused(t *testing.T) {
	// int(42) as the parent wrote it: SCALAR, TABLE_DEF, kind int, zigzag 42.
	parent := []byte{0x4E, 0x02, 0x00, 0x07, 0xCF, 0x02, 0x54}
	for _, format := range []byte{2, 3} {
		stream := bytes.Clone(parent)
		stream[1] = format
		for _, p := range codecPaths {
			dec := p.dec(stream, Options{Registry: NewRegistry()})
			_, err := dec.Decode()
			if !errors.Is(err, ErrBadStream) || err.Error() != fmt.Sprintf("wire: corrupted or incompatible stream: unknown engine %d", format) {
				t.Errorf("format %d, %s path: %v, want the unknown-engine rejection", format, p.name, err)
			}
			if dec.BytesRead() != 2 || len(dec.Objects()) != 0 {
				t.Errorf("format %d, %s path: %d bytes read, %d objects: the payload was touched", format, p.name, dec.BytesRead(), len(dec.Objects()))
			}
		}
	}
	now := bytes.Clone(parent)
	now[1] = formatV2
	if v, err := NewDecoderBytes(now, Options{}).Decode(); err != nil || v != 42 {
		t.Errorf("the same root under today's format id: %v, %v", v, err)
	}
}

// TestUnknownAccessRefused: a header whose access byte names no access mode
// is refused before any payload byte is read, in either format — the reply
// would otherwise carry it back, and a kernel set be compiled for it — and
// an encoder configured with one writes nothing.
func TestUnknownAccessRefused(t *testing.T) {
	v1, _ := encodeRoots(t, Options{Engine: EngineV1}, []any{42}, false)
	v2, _ := encodeRoots(t, Options{}, []any{42}, false)
	for _, valid := range [][]byte{v1, v2} {
		for _, access := range []byte{2, 7, 0xFF} {
			stream := bytes.Clone(valid)
			stream[2] = access
			for _, p := range codecPaths {
				dec := p.dec(stream, Options{})
				_, err := dec.Decode()
				if !errors.Is(err, ErrBadStream) || err.Error() != fmt.Sprintf("wire: corrupted or incompatible stream: unknown access mode %d", access) {
					t.Errorf("format %d, access %d, %s path: %v, want the unknown-access rejection", stream[1], access, p.name, err)
				}
				if dec.BytesRead() != 3 || len(dec.Objects()) != 0 {
					t.Errorf("format %d, access %d, %s path: %d bytes read, %d objects: the payload was touched",
						stream[1], access, p.name, dec.BytesRead(), len(dec.Objects()))
				}
			}
		}
	}
	for _, eng := range []Engine{EngineV1, EngineV2} {
		enc := NewEncoder(nil, Options{Engine: eng, Access: 7})
		if err := enc.Encode(42); !errors.Is(err, ErrUnknownAccess) || enc.BytesWritten() != 0 {
			t.Errorf("%s encoder with access 7: %v after %d bytes, want ErrUnknownAccess and nothing written", eng, err, enc.BytesWritten())
		}
	}
}

// Two ends binding one wire name to types a reader of bare slots would parse
// differently.
type (
	layInt  struct{ X int }
	layUint struct{ X uint }
	layTwo  struct{ X, Y int }

	scriptA []opA
	opA     struct {
		Kind kindA
		N    int
	}
	kindA int

	scriptB []opB
	opB     struct {
		Kind kindB
		N    int
	}
	kindB uint8

	hidInt struct {
		X int
		y int
	}
	hidString struct {
		X int
		y string
	}
)

// TestLayoutMismatchRefused: each difference is ErrLayout at the receiver,
// on both paths, before any content of the type is read; with per-value
// descriptors gone, nothing else would notice.
func TestLayoutMismatchRefused(t *testing.T) {
	for _, tc := range []struct {
		name       string
		send, recv map[string]any
		v          any
		access     graph.AccessMode
		ok         bool
	}{
		{"field type differs", map[string]any{"lay": layInt{}}, map[string]any{"lay": layUint{}}, &layInt{X: -1}, 0, false},
		{"field count differs", map[string]any{"lay": layInt{}}, map[string]any{"lay": layTwo{}}, []layInt{{1}, {2}}, 0, false},
		{"two bare slots down",
			map[string]any{"script": scriptA{}, "op": opA{}, "kind": kindA(0)},
			map[string]any{"script": scriptB{}, "op": opB{}, "kind": kindB(0)},
			scriptA{{Kind: 300, N: 1}}, 0, false},
		{"a nested type's wire name differs",
			map[string]any{"script": scriptA{}, "op": opA{}, "kind": kindA(0)},
			map[string]any{"script": scriptA{}, "op": opA{}, "genus": kindA(0)},
			scriptA{{Kind: 1}}, 0, false},
		{"a nested type named at one end only", map[string]any{"inner": inner{}, "loose": looseSender{}}, map[string]any{"loose": loose{}},
			&looseSender{In: inner{3, 4}, N: 5}, 0, false},
		{"unexported fields differ, exported access", map[string]any{"hid": hidInt{}}, map[string]any{"hid": hidString{}}, &hidInt{X: 1}, graph.AccessExported, true},
		{"unexported fields differ, unsafe access", map[string]any{"hid": hidInt{}}, map[string]any{"hid": hidString{}}, &hidInt{X: 1, y: 2}, graph.AccessUnsafe, false},
		{"the same declaration", map[string]any{"script": scriptA{}, "op": opA{}, "kind": kindA(0)}, map[string]any{"script": scriptA{}, "op": opA{}, "kind": kindA(0)},
			scriptA{{Kind: 300, N: 1}}, 0, true},
	} {
		send, recv := stateRegistry(t, tc.send), stateRegistry(t, tc.recv)
		for _, p := range codecPaths {
			path := p.name
			stream, _ := p.encodeRoots(t, Options{Registry: send, Access: tc.access}, []any{tc.v}, false)
			dec := p.dec(stream, Options{Registry: recv})
			_, err := dec.Decode()
			if tc.ok && err != nil || !tc.ok && !errors.Is(err, ErrLayout) {
				t.Errorf("%s, %s path: %v (compatible: %t)", tc.name, path, err, tc.ok)
			}
			if !tc.ok && len(dec.Objects()) != 0 {
				t.Errorf("%s, %s path: %d objects materialized before the mismatch was seen", tc.name, path, len(dec.Objects()))
			}
		}
	}
}

type outerU struct{ In *innerU }

type innerU struct{ X int }

// TestNestedUnregisteredTypeFailsAtSender: a named type that is registered
// nowhere fails the encode, wherever below the root it sits — under V2 even
// behind a nil pointer, where no bare slot would have spelled its name.
func TestNestedUnregisteredTypeFailsAtSender(t *testing.T) {
	reg := stateRegistry(t, map[string]any{"outerU": outerU{}})
	for name, opts := range map[string]Options{
		"v1": {Engine: EngineV1}, "v2-portable": {DisablePlanCache: true}, "v2": {}, "v3": {Engine: EngineV3},
	} {
		opts.Registry = reg
		values := []any{&outerU{In: &innerU{X: 1}}}
		if opts.Engine == 0 {
			values = append(values, &outerU{}, []outerU{})
		}
		for _, v := range values {
			var buf bytes.Buffer
			if err := NewEncoder(&buf, opts).Encode(v); !errors.Is(err, ErrTypeNotRegistered) {
				t.Errorf("%s, %#v: %v, want ErrTypeNotRegistered", name, v, err)
			}
		}
	}
}

// TestFingerprintMemoCachesSuccessesOnly: the plan-cache path memoizes a
// fingerprint in its registry once it succeeds, never a failure, so a
// nested named type registered after a failed encode is seen by the next
// encode under the same options. The portable path computes the same sum
// and leaves the memo alone.
func TestFingerprintMemoCachesSuccessesOnly(t *testing.T) {
	memo := func(reg *Registry) map[kernelKey]uint64 {
		m := map[kernelKey]uint64{}
		reg.sums.Range(func(k, v any) bool { m[k.(kernelKey)] = v.(uint64); return true })
		return m
	}
	reg := stateRegistry(t, map[string]any{"outerU": outerU{}})
	opts := Options{Registry: reg}
	v := &outerU{In: &innerU{X: 1}}
	var buf bytes.Buffer
	if err := NewEncoder(&buf, opts).Encode(v); !errors.Is(err, ErrTypeNotRegistered) {
		t.Fatalf("inner type unregistered: %v, want ErrTypeNotRegistered", err)
	}
	if m := memo(reg); len(m) != 0 {
		t.Fatalf("a failed fingerprint was memoized: %v", m)
	}
	if err := reg.Register("innerU", innerU{}); err != nil {
		t.Fatal(err)
	}
	var cached bytes.Buffer
	if err := NewEncoder(&cached, opts).Encode(v); err != nil {
		t.Fatalf("after registering the inner type: %v", err)
	}
	m := memo(reg)
	if _, ok := m[kernelKey{reflect.TypeOf(outerU{}), graph.AccessExported}]; !ok {
		t.Fatalf("the successful fingerprint of outerU was not memoized: %v", m)
	}
	for k, sum := range m {
		if want, err := fingerprint(reg, k.t, k.mode, false); err != nil || sum != want {
			t.Errorf("memo of %s: %016x, recomputed %016x (%v)", k.t, sum, want, err)
		}
	}

	portable := stateRegistry(t, map[string]any{"outerU": outerU{}, "innerU": innerU{}})
	var pbuf bytes.Buffer
	if err := NewEncoder(&pbuf, Options{Registry: portable, DisablePlanCache: true}).Encode(v); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pbuf.Bytes(), cached.Bytes()) {
		t.Fatalf("portable stream differs from the memoized one:\n% x\n% x", pbuf.Bytes(), cached.Bytes())
	}
	if m := memo(portable); len(m) != 0 {
		t.Fatalf("the portable path touched the memo: %v", m)
	}
}

// TestFloatOverflowRefused: a float payload too wide for its destination is
// a typed error like an integer's, as a stream value and in a content record;
// NaN and the infinities still fit every width.
func TestFloatOverflowRefused(t *testing.T) {
	type floats struct {
		F float32
		C complex64
	}
	reg := stateRegistry(t, map[string]any{"floats": floats{}})
	f64 := func(v float64) []byte { return binary.BigEndian.AppendUint64(nil, math.Float64bits(v)) }
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	header := []byte{headerMagic, formatV2, 0}
	for _, tc := range []struct {
		name        string
		f, re, im   float64
		overflowing bool
	}{
		{"float32", 1e300, 0, 0, true},
		{"float32 negative", -1e39, 0, 0, true},
		{"complex64 real", 0, 1e300, 0, true},
		{"complex64 imaginary", 0, 0, -1e300, true},
		{"the widest float32", math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32, false},
		{"infinities", math.Inf(1), math.Inf(-1), math.Inf(1), false},
		{"NaN", math.NaN(), math.NaN(), 0, false},
	} {
		body := join(f64(tc.f), f64(tc.re), f64(tc.im))
		for _, p := range codecPaths {
			path, opts := p.name, Options{Registry: reg}
			// As a stream value: the fields of a described floats struct.
			desc := join([]byte{tagStruct, dTableDef, dNamed, 6}, []byte("floats"))
			sum, err := fingerprint(reg, reflect.TypeFor[floats](), 0, true)
			if err != nil {
				t.Fatal(err)
			}
			dec := p.dec(join(header, desc, binary.BigEndian.AppendUint64(nil, sum), body), opts)
			_, errStream := dec.Decode()
			// As the content record of a seeded *floats.
			dec = p.dec(join(header, []byte{contentPtr}, body), opts)
			seed(dec, &floats{})
			_, errRecord := dec.DecodeSeededContent(0)
			for where, err := range map[string]error{"stream value": errStream, "content record": errRecord} {
				if tc.overflowing != errors.Is(err, ErrBadStream) || !tc.overflowing && err != nil {
					t.Errorf("%s, %s path, %s: %v (overflowing: %t)", tc.name, path, where, err, tc.overflowing)
				}
			}
		}
	}
	// The issue's stream, re-spelled: a described float32 holding 1e300.
	stream := join(header, []byte{tagScalar, byte(reflect.Float32)}, f64(1e300))
	for _, p := range codecPaths {
		if v, err := p.dec(stream, Options{Registry: reg}).Decode(); !errors.Is(err, ErrBadStream) {
			t.Errorf("%s path: float32 root 1e300 decoded to %v, %v", p.name, v, err)
		}
	}
}
