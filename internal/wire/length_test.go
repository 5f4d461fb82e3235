package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"nrmi/internal/graph"
)

// Types of the length tables. unit has no encoded part; opaque has none in
// exported mode and still occupies memory; the holders put a slice and a map
// in bare slots.
type (
	unit        struct{}
	opaque      struct{ x int64 }
	sliceHolder struct{ S []int64 }
	mapHolder   struct{ M map[int64]int64 }
	wide        struct{ A, B, C, D, E, F, G, H int64 }
)

func lengthRegistry(t testing.TB) *Registry {
	t.Helper()
	reg := NewRegistry()
	for name, sample := range map[string]any{
		"wnode": wnode{}, "unit": unit{}, "opaque": opaque{}, "wide": wide{},
		"sliceHolder": sliceHolder{}, "mapHolder": mapHolder{},
	} {
		if err := reg.Register(name, sample); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

// hostileLen is the length the tables announce: under the former fixed cap of
// 1<<26, so nothing but the bytes that follow can refuse it.
const hostileLen = 1<<26 - 1

// unhashableKeyStream is a map[any]bool of two entries whose first key is an
// empty map[any]bool.
var unhashableKeyStream = []byte{headerMagic, formatV2, 0, tagMap, dTableDef, dMap, dIface, byte(reflect.Bool), 2, tagMap, dTableRef, 0, 0, 0, 0}

// hostileStream is one message whose last length field lies, and the seeded
// original its content record restores, if it is one.
type hostileStream struct {
	name   string
	stream []byte
	seed   any
}

// hostileLengthStreams spells the table: each stream is an honest encoding of
// an empty container with its trailing zero length overwritten, or is written
// out by hand where no encoder produces the shape.
func hostileLengthStreams(t testing.TB, reg *Registry) []hostileStream {
	t.Helper()
	// lie encodes v, whose encoding ends in a zero length, and replaces that
	// length: a varint under V2, eight bytes under V1.
	lie := func(eng Engine, v any, n uint64) []byte {
		var buf bytes.Buffer
		enc := NewEncoder(&buf, Options{Engine: eng, Registry: reg})
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		s := buf.Bytes()
		if eng == EngineV1 {
			return binary.BigEndian.AppendUint64(s[:len(s)-8], n)
		}
		return binary.AppendUvarint(s[:len(s)-1], n)
	}
	v2 := func(body ...byte) []byte { return append([]byte{headerMagic, formatV2, 0}, body...) }
	huge := binary.AppendUvarint(nil, hostileLen)
	i64 := byte(reflect.Int64)

	// Every level of []any in []any announces all the bytes that are left:
	// refused at the second level, where the first level's elements are owed
	// theirs. Unrefused, each level allocates 16 bytes per byte of message.
	nested := v2(tagSlice, dTableDef, dSlice, dTableDef, dIface)
	const nestedLen = 32 << 10
	for len(nested) < nestedLen/2 {
		nested = binary.AppendUvarint(nested, uint64(nestedLen-len(nested)-8))
		nested = append(nested, tagSlice, dTableRef, 0)
	}
	nested = append(nested, make([]byte, nestedLen-len(nested))...)

	return []hostileStream{
		{name: "v2 described slice of int64", stream: lie(EngineV2, []int64{}, hostileLen)},
		{name: "v2 described slice of a 64-byte struct", stream: lie(EngineV2, []wide{}, hostileLen)},
		{name: "v2 described slice of [128]int64", stream: lie(EngineV2, [][128]int64{}, hostileLen)},
		{name: "v2 described slice of values with no encoded part", stream: lie(EngineV2, []opaque{}, hostileLen)},
		{name: "v2 described map", stream: lie(EngineV2, map[int64]int64{}, hostileLen)},
		{name: "v2 described map of struct{} keys", stream: lie(EngineV2, map[unit]int64{}, 2)},
		{name: "v2 described string", stream: lie(EngineV2, "", hostileLen)},
		{name: "v2 bare slice", stream: lie(EngineV2, &sliceHolder{S: []int64{}}, hostileLen)},
		{name: "v2 bare map", stream: lie(EngineV2, &mapHolder{M: map[int64]int64{}}, hostileLen)},
		{name: "v2 pointer to an array the descriptor sizes",
			stream: v2(append(append([]byte{tagPtr, dTableDef, dArray}, huge...), dTableDef, i64)...)},
		{name: "v2 array value the descriptor sizes",
			stream: v2(append(append([]byte{tagArray, dTableDef, dArray}, huge...), dTableDef, i64)...)},
		{name: "v2 array descriptor past the address space",
			stream: v2(append(binary.AppendUvarint([]byte{tagPtr, dTableDef, dArray}, 1<<62), dTableDef, i64)...)},
		{name: "v2 slice of arrays the descriptor sizes",
			stream: v2(append(append([]byte{tagSlice, dTableDef, dSlice, dTableDef, dArray}, huge...), dTableDef, i64, 1, 0)...)},
		{name: "v2 nested slices that each announce the rest", stream: nested},
		{name: "v2 content record of a map", stream: v2(append([]byte{contentMap}, huge...)...), seed: map[int64]int64{}},
		{name: "v2 content record of a slice", stream: v2(append([]byte{contentSlice}, huge...)...), seed: make([]int64, 4)},
		// Not a length, but the same contract: a map[any]bool keyed by a map.
		{name: "v2 key no map can hash", stream: unhashableKeyStream},
		{name: "v1 slice", stream: lie(EngineV1, []int64{}, hostileLen)},
		{name: "v1 slice of a 64-byte struct", stream: lie(EngineV1, []wide{}, hostileLen)},
		{name: "v1 map", stream: lie(EngineV1, map[int64]int64{}, hostileLen)},
		{name: "v1 string", stream: lie(EngineV1, "", hostileLen)},
	}
}

// TestHostileLengths: a length the bytes that follow cannot carry is refused
// with a typed error before it is allocated for, on both codec paths. Each
// stream is under 100 bytes (one is 32 KiB); decoding one may allocate 1 MiB.
func TestHostileLengths(t *testing.T) {
	reg := lengthRegistry(t)
	for _, tc := range hostileLengthStreams(t, reg) {
		for path, opts := range bothPathOptions(reg) {
			t.Run(tc.name+"/"+path, func(t *testing.T) {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				dec := NewDecoderBytes(tc.stream, opts)
				var err error
				if tc.seed == nil {
					_, err = dec.Decode()
				} else {
					seed(dec, tc.seed)
					_, err = dec.DecodeSeededContent(0)
				}
				runtime.ReadMemStats(&after)
				if !errors.Is(err, ErrLimit) && !errors.Is(err, ErrBadStream) {
					t.Errorf("got %v, want ErrLimit or ErrBadStream", err)
				}
				if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
					t.Errorf("a %d-byte stream allocated %d KiB", len(tc.stream), grew>>10)
				}
			})
		}
	}
}

// TestHonestLengthsDecode: what the length rule must not refuse. Empty
// containers whose descriptors name arrays no byte of the message carries,
// elements of one byte each up to the last byte of the message, elements with
// no encoded part, and a graph of 1 024 objects, under every configuration.
func TestHonestLengthsDecode(t *testing.T) {
	reg := lengthRegistry(t)
	same := make([]string, 300)
	for i := range same {
		same[i] = "one string, then 299 one-byte back-references"
	}
	set := make(map[int64]unit)
	for i := int64(0); i < 100; i++ {
		set[i] = unit{}
	}
	root := &wnode{}
	for i, level := 1, []*wnode{root}; i < 1024; {
		var next []*wnode
		for _, n := range level {
			n.Left, n.Right = &wnode{Data: i}, &wnode{Data: i + 1}
			next = append(next, n.Left, n.Right)
			i += 2
		}
		level = next
	}
	values := []any{
		[]int64{}, []int64{0}, make([]bool, 300), make([]float64, 100), make([]complex128, 100),
		same, make([]any, 300), make([][]int64, 300), make([]*wnode, 300), make([]map[int64]int64, 300),
		make([]unit, 1000), make([][0]int64, 50), make([]opaque, 100), [4]unit{}, &[1 << 12]unit{},
		[][512]byte{}, []*[1000]int64{nil}, map[[32]byte]string{}, map[int64][4096]int64{}, &[256]int64{},
		map[unit]int64{{}: 7}, map[unit]unit{{}: {}}, set, map[int64]int64{1: 2, 3: 4},
		&sliceHolder{}, &sliceHolder{S: make([]int64, 10)}, &mapHolder{M: map[int64]int64{5: 6}},
		[]wide{{}, {A: 1}}, [][128]int64{{}, {127: 1}}, root,
	}
	for name, opts := range map[string]Options{
		"v1": {Engine: EngineV1}, "v2-portable": {DisablePlanCache: true}, "v2": {}, "v3": {Engine: EngineV3},
	} {
		opts.Registry = reg
		for i, v := range values {
			t.Run(fmt.Sprintf("%s/%d:%T", name, i, v), func(t *testing.T) {
				if got := roundTrip(t, opts, v); !sameGraph(t, reg, graph.AccessExported, v, got) {
					t.Errorf("came back as %.80v", got)
				}
			})
		}
	}
}
