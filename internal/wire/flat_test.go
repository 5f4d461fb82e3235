package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"nrmi/internal/graph"
)

// --- differential: V3 must produce graphs equal to V2's over the type zoo ---

// TestV3DifferentialZoo decodes the same values under V2 and V3 and demands
// the resulting graphs be indistinguishable: same shape, same aliasing, same
// scalar content. The flat format is a representation change, never a
// semantic one.
func TestV3DifferentialZoo(t *testing.T) {
	reg := testRegistry(t)
	encode := func(eng Engine) *bytes.Buffer {
		var buf bytes.Buffer
		enc := NewEncoder(&buf, Options{Engine: eng, Registry: reg})
		for _, v := range wireZoo() {
			if err := enc.Encode(v); err != nil {
				t.Fatalf("%s encode %T: %v", eng, v, err)
			}
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	decode := func(eng Engine, buf *bytes.Buffer) []any {
		dec := NewDecoderBytes(buf.Bytes(), Options{Engine: eng, Registry: reg})
		defer dec.ReleaseArena()
		var out []any
		for range wireZoo() {
			v, err := dec.Decode()
			if err != nil {
				t.Fatalf("%s decode: %v", eng, err)
			}
			out = append(out, v)
		}
		return out
	}
	v2 := decode(EngineV2, encode(EngineV2))
	v3 := decode(EngineV3, encode(EngineV3))
	zoo := wireZoo()
	for i := range zoo {
		eq, err := graph.Equal(graph.AccessExported, v3[i], v2[i])
		if err != nil || !eq {
			t.Errorf("zoo[%d] (%T): V3 graph differs from V2: eq=%v err=%v", i, zoo[i], eq, err)
		}
		eq, err = graph.Equal(graph.AccessExported, v3[i], zoo[i])
		if err != nil || !eq {
			t.Errorf("zoo[%d] (%T): V3 graph differs from source: eq=%v err=%v", i, zoo[i], eq, err)
		}
	}
	// Aliasing across Decode calls on one stream: the cyclic tree appears
	// both standalone and inside the slice; identity must carry over.
	if v3[4].(*wnode) != v3[7].([]*wnode)[0] {
		t.Error("cross-frame aliasing lost under V3")
	}
}

// TestV3BytesMode runs the zoo through the bytes-mode decoder: records are
// parsed as slices of the payload itself.
func TestV3BytesMode(t *testing.T) {
	reg := testRegistry(t)
	var buf bytes.Buffer
	enc := NewEncoder(&buf, Options{Engine: EngineV3, Registry: reg})
	for _, v := range wireZoo() {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	dec := NewDecoderBytes(buf.Bytes(), Options{Engine: EngineV3, Registry: reg})
	zoo := wireZoo()
	for i := range zoo {
		v, err := dec.Decode()
		if err != nil {
			t.Fatalf("bytes-mode decode %d: %v", i, err)
		}
		eq, err := graph.Equal(graph.AccessExported, v, zoo[i])
		if err != nil || !eq {
			t.Fatalf("zoo[%d]: bytes-mode graph differs: eq=%v err=%v", i, eq, err)
		}
	}
	dec.ReleaseArena()
}

// TestV3StringsDoNotAliasPayload: V3 strings are the single copy out of the
// frame — decoded strings must survive the caller scribbling over the
// payload buffer (the transport pool will recycle it).
func TestV3StringsDoNotAliasPayload(t *testing.T) {
	reg := testRegistry(t)
	var buf bytes.Buffer
	enc := NewEncoder(&buf, Options{Engine: EngineV3, Registry: reg})
	if err := enc.Encode(&wbag{Name: "fragile"}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	payload := buf.Bytes()
	dec := NewDecoderBytes(payload, Options{Engine: EngineV3, Registry: reg})
	v, err := dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	dec.ReleaseArena()
	for i := range payload {
		payload[i] = 0xAA
	}
	if got := v.(*wbag).Name; got != "fragile" {
		t.Fatalf("decoded string aliased the payload: %q", got)
	}
}

// --- engine validation ---

func TestOptionsValidateEngine(t *testing.T) {
	reg := testRegistry(t)
	for _, eng := range []Engine{EngineV1, EngineV2, EngineV3} {
		if err := (Options{Engine: eng, Registry: reg}).Validate(); err != nil {
			t.Errorf("engine %s: %v", eng, err)
		}
	}
	err := (Options{Engine: Engine(9), Registry: reg}).Validate()
	if !errors.Is(err, ErrUnknownEngine) {
		t.Fatalf("want ErrUnknownEngine, got %v", err)
	}
	// The encoder enforces the same check at first use, so a bad engine
	// fails loudly even when Validate was skipped.
	var buf bytes.Buffer
	enc := NewEncoder(&buf, Options{Engine: Engine(9), Registry: reg})
	if err := enc.Encode(42); !errors.Is(err, ErrUnknownEngine) {
		t.Fatalf("encode with bad engine: want ErrUnknownEngine, got %v", err)
	}
}

// --- handcrafted malformed frames ---

func putU32le(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// v3Stream wraps a frame body in a stream header and uvarint length.
func v3Stream(body []byte) []byte {
	s := []byte{headerMagic, byte(EngineV3), byte(graph.AccessExported)}
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(body)))
	s = append(s, tmp[:n]...)
	return append(s, body...)
}

// TestV3MalformedFrames drives handcrafted hostile frames through both the
// stream and bytes decoders: every case must return a typed error — never
// panic, never index out of bounds, never allocate past what the frame's bytes can carry.
func TestV3MalformedFrames(t *testing.T) {
	reg := testRegistry(t)
	intDef := []byte{byte(reflect.Int)}

	// A minimal valid node record: ptr-to-int holding fScalar(42).
	ptrIntRecord := func() []byte {
		r := []byte{fRecPtr}
		r = putU32le(r, 0) // elem type: int (def index 0)
		r = append(r, fScalar)
		r = putU32le(r, 0)
		var pay [8]byte
		binary.LittleEndian.PutUint64(pay[:], 42)
		return append(r, pay[:]...)
	}()

	frame := func(newNodes, newTypes uint32, types []byte, offs []uint32, recs, tail []byte) []byte {
		b := putU32le(nil, newNodes)
		b = putU32le(b, newTypes)
		b = putU32le(b, uint32(len(types)))
		b = append(b, types...)
		for _, o := range offs {
			b = putU32le(b, o)
		}
		b = append(b, recs...)
		return append(b, tail...)
	}
	refTail := func(id uint32) []byte { return putU32le([]byte{fRef}, id) }

	cases := []struct {
		name string
		body []byte
		want error // sentinel the error chain must carry
	}{
		{
			name: "oversized newNodes",
			body: frame(0xFFFFFFFF, 0, nil, nil, nil, nil),
			want: ErrLimit,
		},
		{
			name: "oversized typesLen",
			body: putU32le(putU32le(putU32le(nil, 0), 0), 0xFFFFFF00),
			want: ErrLimit,
		},
		{
			name: "truncated header",
			body: []byte{0x01, 0x00},
			want: ErrBadStream,
		},
		{
			name: "truncated offset table",
			body: frame(2, 1, intDef, []uint32{0}, nil, nil),
			want: ErrBadStream,
		},
		{
			name: "offset table not starting at zero",
			body: frame(1, 1, intDef, []uint32{4, uint32(len(ptrIntRecord))}, ptrIntRecord, refTail(0)),
			want: ErrBadStream,
		},
		{
			name: "offset table descending",
			body: frame(2, 1, intDef, []uint32{0, 18, 10},
				append(append([]byte{}, ptrIntRecord...), ptrIntRecord...), refTail(0)),
			want: ErrBadStream,
		},
		{
			name: "overlapping node records",
			// Two nodes whose offsets carve the single 18-byte record into a
			// 10-byte and an 8-byte span: neither span parses to completion.
			body: frame(2, 1, intDef, []uint32{0, 10, 18},
				append(append([]byte{}, ptrIntRecord...), ptrIntRecord[10:]...), refTail(0)),
			want: ErrBadStream,
		},
		{
			name: "record with stray bytes",
			// One node whose offset span is 4 bytes longer than its record.
			body: frame(1, 1, intDef, []uint32{0, uint32(len(ptrIntRecord) + 4)},
				append(append([]byte{}, ptrIntRecord...), 0, 0, 0, 0), refTail(0)),
			want: ErrBadStream,
		},
		{
			name: "ref to out-of-range node",
			body: frame(0, 0, nil, []uint32{0}, nil, refTail(99)),
			want: ErrBadStream,
		},
		{
			name: "type def referencing later index",
			// dPtr pointing at type index 5 that is never defined.
			body: frame(0, 1, putU32le([]byte{dPtr}, 5), []uint32{0}, nil, []byte{fNil}),
			want: ErrBadStream,
		},
		{
			name: "oversized map count",
			body: frame(1, 2,
				append(intDef, putU32le(putU32le([]byte{dMap}, 0), 0)...),
				[]uint32{0, 9},
				putU32le(putU32le([]byte{fRecMap}, 1), 0xFFFFFF00),
				refTail(0)),
			want: ErrLimit,
		},
		{
			name: "oversized slice len",
			body: frame(1, 2,
				append(intDef, putU32le([]byte{dSlice}, 0)...),
				[]uint32{0, 9},
				putU32le(putU32le([]byte{fRecSlice}, 1), 0xFFFFFF00),
				refTail(0)),
			want: ErrLimit,
		},
		{
			name: "oversized string length",
			body: frame(0, 1, []byte{byte(reflect.String)}, []uint32{0}, nil,
				putU32le(putU32le([]byte{fScalar}, 0), 0xFFFFFF00)),
			want: ErrLimit,
		},
		{
			name: "truncated scalar payload",
			body: frame(0, 1, intDef, []uint32{0}, nil,
				append(putU32le([]byte{fScalar}, 0), 1, 2)),
			want: ErrBadStream,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stream := v3Stream(tc.body)
			opts := Options{Registry: reg}
			dec := NewDecoderBytes(stream, opts)
			_, err := dec.Decode()
			if !errors.Is(err, tc.want) {
				t.Errorf("stream mode: want %v, got %v", tc.want, err)
			}
			decB := NewDecoderBytes(stream, opts)
			_, errB := decB.Decode()
			if !errors.Is(errB, tc.want) {
				t.Errorf("bytes mode: want %v, got %v", tc.want, errB)
			}
			dec.ReleaseArena()
			decB.ReleaseArena()
		})
	}
}

// --- arena ---

func TestArenaNewPtrDistinct(t *testing.T) {
	a := acquireArena()
	defer a.Release()
	intT := reflect.TypeOf(0)
	seen := map[any]bool{}
	for i := 0; i < 1200; i++ { // crosses several slab boundaries
		p := a.NewPtr(intT)
		ip := p.Interface().(*int)
		if *ip != 0 {
			t.Fatal("arena pointer not zeroed")
		}
		if seen[ip] {
			t.Fatal("arena handed out the same pointer twice")
		}
		seen[ip] = true
		*ip = i
	}
}

func TestArenaSliceAppendDoesNotAlias(t *testing.T) {
	a := acquireArena()
	defer a.Release()
	sliceT := reflect.TypeOf([]int{})
	s1 := a.NewSlice(sliceT, 3).Interface().([]int)
	s2 := a.NewSlice(sliceT, 3).Interface().([]int)
	if cap(s1) != len(s1) {
		t.Fatalf("carve must be capacity-clamped: len=%d cap=%d", len(s1), cap(s1))
	}
	// An append to the first carve must copy out, not grow into the second.
	grown := append(s1, 99)
	_ = grown
	if s2[0] != 0 {
		t.Fatal("append to one carve scribbled on its neighbour")
	}
}

func TestArenaSliceEdgeCases(t *testing.T) {
	a := acquireArena()
	defer a.Release()
	sliceT := reflect.TypeOf([]int{})

	z1 := a.NewSlice(sliceT, 0)
	if z1.Len() != 0 || z1.IsNil() {
		t.Fatal("zero-length carve must be a non-nil empty slice")
	}

	huge := a.NewSlice(sliceT, 100000)
	if huge.Len() != 100000 {
		t.Fatal("oversized request must fall back to direct allocation")
	}

	type namedSlice []int
	ns := a.NewSlice(reflect.TypeOf(namedSlice{}), 2)
	if ns.Type() != reflect.TypeOf(namedSlice{}) {
		t.Fatalf("named slice type lost: %s", ns.Type())
	}
	ns.Index(0).SetInt(7)
	if ns.Interface().(namedSlice)[0] != 7 {
		t.Fatal("named carve not writable")
	}
}

func TestArenaCountersBalance(t *testing.T) {
	acq0, rel0 := ArenaCounters()
	a := acquireArena()
	a.NewPtr(reflect.TypeOf(0))
	a.Release()
	acq1, rel1 := ArenaCounters()
	if acq1-acq0 != 1 || rel1-rel0 != 1 {
		t.Fatalf("counters off: acquires +%d releases +%d", acq1-acq0, rel1-rel0)
	}
}

// TestV3DecoderArenaBalance: every decode path — success, failure, pooled,
// unpooled — must release the decoder's arena exactly once.
func TestV3DecoderArenaBalance(t *testing.T) {
	reg := testRegistry(t)
	var buf bytes.Buffer
	enc := NewEncoder(&buf, Options{Engine: EngineV3, Registry: reg})
	if err := enc.Encode(&wnode{Data: 1, Left: &wnode{Data: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()

	acq0, rel0 := ArenaCounters()

	// Pooled decoder: ReleaseDecoder must release the arena.
	d := AcquireDecoderBytes(stream, Options{Registry: reg})
	if _, err := d.Decode(); err != nil {
		t.Fatal(err)
	}
	ReleaseDecoder(d)

	// Unpooled decoder: explicit ReleaseArena.
	d2 := NewDecoderBytes(stream, Options{Registry: reg})
	if _, err := d2.Decode(); err != nil {
		t.Fatal(err)
	}
	d2.ReleaseArena()

	// Failed decode: arena still released exactly once.
	bad := append(append([]byte{}, stream...), 0xFF)
	bad[len(stream)/2] ^= 0xFF
	d3 := NewDecoderBytes(bad, Options{Registry: reg})
	_, _ = d3.Decode()
	d3.ReleaseArena()

	acq1, rel1 := ArenaCounters()
	if acq1-acq0 != rel1-rel0 {
		t.Fatalf("arena leak: +%d acquires vs +%d releases", acq1-acq0, rel1-rel0)
	}
	if acq1-acq0 == 0 {
		t.Fatal("V3 decode must have used the arena")
	}
}
