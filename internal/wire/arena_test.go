package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"nrmi/internal/graph"
	"nrmi/internal/raceflag"
)

// Engine V3 is V2's bytes decoded into an arena: these tests pin both halves.

// TestV3DifferentialZoo: a V3 encoder writes V2's bytes for every value of
// the type zoo, and a V3 decoder builds from them the graphs a V2 decoder
// builds — same shape, same aliasing, same scalar content.
func TestV3DifferentialZoo(t *testing.T) {
	reg := testRegistry(t)
	encode := func(eng Engine) []byte {
		var buf bytes.Buffer
		return encodeStream(t, NewEncoder(&buf, Options{Engine: eng, Registry: reg}), &buf, wireZoo())
	}
	stream := encode(EngineV2)
	if v3 := encode(EngineV3); !bytes.Equal(v3, stream) {
		t.Fatalf("V3 zoo stream differs from V2's:\n% x\n% x", v3, stream)
	}
	decode := func(eng Engine) []any {
		dec := NewDecoderBytes(stream, Options{Engine: eng, Registry: reg})
		defer dec.ReleaseArena()
		var out []any
		for range wireZoo() {
			v, err := dec.Decode()
			if err != nil {
				t.Fatalf("%s decode: %v", eng, err)
			}
			out = append(out, v)
		}
		if (dec.arena != nil) != (eng == EngineV3) {
			t.Errorf("%s decoder holds arena %v", eng, dec.arena)
		}
		return out
	}
	v2, v3 := decode(EngineV2), decode(EngineV3)
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
		t.Error("cross-value aliasing lost under V3")
	}
}

// TestEngineV3DecodesIntoArena: a pooled V3 decoder builds a 256-node tree
// out of a few slabs, where V2 allocates every node alone.
func TestEngineV3DecodesIntoArena(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are not meaningful under -race (sync.Pool drops Puts)")
	}
	reg := testRegistry(t)
	const nodes = 256
	var build func(lo, hi int) *wnode
	build = func(lo, hi int) *wnode {
		if lo >= hi {
			return nil
		}
		mid := (lo + hi) / 2
		return &wnode{Data: mid, Left: build(lo, mid), Right: build(mid+1, hi)}
	}
	var buf bytes.Buffer
	stream := encodeStream(t, NewEncoder(&buf, Options{Registry: reg}), &buf, []any{build(0, nodes)})
	allocs := func(eng Engine) float64 {
		opts := Options{Engine: eng, Registry: reg}
		decodeOnce := func() {
			dec := AcquireDecoderBytes(stream, opts)
			if _, err := dec.Decode(); err != nil {
				t.Fatal(err)
			}
			if n := len(dec.Objects()); n != nodes {
				t.Fatalf("%s decoded %d objects, want %d", eng, n, nodes)
			}
			ReleaseDecoder(dec)
		}
		for i := 0; i < 5; i++ {
			decodeOnce()
		}
		return testing.AllocsPerRun(20, decodeOnce)
	}
	if v3 := allocs(EngineV3); v3 > 8 {
		t.Errorf("V3 decode of %d nodes allocates %.1f/run, want at most 8", nodes, v3)
	}
	if v2 := allocs(EngineV2); v2 < nodes {
		t.Errorf("V2 decode of %d nodes allocates %.1f/run, want one per node", nodes, v2)
	}
}

// TestV3StringsDoNotAliasPayload: decoded strings are copied out of the
// message — they must survive the caller scribbling over the payload buffer
// (the transport pool will recycle it).
func TestV3StringsDoNotAliasPayload(t *testing.T) {
	reg := testRegistry(t)
	var buf bytes.Buffer
	opts := Options{Engine: EngineV3, Registry: reg}
	payload := encodeStream(t, NewEncoder(&buf, opts), &buf, []any{&wbag{Name: "fragile"}})
	dec := NewDecoderBytes(payload, opts)
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

// TestV3DecoderArenaBalance: every decode path — success, failure, pooled,
// unpooled — must release the decoder's arena exactly once.
func TestV3DecoderArenaBalance(t *testing.T) {
	reg := testRegistry(t)
	var buf bytes.Buffer
	opts := Options{Engine: EngineV3, Registry: reg}
	stream := encodeStream(t, NewEncoder(&buf, opts), &buf, []any{&wnode{Data: 1, Left: &wnode{Data: 2}}})

	acq0, rel0 := ArenaCounters()

	// Pooled decoder: ReleaseDecoder must release the arena.
	d := AcquireDecoderBytes(stream, opts)
	if _, err := d.Decode(); err != nil {
		t.Fatal(err)
	}
	ReleaseDecoder(d)

	// Unpooled decoder: explicit ReleaseArena.
	d2 := NewDecoderBytes(stream, opts)
	if _, err := d2.Decode(); err != nil {
		t.Fatal(err)
	}
	d2.ReleaseArena()

	// Failed decode: arena still released exactly once.
	d3 := NewDecoderBytes(stream[:len(stream)-1], opts)
	if _, err := d3.Decode(); err == nil {
		t.Fatal("a truncated stream decoded")
	}
	d3.ReleaseArena()

	acq1, rel1 := ArenaCounters()
	if acq1-acq0 != rel1-rel0 {
		t.Fatalf("arena leak: +%d acquires vs +%d releases", acq1-acq0, rel1-rel0)
	}
	if acq1-acq0 != 3 {
		t.Fatalf("three V3 decodes acquired %d arenas, want 3", acq1-acq0)
	}
}

// The retired flat format 3: its value and record leads, and its fixed-width
// little-endian fields.
const (
	fNil, fRef, fScalar         byte = 0x00, 0x01, 0x02
	fRecPtr, fRecMap, fRecSlice byte = 0x60, 0x61, 0x62
)

func putU32le(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// v3Stream wraps a flat frame body in a format-3 stream header and the
// frame's length.
func v3Stream(body []byte) []byte {
	return append([]byte{headerMagic, 3, byte(graph.AccessExported), byte(len(body))}, body...)
}

// TestV3MalformedFrames drives the hostile frames the flat decoder was once
// tested against through decoders of either configuration: format 3 is
// retired, so each is refused at its header — a typed error, before a byte of
// the frame is read, an object built or an arena acquired.
func TestV3MalformedFrames(t *testing.T) {
	reg := testRegistry(t)
	intDef := []byte{byte(reflect.Int)}

	// A minimal valid node record: ptr-to-int holding fScalar(42).
	ptrIntRecord := putU32le(append(putU32le([]byte{fRecPtr}, 0), fScalar), 0)
	ptrIntRecord = append(ptrIntRecord, 42, 0, 0, 0, 0, 0, 0, 0)
	records := func(tail ...byte) []byte { return append(append([]byte{}, ptrIntRecord...), tail...) }

	frame := func(newNodes, newTypes uint32, types []byte, offs []uint32, recs, tail []byte) []byte {
		b := putU32le(putU32le(putU32le(nil, newNodes), newTypes), uint32(len(types)))
		b = append(b, types...)
		for _, o := range offs {
			b = putU32le(b, o)
		}
		return append(append(b, recs...), tail...)
	}
	refTail := func(id uint32) []byte { return putU32le([]byte{fRef}, id) }

	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"oversized newNodes", frame(0xFFFFFFFF, 0, nil, nil, nil, nil)},
		{"oversized typesLen", putU32le(putU32le(putU32le(nil, 0), 0), 0xFFFFFF00)},
		{"truncated header", []byte{0x01, 0x00}},
		{"truncated offset table", frame(2, 1, intDef, []uint32{0}, nil, nil)},
		{"offset table not starting at zero", frame(1, 1, intDef, []uint32{4, uint32(len(ptrIntRecord))}, ptrIntRecord, refTail(0))},
		{"offset table descending", frame(2, 1, intDef, []uint32{0, 18, 10}, records(ptrIntRecord...), refTail(0))},
		{"overlapping node records", frame(2, 1, intDef, []uint32{0, 10, 18}, records(ptrIntRecord[10:]...), refTail(0))},
		{"record with stray bytes", frame(1, 1, intDef, []uint32{0, uint32(len(ptrIntRecord) + 4)}, records(0, 0, 0, 0), refTail(0))},
		{"ref to out-of-range node", frame(0, 0, nil, []uint32{0}, nil, refTail(99))},
		{"type def referencing later index", frame(0, 1, putU32le([]byte{dPtr}, 5), []uint32{0}, nil, []byte{fNil})},
		{"oversized map count", frame(1, 2, append(intDef, putU32le(putU32le([]byte{dMap}, 0), 0)...), []uint32{0, 9},
			putU32le(putU32le([]byte{fRecMap}, 1), 0xFFFFFF00), refTail(0))},
		{"oversized slice len", frame(1, 2, append(intDef, putU32le([]byte{dSlice}, 0)...), []uint32{0, 9},
			putU32le(putU32le([]byte{fRecSlice}, 1), 0xFFFFFF00), refTail(0))},
		{"oversized string length", frame(0, 1, []byte{byte(reflect.String)}, []uint32{0}, nil,
			putU32le(putU32le([]byte{fScalar}, 0), 0xFFFFFF00))},
		{"truncated scalar payload", frame(0, 1, intDef, []uint32{0}, nil, append(putU32le([]byte{fScalar}, 0), 1, 2))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, eng := range []Engine{EngineV2, EngineV3} {
				acq0, _ := ArenaCounters()
				dec := NewDecoderBytes(v3Stream(tc.body), Options{Engine: eng, Registry: reg})
				_, err := dec.Decode()
				if !errors.Is(err, ErrBadStream) || err.Error() != "wire: corrupted or incompatible stream: unknown engine 3" {
					t.Errorf("%s decoder: %v, want the unknown-engine rejection", eng, err)
				}
				if acq1, _ := ArenaCounters(); dec.BytesRead() != 2 || len(dec.Objects()) != 0 || acq1 != acq0 {
					t.Errorf("%s decoder: %d bytes read, %d objects, %d arenas: the frame was touched",
						eng, dec.BytesRead(), len(dec.Objects()), acq1-acq0)
				}
				dec.ReleaseArena()
			}
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
