package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"nrmi/internal/graph"
)

// Test types.
type wnode struct {
	Data        int
	Left, Right *wnode
}

type wbag struct {
	Name   string
	Items  []int
	Table  map[string]*wnode
	Any    any
	Nested inner
	Arr    [3]int16
	F      float64
	C      complex128
	B      bool
	U      uint32
}

type inner struct {
	X, Y int
}

type hidden struct {
	Public int
	secret string
}

type namedInt int

func testRegistry(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	for name, sample := range map[string]any{
		"wnode":    wnode{},
		"wbag":     wbag{},
		"inner":    inner{},
		"hidden":   hidden{},
		"namedInt": namedInt(0),
	} {
		if err := r.Register(name, sample); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
	}
	return r
}

// roundTrip encodes v and decodes it back under the given options.
func roundTrip(t *testing.T, opts Options, v any) any {
	t.Helper()
	var buf bytes.Buffer
	enc := NewEncoder(&buf, opts)
	if err := enc.Encode(v); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	dec := NewDecoderBytes(buf.Bytes(), opts)
	defer dec.ReleaseArena()
	out, err := dec.Decode()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return out
}

func bothEngines(t *testing.T, f func(t *testing.T, opts Options)) {
	t.Helper()
	reg := testRegistry(t)
	for _, eng := range []Engine{EngineV1, EngineV2, EngineV3} {
		opts := Options{Engine: eng, Registry: reg}
		t.Run(eng.String(), func(t *testing.T) { f(t, opts) })
	}
}

func TestRoundTripScalars(t *testing.T) {
	bothEngines(t, func(t *testing.T, opts Options) {
		cases := []any{
			int(42), int(-42), int8(-1), int16(300), int32(1 << 20), int64(-1 << 40),
			uint(7), uint8(255), uint16(65535), uint32(1 << 30), uint64(1 << 60),
			float32(1.5), float64(-2.25),
			complex64(complex(1, 2)), complex128(complex(-3, 4)),
			true, false, "", "hello, 世界", namedInt(9),
		}
		for _, c := range cases {
			got := roundTrip(t, opts, c)
			if !reflect.DeepEqual(got, c) {
				t.Errorf("round trip %T(%v) = %T(%v)", c, c, got, got)
			}
		}
	})
}

func TestRoundTripNil(t *testing.T) {
	bothEngines(t, func(t *testing.T, opts Options) {
		if got := roundTrip(t, opts, nil); got != nil {
			t.Fatalf("nil round trip = %v", got)
		}
		var p *wnode
		if got := roundTrip(t, opts, p); got != nil {
			t.Fatalf("nil pointer round trip = %v (want untyped nil)", got)
		}
	})
}

func TestRoundTripTree(t *testing.T) {
	bothEngines(t, func(t *testing.T, opts Options) {
		tree := &wnode{Data: 1, Left: &wnode{Data: 2}, Right: &wnode{Data: 3, Left: &wnode{Data: 4}}}
		got := roundTrip(t, opts, tree).(*wnode)
		eq, err := graph.Equal(graph.AccessExported, tree, got)
		if err != nil || !eq {
			t.Fatalf("tree not preserved: eq=%v err=%v", eq, err)
		}
		if got == tree {
			t.Fatal("decode must produce fresh objects")
		}
	})
}

func TestRoundTripAliasing(t *testing.T) {
	bothEngines(t, func(t *testing.T, opts Options) {
		shared := &wnode{Data: 7}
		tree := &wnode{Left: shared, Right: shared}
		got := roundTrip(t, opts, tree).(*wnode)
		if got.Left != got.Right {
			t.Fatal("aliasing lost in round trip")
		}
	})
}

func TestRoundTripCycle(t *testing.T) {
	bothEngines(t, func(t *testing.T, opts Options) {
		a := &wnode{Data: 1}
		b := &wnode{Data: 2, Left: a}
		a.Right = b
		got := roundTrip(t, opts, a).(*wnode)
		if got.Right.Left != got {
			t.Fatal("cycle lost in round trip")
		}
	})
}

func TestRoundTripComposite(t *testing.T) {
	bothEngines(t, func(t *testing.T, opts Options) {
		n := &wnode{Data: 9}
		v := &wbag{
			Name:   "bag",
			Items:  []int{3, 1, 4, 1, 5},
			Table:  map[string]*wnode{"n": n, "m": {Data: 10}},
			Any:    n, // aliases Table["n"]
			Nested: inner{X: 1, Y: 2},
			Arr:    [3]int16{7, 8, 9},
			F:      2.5,
			C:      complex(1, -1),
			B:      true,
			U:      77,
		}
		got := roundTrip(t, opts, v).(*wbag)
		eq, err := graph.Equal(graph.AccessExported, v, got)
		if err != nil || !eq {
			t.Fatalf("composite not preserved: eq=%v err=%v", eq, err)
		}
		if got.Any.(*wnode) != got.Table["n"] {
			t.Fatal("aliasing between interface and map value lost")
		}
	})
}

func TestRoundTripSharedSlice(t *testing.T) {
	bothEngines(t, func(t *testing.T, opts Options) {
		type holder struct{ A, B []int }
		s := []int{1, 2, 3}
		h := &holder{A: s, B: s}
		reg := opts.Registry
		if err := reg.Register("holder", holder{}); err != nil {
			t.Fatal(err)
		}
		got := roundTrip(t, opts, h).(*holder)
		got.A[0] = 99
		if got.B[0] != 99 {
			t.Fatal("slice identity lost: A and B must share storage after decode")
		}
	})
}

func TestRoundTripMapWithPointerKeys(t *testing.T) {
	bothEngines(t, func(t *testing.T, opts Options) {
		k1, k2 := &wnode{Data: 1}, &wnode{Data: 2}
		m := map[*wnode]string{k1: "one", k2: "two"}
		got := roundTrip(t, opts, m).(map[*wnode]string)
		if len(got) != 2 {
			t.Fatalf("want 2 entries, got %d", len(got))
		}
		vals := map[string]bool{}
		for k, v := range got {
			if (v == "one" && k.Data != 1) || (v == "two" && k.Data != 2) {
				t.Fatalf("key/value mismatch: %v -> %s", k.Data, v)
			}
			vals[v] = true
		}
		if !vals["one"] || !vals["two"] {
			t.Fatal("values lost")
		}
	})
}

func TestRoundTripPointerToScalar(t *testing.T) {
	bothEngines(t, func(t *testing.T, opts Options) {
		x := 42
		got := roundTrip(t, opts, &x).(*int)
		if *got != 42 {
			t.Fatalf("want 42, got %d", *got)
		}
	})
}

func TestAliasingAcrossEncodeCalls(t *testing.T) {
	bothEngines(t, func(t *testing.T, opts Options) {
		shared := &wnode{Data: 5}
		a := &wnode{Left: shared}
		b := &wnode{Right: shared}
		var buf bytes.Buffer
		enc := NewEncoder(&buf, opts)
		if err := enc.Encode(a); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(b); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		dec := NewDecoderBytes(buf.Bytes(), opts)
		defer dec.ReleaseArena()
		ga, err := dec.Decode()
		if err != nil {
			t.Fatal(err)
		}
		gb, err := dec.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if ga.(*wnode).Left != gb.(*wnode).Right {
			t.Fatal("aliasing across Encode calls lost (shared structure between parameters)")
		}
	})
}

func TestUnregisteredTypeFails(t *testing.T) {
	type unregistered struct{ X int }
	reg := NewRegistry()
	var buf bytes.Buffer
	enc := NewEncoder(&buf, Options{Registry: reg})
	err := enc.Encode(&unregistered{X: 1})
	if !errors.Is(err, ErrTypeNotRegistered) {
		t.Fatalf("want ErrTypeNotRegistered, got %v", err)
	}
}

func TestDecodeUnknownNameFails(t *testing.T) {
	regA := NewRegistry()
	if err := regA.Register("secretname", wnode{}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := NewEncoder(&buf, Options{Registry: regA})
	if err := enc.Encode(&wnode{Data: 1}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	dec := NewDecoderBytes(buf.Bytes(), Options{Registry: NewRegistry()})
	_, err := dec.Decode()
	if !errors.Is(err, ErrTypeNotRegistered) {
		t.Fatalf("want ErrTypeNotRegistered, got %v", err)
	}
}

func TestUnexportedFieldModes(t *testing.T) {
	reg := testRegistry(t)
	// Exported mode: non-zero unexported field must fail loudly.
	var buf bytes.Buffer
	enc := NewEncoder(&buf, Options{Registry: reg})
	err := enc.Encode(&hidden{Public: 1, secret: "x"})
	if !errors.Is(err, graph.ErrUnexportedField) {
		t.Fatalf("want ErrUnexportedField, got %v", err)
	}
	// Unsafe mode: full fidelity.
	opts := Options{Registry: reg, Access: graph.AccessUnsafe}
	got := roundTrip(t, opts, &hidden{Public: 1, secret: "x"}).(*hidden)
	if got.secret != "x" || got.Public != 1 {
		t.Fatalf("unsafe round trip lost state: %+v", got)
	}
}

func TestForbiddenKind(t *testing.T) {
	reg := testRegistry(t)
	var buf bytes.Buffer
	enc := NewEncoder(&buf, Options{Registry: reg})
	err := enc.Encode(make(chan int))
	if !errors.Is(err, graph.ErrNotSerializable) {
		t.Fatalf("want ErrNotSerializable, got %v", err)
	}
}

func TestSliceOverlapRejected(t *testing.T) {
	reg := testRegistry(t)
	type views struct{ A, B []int }
	if err := reg.Register("views", views{}); err != nil {
		t.Fatal(err)
	}
	backing := make([]int, 8)
	var buf bytes.Buffer
	enc := NewEncoder(&buf, Options{Registry: reg})
	err := enc.Encode(&views{A: backing, B: backing[:4]})
	if !errors.Is(err, graph.ErrSliceOverlap) {
		t.Fatalf("want ErrSliceOverlap, got %v", err)
	}
}

func TestV1LargerThanV2(t *testing.T) {
	reg := testRegistry(t)
	tree := buildRandomTree(12345, 64)
	size := func(eng Engine) int64 {
		var buf bytes.Buffer
		enc := NewEncoder(&buf, Options{Engine: eng, Registry: reg})
		if err := enc.Encode(tree); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		return enc.BytesWritten()
	}
	v1, v2 := size(EngineV1), size(EngineV2)
	if v1 <= v2 {
		t.Fatalf("V1 must be more verbose than V2: v1=%d v2=%d", v1, v2)
	}
	if v1 < 2*v2 {
		t.Logf("note: v1=%d v2=%d (ratio %.2f)", v1, v2, float64(v1)/float64(v2))
	}
}

func TestLinearMapAlignment(t *testing.T) {
	bothEngines(t, func(t *testing.T, opts Options) {
		shared := &wnode{Data: 7}
		tree := &wnode{Data: 1, Left: shared, Right: &wnode{Data: 2, Left: shared}}
		var buf bytes.Buffer
		enc := NewEncoder(&buf, opts)
		if err := enc.Encode(tree); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		dec := NewDecoderBytes(buf.Bytes(), opts)
		defer dec.ReleaseArena()
		if _, err := dec.Decode(); err != nil {
			t.Fatal(err)
		}
		eo, do := enc.Objects(), dec.Objects()
		if len(eo) != len(do) {
			t.Fatalf("linear maps differ in length: %d vs %d", len(eo), len(do))
		}
		for i := range eo {
			srcData := eo[i].Interface().(*wnode).Data
			dstData := do[i].Interface().(*wnode).Data
			if srcData != dstData {
				t.Fatalf("linear map misaligned at %d: %d vs %d", i, srcData, dstData)
			}
		}
	})
}

func TestSeededContentProtocol(t *testing.T) {
	bothEngines(t, func(t *testing.T, opts Options) {
		// "Server" side: a graph whose objects are seeded, contents mutated,
		// then shipped as content records.
		serverA := &wnode{Data: 1}
		serverB := &wnode{Data: 2}
		serverA.Left = serverB

		var buf bytes.Buffer
		enc := NewEncoder(&buf, opts)
		if err := enc.SeedDecoded(valuesOf(serverA, serverB)); err != nil {
			t.Fatal(err)
		}
		ida, idb := 0, 1
		// Server mutates: A.Data=10, A.Left -> new node pointing back to B.
		serverA.Data = 10
		serverA.Left = &wnode{Data: 99, Right: serverB}
		if err := enc.EncodeSeededContent(ida); err != nil {
			t.Fatal(err)
		}
		if err := enc.EncodeSeededContent(idb); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}

		// "Client" side: originals seeded in the same order.
		clientA := &wnode{Data: 1}
		clientB := &wnode{Data: 2}
		clientA.Left = clientB
		dec := NewDecoderBytes(buf.Bytes(), opts)
		defer dec.ReleaseArena()
		seed(dec, clientA, clientB)
		tmpA, err := dec.DecodeSeededContent(ida)
		if err != nil {
			t.Fatal(err)
		}
		tmpB, err := dec.DecodeSeededContent(idb)
		if err != nil {
			t.Fatal(err)
		}
		// Temp A's new-node child must point at the ORIGINAL clientB.
		ta := tmpA.Interface().(*wnode)
		if ta.Data != 10 {
			t.Fatalf("temp A data = %d, want 10", ta.Data)
		}
		if ta.Left == nil || ta.Left.Data != 99 {
			t.Fatal("new node missing from temp A")
		}
		if ta.Left.Right != clientB {
			t.Fatal("reference to seeded object must resolve to the client original")
		}
		tb := tmpB.Interface().(*wnode)
		if tb.Data != 2 {
			t.Fatalf("temp B data = %d, want 2", tb.Data)
		}
		// Originals untouched by decode.
		if clientA.Data != 1 {
			t.Fatal("decode must not mutate originals")
		}
	})
}

func TestSeededSliceAndMapContent(t *testing.T) {
	bothEngines(t, func(t *testing.T, opts Options) {
		srvSlice := []int{1, 2, 3}
		srvMap := map[string]int{"a": 1}
		var buf bytes.Buffer
		enc := NewEncoder(&buf, opts)
		if err := enc.SeedDecoded(valuesOf(srvSlice, srvMap)); err != nil {
			t.Fatal(err)
		}
		ids, idm := 0, 1
		srvSlice[1] = 20
		srvMap["b"] = 2
		if err := enc.EncodeSeededContent(ids); err != nil {
			t.Fatal(err)
		}
		if err := enc.EncodeSeededContent(idm); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}

		cliSlice := []int{1, 2, 3}
		cliMap := map[string]int{"a": 1}
		dec := NewDecoderBytes(buf.Bytes(), opts)
		defer dec.ReleaseArena()
		seed(dec, cliSlice, cliMap)
		ts, err := dec.DecodeSeededContent(ids)
		if err != nil {
			t.Fatal(err)
		}
		tm, err := dec.DecodeSeededContent(idm)
		if err != nil {
			t.Fatal(err)
		}
		if got := ts.Interface().([]int); got[1] != 20 {
			t.Fatalf("slice content = %v", got)
		}
		if got := tm.Interface().(map[string]int); got["b"] != 2 || len(got) != 2 {
			t.Fatalf("map content = %v", got)
		}

		// A slice is a fixed-length array object: a record of another
		// length is refused before anything is staged or written.
		short := []int{1, 2}
		dec = NewDecoderBytes(buf.Bytes(), opts)
		defer dec.ReleaseArena()
		seed(dec, short, cliMap)
		if _, err := dec.DecodeSeededContent(ids); !errors.Is(err, ErrBadStream) || short[0] != 1 || short[1] != 2 {
			t.Fatalf("3-element record for a 2-element slice: err %v, slice %v", err, short)
		}
	})
}

// TestSeedObjectDuplicate: SeedDecoded enters a repeated object once, keeps
// empty slices of two types apart, and refuses a pointer to a struct's first
// field next to the struct's.
func TestSeedObjectDuplicate(t *testing.T) {
	n := &wnode{}
	for _, tc := range []struct {
		name string
		objs []reflect.Value
		want int
		err  error
	}{
		{"a repeat", valuesOf(n, n), 1, nil},
		{"empty slices of two types", valuesOf([]int{}, []string{}), 2, nil},
		{"a struct and its first field", valuesOf(n, &n.Data), 1, graph.ErrObjectOverlap},
	} {
		var buf bytes.Buffer
		enc := NewEncoder(&buf, Options{Registry: testRegistry(t)})
		err := enc.SeedDecoded(tc.objs)
		if !errors.Is(err, tc.err) || len(enc.Objects()) != tc.want {
			t.Errorf("%s: %d objects, err %v; want %d, %v", tc.name, len(enc.Objects()), err, tc.want, tc.err)
		}
	}
}

func TestRawUintAndString(t *testing.T) {
	bothEngines(t, func(t *testing.T, opts Options) {
		var buf bytes.Buffer
		enc := NewEncoder(&buf, opts)
		if err := enc.EncodeUint(12345); err != nil {
			t.Fatal(err)
		}
		if err := enc.EncodeString("framing"); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		dec := NewDecoderBytes(buf.Bytes(), opts)
		u, err := dec.DecodeUint()
		if err != nil || u != 12345 {
			t.Fatalf("uint: %d, %v", u, err)
		}
		s, err := dec.DecodeBytes()
		if err != nil || string(s) != "framing" {
			t.Fatalf("string: %q, %v", s, err)
		}
	})
}

func TestCorruptedStream(t *testing.T) {
	dec := NewDecoderBytes([]byte{0xFF, 0x01, 0x00, 0x00}, Options{Registry: testRegistry(t)})
	_, err := dec.Decode()
	if !errors.Is(err, ErrBadStream) {
		t.Fatalf("want ErrBadStream, got %v", err)
	}
}

func TestTruncatedStream(t *testing.T) {
	reg := testRegistry(t)
	var buf bytes.Buffer
	enc := NewEncoder(&buf, Options{Registry: reg})
	if err := enc.Encode(buildRandomTree(7, 16)); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	dec := NewDecoderBytes(full[:len(full)/2], Options{Registry: reg})
	if _, err := dec.Decode(); err == nil {
		t.Fatal("truncated stream must fail")
	}
}

func TestRegistryConflicts(t *testing.T) {
	r := NewRegistry()
	if err := r.Register("a", wnode{}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("a", wnode{}); err != nil {
		t.Fatalf("idempotent re-registration must succeed: %v", err)
	}
	if err := r.Register("a", inner{}); err == nil {
		t.Fatal("conflicting name rebind must fail")
	}
	if err := r.Register("b", wnode{}); err == nil {
		t.Fatal("conflicting type rebind must fail")
	}
	if _, err := r.TypeByName([]byte("missing")); !errors.Is(err, ErrTypeNotRegistered) {
		t.Fatalf("want ErrTypeNotRegistered, got %v", err)
	}
}

// buildRandomTree builds a deterministic pseudo-random tree with some
// internal aliasing, shared with the quick tests.
func buildRandomTree(seed int64, size int) *wnode {
	state := uint64(seed)*2654435761 + 12345
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state>>33) % n
	}
	nodes := []*wnode{{Data: next(1000)}}
	for len(nodes) < size {
		p := nodes[next(len(nodes))]
		n := &wnode{Data: next(1000)}
		if p.Left == nil {
			p.Left = n
		} else if p.Right == nil {
			p.Right = n
		} else {
			continue
		}
		nodes = append(nodes, n)
	}
	for i := 0; i < size/4; i++ {
		p := nodes[next(len(nodes))]
		if p.Right == nil {
			p.Right = nodes[next(len(nodes))]
		}
	}
	return nodes[0]
}

func TestQuickRoundTripGraphEqual(t *testing.T) {
	reg := testRegistry(t)
	for _, eng := range []Engine{EngineV1, EngineV2, EngineV3} {
		opts := Options{Engine: eng, Registry: reg}
		f := func(seed int64, sz uint8) bool {
			size := int(sz%96) + 1
			tree := buildRandomTree(seed, size)
			var buf bytes.Buffer
			enc := NewEncoder(&buf, opts)
			if err := enc.Encode(tree); err != nil {
				return false
			}
			if err := enc.Flush(); err != nil {
				return false
			}
			dec := NewDecoderBytes(buf.Bytes(), opts)
			defer dec.ReleaseArena()
			out, err := dec.Decode()
			if err != nil {
				return false
			}
			eq, err := graph.Equal(graph.AccessExported, tree, out)
			if err != nil || !eq {
				return false
			}
			return len(enc.Objects()) == len(dec.Objects())
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatalf("engine %s: %v", eng, err)
		}
	}
}

// TestOptionsValidateEngine: an encoder refuses an engine that names no
// format at first use, with the typed error.
func TestOptionsValidateEngine(t *testing.T) {
	reg := testRegistry(t)
	var buf bytes.Buffer
	enc := NewEncoder(&buf, Options{Engine: Engine(9), Registry: reg})
	if err := enc.Encode(42); !errors.Is(err, ErrUnknownEngine) {
		t.Fatalf("encode with bad engine: want ErrUnknownEngine, got %v", err)
	}
}
