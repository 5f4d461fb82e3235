package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"nrmi/internal/graph"
	"nrmi/internal/model"
	"nrmi/internal/raceflag"
)

func wireZoo() []any {
	cyc := &wnode{Data: 1}
	cyc.Left = &wnode{Data: 2, Right: cyc}

	dag := &wnode{Data: 10}
	shared := &wnode{Data: 11}
	dag.Left, dag.Right = shared, shared

	bag := &wbag{
		Name:   "zoo",
		Items:  []int{1, 2, 3},
		Table:  map[string]*wnode{"x": {Data: 5}},
		Any:    int64(-9),
		Nested: inner{X: 1, Y: 2},
		Arr:    [3]int16{7, 8, 9},
		F:      2.5,
		C:      complex(1, -2),
		B:      true,
		U:      1 << 30,
	}

	return []any{
		nil,
		42,
		"interned", "interned", // string interning must behave identically
		cyc,
		dag,
		bag,
		[]*wnode{cyc, nil, dag},
		map[string]int{"a": 1, "b": 2},
		[]int{5, 4, 3},
		namedInt(3),
	}
}

// zooStream encodes wireZoo's values as the roots of one stream on path p.
func zooStream(t *testing.T, p codecPath, opts Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := p.enc(&buf, opts)
	for _, v := range wireZoo() {
		if err := enc.Encode(v); err != nil {
			t.Fatalf("%s path: encode %T: %v", p.name, v, err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestKernelEncodeByteIdentity: in either format, a stream the kernels
// encode — from cached kernels, or compiled afresh per struct value — is
// byte-for-byte the generic oracle's: the cache is a pure performance
// substitution, never a format change.
func TestKernelEncodeByteIdentity(t *testing.T) {
	reg := testRegistry(t)
	for _, eng := range []Engine{EngineV1, EngineV2} {
		opts := Options{Engine: eng, Registry: reg}
		want := zooStream(t, genericPath, opts)
		portable := opts
		portable.DisablePlanCache = true
		for name, opts := range map[string]Options{"cached": opts, "portable": portable} {
			got := zooStream(t, kernelPath, opts)
			if bytes.Equal(got, want) {
				continue
			}
			i := 0
			for i < min(len(got), len(want)) && got[i] == want[i] {
				i++
			}
			t.Fatalf("%s %s kernel stream diverges from the generic stream at byte %d (lens %d vs %d)",
				eng, name, i, len(got), len(want))
		}
	}
}

// TestKernelDecodeEquivalence: from the same stream, in either format, the
// kernels — cached or compiled per struct value — and the generic oracle
// reconstruct graphs Equal to the original.
func TestKernelDecodeEquivalence(t *testing.T) {
	reg := testRegistry(t)
	for _, eng := range []Engine{EngineV1, EngineV2} {
		for i, v := range wireZoo() {
			stream, _ := encodeRoots(t, Options{Engine: eng, Registry: reg}, []any{v}, false)
			decoders := map[string]pathDecoder{
				"cached":   NewDecoderBytes(stream, Options{Registry: reg}),
				"portable": NewDecoderBytes(stream, Options{Registry: reg, DisablePlanCache: true}),
				"generic":  newGenericDecoder(stream, Options{Registry: reg}),
			}
			for name, dec := range decoders {
				got, err := dec.Decode()
				if err != nil {
					t.Fatalf("%s zoo[%d]: %s decode: %v", eng, i, name, err)
				}
				if eq, err := model.Equal(graph.AccessExported, v, got); err != nil || !eq {
					t.Fatalf("%s zoo[%d]: %s decode not Equal to original (%v %v)", eng, i, name, eq, err)
				}
			}
		}
	}
}

// TestEncodeAllocsSteadyState: after the kernel cache is warm, a pooled
// encode of a cached type into a reused buffer must stay within a small
// fixed allocation budget.
func TestEncodeAllocsSteadyState(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are not meaningful under -race (sync.Pool drops Puts)")
	}
	on := Options{Registry: testRegistry(t)}
	tree := &wnode{Data: 1}
	cur := tree
	for i := 2; i <= 64; i++ {
		cur.Left = &wnode{Data: i}
		cur = cur.Left
	}
	var buf bytes.Buffer
	encodeOnce := func() {
		buf.Reset()
		enc := AcquireEncoder(&buf, on)
		if err := enc.Encode(tree); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		ReleaseEncoder(enc)
	}
	for i := 0; i < 5; i++ {
		encodeOnce() // warm the kernel cache, the codec pool, and the buffer
	}
	avg := testing.AllocsPerRun(20, func() { encodeOnce() })
	// The per-node work (object registration, varints, field dispatch) must
	// all run allocation-free; a handful of allocs of slack covers
	// map-internal growth in the identity table.
	const budget = 8
	if avg > budget {
		t.Fatalf("steady-state encode allocates %.1f/run, budget %d", avg, budget)
	}
}

// TestKernelCodecConcurrentStress runs pooled encode/decode round trips
// from many goroutines sharing the compiled-kernel caches and codec pools
// (exercised under -race by make test).
func TestKernelCodecConcurrentStress(t *testing.T) {
	on := Options{Registry: testRegistry(t)}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				bag := &wbag{
					Name:  fmt.Sprintf("g%d-i%d", g, i),
					Items: []int{g, i},
					Table: map[string]*wnode{"n": {Data: g*100 + i}},
					Any:   "payload",
				}
				var buf bytes.Buffer
				enc := AcquireEncoder(&buf, on)
				err := enc.Encode(bag)
				if err == nil {
					err = enc.Flush()
				}
				ReleaseEncoder(enc)
				if err != nil {
					t.Errorf("encode: %v", err)
					continue
				}
				dec := AcquireDecoderBytes(buf.Bytes(), on)
				out, err := dec.Decode()
				ReleaseDecoder(dec)
				if err != nil {
					t.Errorf("decode: %v", err)
					continue
				}
				if eq, err := model.Equal(graph.AccessExported, bag, out); err != nil || !eq {
					t.Errorf("round trip not Equal (%v %v)", eq, err)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestMapEncodingDeterministic: map entries serialize in canonical key
// order (mapkeys.go), so repeated encodings of the same value — on either
// encoder path — produce identical bytes. Before keys were sorted, every
// multi-key map inherited Go's randomized iteration order and this test
// (and TestKernelEncodeByteIdentity) failed intermittently.
func TestMapEncodingDeterministic(t *testing.T) {
	opts := Options{Registry: testRegistry(t)}
	value := map[string]any{
		"alpha": 1, "bravo": 2, "charlie": 3, "delta": 4,
		"echo": map[string]int{"x": 1, "y": 2, "z": 3},
		"fox":  &wnode{Data: 9},
		"golf": []int{3, 1, 4}, "hotel": true,
	}
	want, _ := encodeRoots(t, opts, []any{value}, false)
	for i := 0; i < 20; i++ {
		for _, p := range codecPaths {
			if got, _ := p.encodeRoots(t, opts, []any{value}, false); !bytes.Equal(got, want) {
				t.Fatalf("iteration %d: %s stream differs from first kernel stream", i, p.name)
			}
		}
	}
}

// kop is the shape of benchmark/'s Op: the element of a by-copy []struct.
type kop struct{ Kind, A, B, Val, Side int }

// kmix has no field a struct's field loop codes itself (kernel.op), so its
// BenchmarkKernels row is the one the slot ops should leave as it was.
type kmix struct {
	U   uint32
	S   string
	F   float64
	Ns  []int
	Tab map[string]int
}

// balancedTree returns a balanced tree of the nodes lo … hi-1.
func balancedTree(lo, hi int) *wnode {
	if lo >= hi {
		return nil
	}
	mid := (lo + hi) / 2
	return &wnode{Data: mid, Left: balancedTree(lo, mid), Right: balancedTree(mid+1, hi)}
}

// codecRun returns what BenchmarkKernels and TestBaselinesPayPerObject time
// and count under opts: a pooled encode of v as the one root of a fresh
// stream, and a pooled decode of that stream.
func codecRun(t testing.TB, opts Options, v any) (encode, decode func()) {
	var buf bytes.Buffer
	encode = func() {
		buf.Reset()
		enc := AcquireEncoder(&buf, opts)
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		ReleaseEncoder(enc)
	}
	encode()
	stream := bytes.Clone(buf.Bytes())
	decode = func() {
		dec := AcquireDecoderBytes(stream, opts)
		if _, err := dec.Decode(); err != nil {
			t.Fatal(err)
		}
		ReleaseDecoder(dec)
	}
	return encode, decode
}

// BenchmarkKernels is the per-direction number of the codec: pooled encode
// and decode of a 256-node tree and of two 24-element []structs, of int
// fields and of fields of no slot op, each one top-level value of a fresh
// stream — under V2, and under the portable and V1 baselines, which compile
// each struct value's kernel afresh.
func BenchmarkKernels(b *testing.B) {
	reg := NewRegistry()
	for name, sample := range map[string]any{"wnode": wnode{}, "kop": kop{}, "kmix": kmix{}} {
		if err := reg.Register(name, sample); err != nil {
			b.Fatal(err)
		}
	}
	ops, mix := make([]kop, 24), make([]kmix, 24)
	for i := range ops {
		ops[i] = kop{Kind: i % 4, A: i, B: 255 - i, Val: i * 7, Side: i % 2}
		mix[i] = kmix{U: uint32(i), S: fmt.Sprint("s", i%4), F: float64(i) / 3,
			Ns: []int{i, -i}, Tab: map[string]int{"a": i, "b": -i}}
	}
	for _, cfg := range []struct {
		name string
		opts Options
	}{
		{"", Options{Registry: reg}},
		{"/portable", Options{Registry: reg, DisablePlanCache: true}},
		{"/v1", Options{Engine: EngineV1, Registry: reg}},
	} {
		for _, c := range []struct {
			name string
			v    any
		}{{"tree256", balancedTree(0, 256)}, {"ops24", ops}, {"mix24", mix}} {
			encode, decode := codecRun(b, cfg.opts, c.v)
			for _, run := range []struct {
				dir string
				f   func()
			}{{"/encode", encode}, {"/decode", decode}} {
				b.Run(c.name+cfg.name+run.dir, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						run.f()
					}
				})
			}
		}
	}
}

// TestBaselinesPayPerObject: the portable and V1 configurations stay the
// paper's slower baselines although they run the same kernels — each struct
// value's kernel is compiled afresh — which Table 5's whole-millisecond cells
// cannot show deterministically: encoding, and separately decoding, a
// 256-node tree allocates at least one more object per node than under V2.
func TestBaselinesPayPerObject(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register("wnode", wnode{}); err != nil {
		t.Fatal(err)
	}
	const nodes = 256
	tree := balancedTree(0, nodes)
	allocs := func(opts Options) (enc, dec float64) {
		encode, decode := codecRun(t, opts, tree)
		return testing.AllocsPerRun(5, encode), testing.AllocsPerRun(5, decode)
	}
	enc2, dec2 := allocs(Options{Registry: reg})
	for name, opts := range map[string]Options{
		"portable": {Registry: reg, DisablePlanCache: true},
		"v1":       {Engine: EngineV1, Registry: reg},
	} {
		if enc, dec := allocs(opts); enc < enc2+nodes || dec < dec2+nodes {
			t.Errorf("%s: %.0f allocations to encode and %.0f to decode %d nodes; V2 %.0f and %.0f",
				name, enc, dec, nodes, enc2, dec2)
		}
	}
}

// kmatrix has a field of every kind the kernels load and store by offset:
// one of each scalar width, an array, an inline struct, a named pointer
// type, an interface and an unexported field.
type kmatrix struct {
	I8  int8
	U16 uint16
	I32 int32
	F32 float32
	C64 complex64
	B   bool
	S   string
	U   uint
	Arr [3]int16
	In  inner
	L   kmLink
	Any any
	hid int64
}

type kmLink *kmatrix

// registerKindMatrix binds kmatrix and what its values reach in reg.
func registerKindMatrix(t testing.TB, reg *Registry) {
	t.Helper()
	for name, sample := range map[string]any{"kmatrix": kmatrix{}, "inner": inner{}} {
		if err := reg.Register(name, sample); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.RegisterType("kmLink", reflect.TypeOf(kmLink(nil))); err != nil {
		t.Fatal(err)
	}
}

// kindMatrix returns a kmatrix with every field set, hid to the value given,
// and a second one behind L whose interface holds a string the first has.
func kindMatrix(hid int64) *kmatrix {
	return &kmatrix{
		I8: -128, U16: 65535, I32: -1 << 31, F32: 1.5, C64: complex(-2.5, 0.25),
		B: true, S: "matrix", U: 1 << 40, Arr: [3]int16{-1, 0, 32767},
		In: inner{X: -3, Y: 4}, L: &kmatrix{I8: 1, Any: "matrix", hid: hid},
		Any: inner{X: 5, Y: 6}, hid: hid,
	}
}

// TestKindMatrixParity: for every field kind, in either format, the offset
// kernels write the generic oracle's bytes, and both decoders rebuild the
// value — under AccessUnsafe the unexported field too.
func TestKindMatrixParity(t *testing.T) {
	reg := NewRegistry()
	registerKindMatrix(t, reg)
	for _, c := range []struct {
		access graph.AccessMode
		hid    int64
	}{{graph.AccessExported, 0}, {graph.AccessUnsafe, 77}} {
		for _, eng := range []Engine{EngineV1, EngineV2} {
			v := kindMatrix(c.hid)
			opts := Options{Engine: eng, Registry: reg, Access: c.access}
			fast, _ := encodeRoots(t, opts, []any{v}, false)
			if slow, _ := genericPath.encodeRoots(t, opts, []any{v}, false); !bytes.Equal(fast, slow) {
				t.Fatalf("%s %s: kernel stream %x\ngeneric stream %x", eng, c.access, fast, slow)
			}
			for _, p := range codecPaths {
				got, err := p.dec(fast, opts).Decode()
				if err != nil {
					t.Fatalf("%s %s %s decode: %v", eng, c.access, p.name, err)
				}
				if eq, err := model.Equal(graph.AccessUnsafe, v, got); err != nil || !eq {
					t.Fatalf("%s %s %s decode is not the original (%v %v): %+v", eng, c.access, p.name, eq, err, got)
				}
			}
		}
	}
}

// TestNarrowKindOverflowParity: a payload its kind cannot hold is refused
// with the same error class by the offset kernels and the generic path.
func TestNarrowKindOverflowParity(t *testing.T) {
	for _, c := range []struct {
		wide   any
		narrow reflect.Kind
	}{
		{int64(-1 << 40), reflect.Int8}, {int64(1 << 40), reflect.Int16}, {int64(1 << 40), reflect.Int32},
		{uint64(1 << 40), reflect.Uint8}, {uint64(1 << 40), reflect.Uint16}, {uint64(1 << 40), reflect.Uint32},
		{1e300, reflect.Float32}, {complex(0, -1e300), reflect.Complex64},
	} {
		// The stream is one described scalar: header, tag, then the kind
		// byte of its descriptor, which is rewritten to the narrow kind.
		stream, _ := encodeRoots(t, Options{}, []any{c.wide}, false)
		if stream[3] != tagScalar || stream[5] != byte(reflect.TypeOf(c.wide).Kind()) {
			t.Fatalf("unexpected stream %x", stream)
		}
		stream[5] = byte(c.narrow)
		_, err := NewDecoderBytes(stream, Options{}).Decode()
		_, errG := newGenericDecoder(stream, Options{}).Decode()
		if !errors.Is(err, ErrBadStream) || errClass(err) != errClass(errG) {
			t.Fatalf("%v into %s: kernel path %v, generic path %v", c.wide, c.narrow, err, errG)
		}
	}
}

// narrowInts is a struct of narrow integer fields, each of which a cached V2
// struct reads in its own field loop.
type narrowInts struct {
	I8  int8
	I16 int16
	I32 int32
}

// TestNarrowFieldOverflowParity: a narrow integer field whose bare varint
// was widened past its kind is refused with the same error class by the
// kernel decoder, cached and portable, and by the generic oracle.
func TestNarrowFieldOverflowParity(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register("narrowInts", narrowInts{}); err != nil {
		t.Fatal(err)
	}
	// The struct is a described root; its three zero fields are its last
	// three bytes, one varint 0 each.
	stream, _ := encodeRoots(t, Options{Registry: reg}, []any{narrowInts{}}, false)
	at := len(stream) - 3
	if !bytes.Equal(stream[at:], []byte{0, 0, 0}) {
		t.Fatalf("unexpected stream %x", stream)
	}
	for i, wide := range []int64{-1 << 40, 1 << 40, 1 << 40} {
		s := binary.AppendVarint(bytes.Clone(stream[:at+i]), wide)
		s = append(s, stream[at+i+1:]...)
		for _, opts := range []Options{{Registry: reg}, {Registry: reg, DisablePlanCache: true}} {
			_, err := NewDecoderBytes(s, opts).Decode()
			_, errG := newGenericDecoder(s, opts).Decode()
			if !errors.Is(err, ErrBadStream) || errClass(err) != errClass(errG) {
				t.Errorf("%d in field %d (portable=%t): kernel path %v, generic path %v",
					wide, i, opts.DisablePlanCache, err, errG)
			}
		}
	}
}

// TestExcludedFieldRefusedFirst: a non-zero unexported field under
// AccessExported is refused before any field byte is written: after the
// value's tag and table reference, on both encoder paths.
func TestExcludedFieldRefusedFirst(t *testing.T) {
	reg := NewRegistry()
	registerKindMatrix(t, reg)
	for _, p := range codecPaths {
		var buf bytes.Buffer
		enc := p.enc(&buf, Options{Registry: reg})
		if err := enc.Encode(&kmatrix{}); err != nil {
			t.Fatal(err)
		}
		before := enc.BytesWritten()
		err := enc.Encode(&kmatrix{S: "x", hid: 1})
		if !errors.Is(err, graph.ErrUnexportedField) {
			t.Fatalf("%s path: got %v, want ErrUnexportedField", p.name, err)
		}
		if n := enc.BytesWritten() - before; n != 3 { // tagPtr, dTableRef, 0
			t.Fatalf("%s path: %d bytes written before the refusal, want 3", p.name, n)
		}
	}
}

// TestTruncatedContentLeavesOriginal: in either format, a contentPtr record
// cut anywhere fails to decode and leaves the seeded original bit for bit as
// it was — the record is decoded into a staging cell, never into the
// original.
func TestTruncatedContentLeavesOriginal(t *testing.T) {
	reg := NewRegistry()
	registerKindMatrix(t, reg)
	mod := kindMatrix(9)
	mod.I32, mod.S, mod.Arr[2] = 1, "changed", 2
	bits := func(m *kmatrix) string {
		return string(unsafe.Slice((*byte)(unsafe.Pointer(m)), unsafe.Sizeof(*m)))
	}
	for _, eng := range []Engine{EngineV1, EngineV2} {
		opts := Options{Engine: eng, Registry: reg, Access: graph.AccessUnsafe}
		record, _ := encodeRoots(t, opts, []any{mod}, true)
		for _, p := range codecPaths {
			orig := kindMatrix(7)
			want, wantLeaf := bits(orig), bits(orig.L)
			for cut := 1; cut < len(record); cut++ {
				dec := p.dec(record[:cut], opts)
				seed(dec, orig)
				if _, err := dec.DecodeSeededContent(0); err == nil {
					t.Fatalf("%s %s path: record cut at %d of %d decoded", eng, p.name, cut, len(record))
				}
				if bits(orig) != want || bits(orig.L) != wantLeaf {
					t.Fatalf("%s %s path: record cut at %d changed the original", eng, p.name, cut)
				}
			}
		}
	}
}

// Structs whose interface box holds them in its data word: one pointer field.
type (
	onePtr struct{ P *inner }
	hidPtr struct{ p *inner }
)

// TestPointerShapedValues: a value the runtime boxes in the interface data
// word itself has no address when held by value — a root, an interface's
// dynamic value, a map value — and still encodes as the generic path does,
// an excluded field of one included.
func TestPointerShapedValues(t *testing.T) {
	reg := stateRegistry(t, map[string]any{"inner": inner{}, "onePtr": onePtr{}, "hidPtr": hidPtr{}, "wbag": wbag{}, "wnode": wnode{}})
	shared := &inner{X: 1}
	vs := []any{onePtr{shared}, &wbag{Any: onePtr{shared}}, map[string]onePtr{"a": {shared}, "b": {}}, hidPtr{}}
	on := Options{Registry: reg}
	fast, _ := encodeRoots(t, on, vs, false)
	if slow, _ := genericPath.encodeRoots(t, on, vs, false); !bytes.Equal(fast, slow) {
		t.Fatalf("kernel stream %x\ngeneric stream %x", fast, slow)
	}
	dec := NewDecoderBytes(fast, on)
	for i, v := range vs {
		got, err := dec.Decode()
		if err != nil {
			t.Fatalf("value %d: %v", i, err)
		}
		if eq, err := model.Equal(graph.AccessExported, v, got); err != nil || !eq {
			t.Fatalf("value %d decoded as %+v (%v %v)", i, got, eq, err)
		}
	}
	for _, p := range codecPaths {
		if err := p.enc(&bytes.Buffer{}, on).Encode(hidPtr{shared}); !errors.Is(err, graph.ErrUnexportedField) {
			t.Fatalf("%s path: got %v, want ErrUnexportedField", p.name, err)
		}
	}
}

// overlapPair holds a struct pointer and a pointer to the struct's first
// field: two references of two types to one address.
type overlapPair struct {
	N *wnode
	D *int
}

// TestPointerSlotInternParity: a pointer interned from its slot numbers the
// objects the generic path numbers from reflect.Values — byte-identical
// streams and equal object tables, for aliased and cyclic graphs and a named
// pointer type — and refuses the same overlap with ErrObjectOverlap.
func TestPointerSlotInternParity(t *testing.T) {
	reg := testRegistry(t)
	registerKindMatrix(t, reg)
	if err := reg.Register("overlapPair", overlapPair{}); err != nil {
		t.Fatal(err)
	}
	on := Options{Registry: reg, Access: graph.AccessUnsafe}

	leaf := &kmatrix{I8: 1}
	leaf.L = kmLink(leaf) // a cycle through the named pointer type
	named := kindMatrix(3)
	named.L = kmLink(leaf)
	named.Any = &kmatrix{L: kmLink(leaf)} // an alias of the same type
	shared := &wnode{Data: 1}
	cyc := &wnode{Data: 2, Left: shared, Right: shared}
	shared.Right = cyc
	for name, vs := range map[string][]any{
		"aliased and cyclic": {cyc, &wbag{Table: map[string]*wnode{"s": shared}, Any: shared}},
		"named pointer":      {named},
	} {
		fast, fobjs := encodeRoots(t, on, vs, false)
		slow, sobjs := genericPath.encodeRoots(t, on, vs, false)
		if !bytes.Equal(fast, slow) {
			t.Fatalf("%s: kernel stream %x\ngeneric stream %x", name, fast, slow)
		}
		if len(fobjs) != len(sobjs) {
			t.Fatalf("%s: %d objects on the kernel path, %d on the generic", name, len(fobjs), len(sobjs))
		}
		for i := range fobjs {
			if fobjs[i].Type() != sobjs[i].Type() || fobjs[i].UnsafePointer() != sobjs[i].UnsafePointer() {
				t.Fatalf("%s: object %d is %v on the kernel path, %v on the generic", name, i, fobjs[i], sobjs[i])
			}
		}
		dec := NewDecoderBytes(fast, on)
		for _, v := range vs {
			got, err := dec.Decode()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if eq, err := model.Equal(graph.AccessUnsafe, v, got); err != nil || !eq {
				t.Fatalf("%s: decoded %+v (%v %v)", name, got, eq, err)
			}
		}
	}

	n := &wnode{}
	for _, p := range codecPaths {
		err := p.enc(&bytes.Buffer{}, on).Encode(&overlapPair{N: n, D: &n.Data})
		if !errors.Is(err, graph.ErrObjectOverlap) {
			t.Errorf("%s path: got %v, want ErrObjectOverlap", p.name, err)
		}
	}
}

// Shapes behind a pointer slot: no fields at all, and an excluded field.
type (
	kempty  struct{}
	khidden struct {
		N   int
		P   *hidden
		Emp []*kempty
	}
)

// TestOneStepPointerParity: where a pointer slot's kernel allocates, enters
// and decodes its pointee itself, it gives what the generic path gives — the
// same value or the same error, word for word — on the edges of that step: a
// pointee with nothing in the message (admit's unbacked budget), an excluded
// unexported field, a node that points at itself, a back-reference of
// another type, and a stream cut anywhere in a node.
func TestOneStepPointerParity(t *testing.T) {
	reg := testRegistry(t)
	for name, sample := range map[string]any{"kempty": kempty{}, "khidden": khidden{}} {
		if err := reg.Register(name, sample); err != nil {
			t.Fatal(err)
		}
	}
	on := Options{Registry: reg}
	// decode reads every root of stream on both paths and fails the test
	// unless they agree on the error; it returns both paths' roots.
	decode := func(what string, stream []byte) (roots [2][]any, err error) {
		var errs [2]error
		for i, p := range codecPaths {
			dec := p.dec(stream, on)
			for dec.BytesRead() < int64(len(stream)) && errs[i] == nil {
				var v any
				v, errs[i] = dec.Decode()
				roots[i] = append(roots[i], v)
			}
		}
		if fmt.Sprint(errs[0]) != fmt.Sprint(errs[1]) {
			t.Fatalf("%s: kernel path %v, generic path %v", what, errs[0], errs[1])
		}
		return roots, errs[0]
	}

	// Each new *kempty draws one unit of the unbacked budget: the budget
	// decodes and one more is refused.
	empty, _ := encodeRoots(t, on, []any{&khidden{Emp: []*kempty{}}}, false)
	for _, n := range []uint64{maxUnbacked, maxUnbacked + 1} {
		s := binary.AppendUvarint(bytes.Clone(empty[:len(empty)-1]), n)
		s = append(s, bytes.Repeat([]byte{tagPtr}, int(n))...)
		roots, err := decode(fmt.Sprintf("%d empty pointees", n), s)
		switch {
		case n > maxUnbacked && !errors.Is(err, ErrLimit):
			t.Fatalf("%d empty pointees: got %v, want ErrLimit", n, err)
		case n <= maxUnbacked && (err != nil || len(roots[0][0].(*khidden).Emp) != int(n)):
			t.Fatalf("%d empty pointees: %v", n, err)
		}
	}

	// An excluded field is refused before any byte of its pointee, and never
	// written by a decoder.
	for _, p := range codecPaths {
		enc := p.enc(&bytes.Buffer{}, on)
		if err := enc.Encode(&khidden{N: 1, P: &hidden{Public: 2}}); err != nil {
			t.Fatal(err)
		}
		before := enc.BytesWritten()
		err := enc.Encode(&khidden{N: 1, P: &hidden{Public: 2, secret: "x"}})
		if !errors.Is(err, graph.ErrUnexportedField) {
			t.Fatalf("%s path: got %v, want ErrUnexportedField", p.name, err)
		}
		if n := enc.BytesWritten() - before; n != 5 { // tagPtr, dTableRef, 0; N; P's tagPtr
			t.Fatalf("%s path: %d bytes written before the refusal, want 5", p.name, n)
		}
	}
	hid, _ := encodeRoots(t, on, []any{&khidden{P: &hidden{Public: 3}}}, false)
	roots, err := decode("excluded field", hid)
	for i := 0; err == nil && i < 2; i++ {
		if p := roots[i][0].(*khidden).P; p.Public != 3 || p.secret != "" {
			t.Fatalf("excluded field, path %d: decoded %+v", i, p)
		}
	}
	if err != nil {
		t.Fatal(err)
	}

	// A node that points at itself resolves to itself: it is in the table
	// before its first field is read.
	self := &wnode{Data: 1}
	self.Left = self
	cycle, _ := encodeRoots(t, on, []any{&wnode{Right: self}}, false)
	if roots, err = decode("self-cycle", cycle); err != nil {
		t.Fatal(err)
	}
	for i := range roots {
		if n := roots[i][0].(*wnode).Right; n == nil || n.Left != n || n.Data != 1 {
			t.Fatalf("self-cycle, path %d: decoded %+v", i, n)
		}
	}

	// A back-reference to an *inner in a *wnode slot: the root's Left, which
	// the encoder wrote as tagNil, becomes a reference to object 0.
	two, _ := encodeRoots(t, on, []any{&inner{}, &wnode{Data: 1}}, false)
	bad := append(append(bytes.Clone(two[:len(two)-2]), tagRef, 0), two[len(two)-1])
	if _, err = decode("reference of another type", bad); err == nil || !strings.Contains(err.Error(), "cannot assign") {
		t.Fatalf("reference of another type: got %v, want cannot assign", err)
	}

	// Cut anywhere in a tree, a stream fails alike on both paths.
	tree, _ := encodeRoots(t, on, []any{&wnode{Data: 1, Left: &wnode{Data: -2, Right: &wnode{Data: 3}}, Right: self}}, false)
	for cut := 3; cut < len(tree); cut++ {
		if _, err = decode(fmt.Sprintf("tree cut at %d", cut), tree[:cut]); err == nil {
			t.Fatalf("tree cut at %d of %d decoded", cut, len(tree))
		}
	}
}
