package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"nrmi/internal/graph"
	"nrmi/internal/model"
)

// Edge-of-format tests: hostile streams, size limits, engine mixing, and
// less common type shapes.

type ptrPtr struct {
	PP **wnode
}

type namedSlice []int

type namedMap map[string]int

type arrayHolder struct {
	Grid [2][2]*wnode
}

func edgeRegistry(t *testing.T) *Registry {
	t.Helper()
	r := testRegistry(t)
	for name, sample := range map[string]any{
		"ptrPtr":      ptrPtr{},
		"namedSlice":  namedSlice{},
		"namedMap":    namedMap{},
		"arrayHolder": arrayHolder{},
	} {
		if err := r.Register(name, sample); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestPointerToPointer(t *testing.T) {
	reg := edgeRegistry(t)
	inner := &wnode{Data: 5}
	v := &ptrPtr{PP: &inner}
	got := roundTrip(t, Options{Registry: reg}, v).(*ptrPtr)
	if got.PP == nil || *got.PP == nil || (*got.PP).Data != 5 {
		t.Fatalf("pointer-to-pointer mangled: %+v", got)
	}
}

func TestNamedCompositeTypes(t *testing.T) {
	reg := edgeRegistry(t)
	opts := Options{Registry: reg}
	s := namedSlice{1, 2, 3}
	if got := roundTrip(t, opts, s).(namedSlice); !reflect.DeepEqual(got, s) {
		t.Fatalf("named slice: %v", got)
	}
	m := namedMap{"a": 1}
	if got := roundTrip(t, opts, m).(namedMap); got["a"] != 1 {
		t.Fatalf("named map: %v", got)
	}
}

func TestNestedArraysOfPointers(t *testing.T) {
	reg := edgeRegistry(t)
	shared := &wnode{Data: 9}
	v := &arrayHolder{Grid: [2][2]*wnode{{shared, nil}, {nil, shared}}}
	got := roundTrip(t, Options{Registry: reg}, v).(*arrayHolder)
	if got.Grid[0][0] == nil || got.Grid[0][0] != got.Grid[1][1] {
		t.Fatal("aliasing across nested arrays lost")
	}
}

// nestedSliceStream and nestedMapStream hand-build a V2 stream of levels
// containers, each the only element (or the value under key 1) of the one
// before: []any in []any, map[int]any in map[int]any. The root is at decode
// depth 0, so the innermost sits at depth levels-1. No encoder writes these
// past its own depth limit; a hostile peer can.
func nestedSliceStream(levels int) []byte {
	s := []byte{headerMagic, formatV2, 0, tagSlice, dTableDef, dSlice, dTableDef, dIface}
	for i := 1; i < levels; i++ {
		s = append(s, 1, tagSlice, dTableRef, 0) // length 1; the element, an interface slot's described value: type-table entry 0 again
	}
	return append(s, 0) // the innermost is empty
}

func nestedMapStream(levels int) []byte {
	s := []byte{headerMagic, formatV2, 0, tagMap, dTableDef, dMap, dTableDef, byte(reflect.Int), dTableDef, dIface}
	for i := 1; i < levels; i++ {
		s = append(s, 1, 2) // one entry; its key, a bare int slot: 1
		s = append(s, tagMap, dTableRef, 0)
	}
	return append(s, 0)
}

// nestedTypeStream is a pointer whose descriptor nests levels deep, the
// outermost at depth 0: pointer to pointer to ... int, the pointee nil.
func nestedTypeStream(levels int) []byte {
	s := []byte{headerMagic, formatV2, 0, tagPtr}
	for i := 1; i < levels; i++ {
		s = append(s, dTableDef, dPtr)
	}
	return append(s, dTableDef, byte(reflect.Int), tagNil)
}

// recSlice nests through a slice with no pointer or interface in between,
// so encoder and decoder count the same depth for it.
type recSlice []recSlice

// dlist nests through bare pointers to a struct: a node sits one level below
// the slot that holds it and its Next slot one below the node, so a chain of
// n nodes behind a root pointer reaches depth 2n at its nil. The chain of
// levels/2 nodes has its deepest value at depth levels-1: its last nil or,
// for an odd depth, its last node, refused before its Next is read.
type dlist struct{ Next *dlist }

// dpair's fields are a pointer and an int, which a cached V2 struct codes
// without entering their kernels: at the end of a chain, a nil pointer and
// an int one level below the last node. Behind a pointer root node j sits at
// depth 2j+1; as a value root the first node sits at 0 and node j at 2j.
type dpair struct {
	Next *dpair
	N    int
}

// TestDecodeDepthBound: nesting through slices and maps counts toward
// maxDecodeDepth like nesting through pointers, a chain of pointers to
// structs counts the slot and the node as the generic oracle does, and a type
// descriptor nests no deeper than a value. One level past the bound is
// refused with a typed error by the kernels and the generic oracle (unbounded,
// 15 million levels fit one frame and overflow the stack, which no recover
// catches); at the bound the stream decodes. The encoder accepts the same
// depth and refuses one level past it, and what it accepts decodes. A
// dpair's fields, a nil pointer and an int, are accepted at the bound and
// refused one level past it in both directions.
func TestDecodeDepthBound(t *testing.T) {
	reg := edgeRegistry(t)
	for name, sample := range map[string]any{"recSlice": recSlice{}, "dlist": dlist{}, "dpair": dpair{}} {
		if err := reg.Register(name, sample); err != nil {
			t.Fatal(err)
		}
	}
	decode := func(p codecPath, data []byte, opts Options) error {
		dec := p.dec(data, opts)
		defer dec.ReleaseArena()
		_, err := dec.Decode()
		return err
	}
	// The chain's stream is the encoder's lone node with more nodes spliced
	// in before its nil: each further node is a bare tagPtr and its Next.
	one, _ := encodeRoots(t, Options{Registry: reg}, []any{&dlist{}}, false)
	chainStream := func(levels int) []byte {
		s := bytes.Clone(one[:len(one)-1])
		return append(append(s, bytes.Repeat([]byte{tagPtr}, levels/2-1)...), tagNil)
	}
	for _, tc := range []struct {
		name  string
		build func(levels int) []byte
	}{
		{"nested slices", nestedSliceStream},
		{"nested maps", nestedMapStream},
		{"nested descriptors", nestedTypeStream},
		{"pointer chain", chainStream},
	} {
		for _, p := range codecPaths {
			opts := Options{Registry: reg}
			if err := decode(p, tc.build(maxDecodeDepth+1), opts); err != nil {
				t.Errorf("%s at the bound (%s path): %v", tc.name, p.name, err)
			}
			err := decode(p, tc.build(maxDecodeDepth+2), opts)
			if !errors.Is(err, ErrBadStream) || !errors.Is(err, graph.ErrDepthExceeded) {
				t.Errorf("%s one past the bound (%s path): got %v, want ErrBadStream wrapping ErrDepthExceeded",
					tc.name, p.name, err)
			}
		}
	}
	// A dpair chain's stream is the encoder's root node with nodes more
	// spliced in before its Next: each is a bare tagPtr, its Next, its N.
	pairStream := func(root any, nodes int) []byte {
		one, _ := encodeRoots(t, Options{Registry: reg}, []any{root}, false)
		s := append(bytes.Clone(one[:len(one)-2]), bytes.Repeat([]byte{tagPtr}, nodes)...)
		return append(append(s, tagNil), make([]byte, nodes+1)...)
	}
	for _, opts := range []Options{{Registry: reg}, {Registry: reg, DisablePlanCache: true}} {
		for _, p := range codecPaths {
			if err := decode(p, pairStream(&dpair{}, (maxDecodeDepth-2)/2), opts); err != nil {
				t.Errorf("dpair fields at the bound (%s path, portable=%t): %v", p.name, opts.DisablePlanCache, err)
			}
			err := decode(p, pairStream(dpair{}, maxDecodeDepth/2), opts)
			if !errors.Is(err, ErrBadStream) || !errors.Is(err, graph.ErrDepthExceeded) {
				t.Errorf("dpair fields one past the bound (%s path, portable=%t): got %v, want ErrBadStream wrapping ErrDepthExceeded",
					p.name, opts.DisablePlanCache, err)
			}
		}
	}

	nest := func(levels int) any {
		v := recSlice{}
		for i := 1; i < levels; i++ {
			v = recSlice{v}
		}
		return v
	}
	chain := func(levels int) any {
		var head *dlist
		for i := 0; i < levels/2; i++ {
			head = &dlist{head}
		}
		return head
	}
	pair := func(nodes int) *dpair {
		head := &dpair{}
		for i := 0; i < nodes; i++ {
			head = &dpair{Next: head}
		}
		return head
	}
	for _, tc := range []struct {
		name  string
		value func(levels int) any
	}{
		{"nested slices", nest},
		{"pointer chain", chain},
		// levels is the bound or one past it: the fields of the last node
		// behind a pointer root sit at the bound, those of the last node of
		// a value root one past it.
		{"dpair fields", func(levels int) any {
			if levels == maxEncodeDepth+1 {
				return pair((maxEncodeDepth - 2) / 2)
			}
			return *pair(maxEncodeDepth / 2)
		}},
	} {
		for _, opts := range []Options{
			{Engine: EngineV2, Registry: reg},
			{Engine: EngineV3, Registry: reg},
			{Engine: EngineV2, Registry: reg, DisablePlanCache: true},
		} {
			var buf bytes.Buffer
			enc := NewEncoder(&buf, opts)
			if err := enc.Encode(tc.value(maxEncodeDepth + 1)); err != nil {
				t.Fatalf("%s %s portable=%t: the encoder refuses a value at its own limit: %v",
					tc.name, opts.Engine, opts.DisablePlanCache, err)
			}
			if err := enc.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := decode(kernelPath, buf.Bytes(), opts); err != nil {
				t.Errorf("%s %s: a value the encoder accepts does not decode: %v", tc.name, opts.Engine, err)
			}
			buf.Reset()
			if err := NewEncoder(&buf, opts).Encode(tc.value(maxEncodeDepth + 2)); !errors.Is(err, graph.ErrDepthExceeded) {
				t.Errorf("%s %s portable=%t: encoder one past its limit: got %v, want ErrDepthExceeded",
					tc.name, opts.Engine, opts.DisablePlanCache, err)
			}
		}
	}
}

func TestDecoderRejectsRefToFutureObject(t *testing.T) {
	reg := edgeRegistry(t)
	// Craft: header + tagRef to object 7 with an empty table.
	var buf bytes.Buffer
	enc := NewEncoder(&buf, Options{Registry: reg, Engine: EngineV2})
	if err := enc.EncodeUint(0); err != nil { // forces header emission
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte{}, buf.Bytes()...)
	raw = append(raw, tagRef, 7)
	dec := NewDecoderBytes(raw, Options{Registry: reg})
	if _, err := dec.DecodeUint(); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode(); !errors.Is(err, ErrBadStream) {
		t.Fatalf("want ErrBadStream, got %v", err)
	}
}

func TestDecodeSeededContentValidation(t *testing.T) {
	reg := edgeRegistry(t)
	dec := NewDecoderBytes(nil, Options{Registry: reg})
	if _, err := dec.DecodeSeededContent(0); err == nil {
		t.Fatal("content for unseeded id must fail")
	}
}

func TestEncodeSeededContentValidation(t *testing.T) {
	reg := edgeRegistry(t)
	var buf bytes.Buffer
	enc := NewEncoder(&buf, Options{Registry: reg})
	if err := enc.EncodeSeededContent(0); err == nil {
		t.Fatal("content for unknown id must fail")
	}
}

func TestDisablePlanCacheRoundTrip(t *testing.T) {
	reg := edgeRegistry(t)
	opts := Options{Registry: reg, DisablePlanCache: true}
	tree := buildRandomTree(3, 32)
	got := roundTrip(t, opts, tree)
	eq, err := model.Equal(graph.AccessExported, tree, got)
	if err != nil || !eq {
		t.Fatalf("portable round trip: %v %v", eq, err)
	}
}

func TestEngineStringAndUnknownDescriptor(t *testing.T) {
	if EngineV1.String() != "v1" || EngineV2.String() != "v2" {
		t.Fatal("engine names")
	}
	if Engine(9).String() == "" {
		t.Fatal("unknown engine must stringify")
	}
	// Unknown descriptor byte inside a stream.
	reg := edgeRegistry(t)
	var buf bytes.Buffer
	enc := NewEncoder(&buf, Options{Registry: reg})
	if err := enc.EncodeUint(0); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := append(buf.Bytes(), tagScalar, 250) // 250 is not a descriptor
	dec := NewDecoderBytes(raw, Options{Registry: reg})
	if _, err := dec.DecodeUint(); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode(); !errors.Is(err, ErrBadStream) {
		t.Fatalf("want ErrBadStream, got %v", err)
	}
}

func TestEmptyContainers(t *testing.T) {
	reg := edgeRegistry(t)
	opts := Options{Registry: reg}
	if got := roundTrip(t, opts, []int{}).([]int); len(got) != 0 || got == nil {
		t.Fatalf("empty slice: %#v", got)
	}
	if got := roundTrip(t, opts, map[string]int{}).(map[string]int); len(got) != 0 || got == nil {
		t.Fatalf("empty map: %#v", got)
	}
}

func TestV1FieldNamesTolerateReordering(t *testing.T) {
	// V1 ships field names, so decode resolves them regardless of order —
	// demonstrated by the fact that a V1 stream round-trips correctly
	// (names resolved individually, not positionally).
	reg := edgeRegistry(t)
	opts := Options{Engine: EngineV1, Registry: reg}
	v := &wbag{Name: "x", Items: []int{1}, F: 1.5, B: true, U: 9}
	got := roundTrip(t, opts, v).(*wbag)
	if got.Name != "x" || got.F != 1.5 || !got.B || got.U != 9 {
		t.Fatalf("v1 named-field decode: %+v", got)
	}
}
