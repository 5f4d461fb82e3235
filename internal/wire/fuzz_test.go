package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"nrmi/internal/graph"
	"nrmi/internal/netsim"
)

// FuzzDecode throws arbitrary bytes at the decoder: it must return errors,
// never panic or allocate unboundedly (a length is held against the bytes left).
// Seeds include valid streams so mutation explores near-valid inputs.
func FuzzDecode(f *testing.F) {
	reg := lengthRegistry(f) // wnode and the types of the hostile-length table
	if err := reg.Register("wbag", wbag{}); err != nil {
		f.Fatal(err)
	}
	registerKindMatrix(f, reg)
	var streams [][]byte
	seed := func(v any, eng Engine, access graph.AccessMode) {
		var buf bytes.Buffer
		enc := NewEncoder(&buf, Options{Engine: eng, Access: access, Registry: reg})
		if err := enc.Encode(v); err != nil {
			f.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			f.Fatal(err)
		}
		streams = append(streams, buf.Bytes())
		f.Add(buf.Bytes())
	}
	shared := &wnode{Data: 7}
	// A V3 encoder writes V2's bytes; its seeds pin that it still does.
	for _, eng := range []Engine{EngineV1, EngineV2, EngineV3} {
		seed(&wnode{Data: 1, Left: shared, Right: shared}, eng, graph.AccessExported)
		seed([]string{"a", "a", "b"}, eng, graph.AccessExported)
		seed(map[string]int{"x": 1}, eng, graph.AccessExported)
		seed(&wbag{Name: "n", Items: []int{1, 2}, Any: 3}, eng, graph.AccessExported)
		seed(kindMatrix(0), eng, graph.AccessExported)
		seed(kindMatrix(-5), eng, graph.AccessUnsafe)
	}
	f.Add([]byte{})
	f.Add([]byte{headerMagic})
	f.Add([]byte{headerMagic, formatV2, 0, tagRef, 0xFF})
	// Frame skeletons of the retired flat format 3: lying body length, a
	// frame header promising more nodes than the body delivers.
	f.Add([]byte{headerMagic, 3, 0, 0x04, 1, 0, 0, 0})
	f.Add([]byte{headerMagic, 3, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})
	f.Add(v3Stream(putU32le(putU32le(putU32le(nil, 7), 0), 0)))
	// Containers nested one level past maxDecodeDepth: refused, not recursed.
	f.Add(nestedSliceStream(maxDecodeDepth + 2))
	f.Add(nestedMapStream(maxDecodeDepth + 2))
	f.Add(nestedTypeStream(maxDecodeDepth + 2))
	// Lengths the bytes that follow cannot carry (TestHostileLengths).
	for _, h := range hostileLengthStreams(f, reg) {
		f.Add(h.stream)
	}
	// Damaged variants of every valid stream, mirroring what the netsim
	// corrupt and sever faults deliver on the wire: a few flipped bits at
	// seeded positions, and truncations at every framing-hostile cut.
	corrupter := netsim.NewPlan(1701)
	for _, s := range streams {
		for i := 0; i < 3; i++ {
			f.Add(corrupter.CorruptBytes(s))
		}
		for _, cut := range []int{1, len(s) / 2, len(s) - 1} {
			if cut > 0 && cut < len(s) {
				f.Add(s[:cut])
			}
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// The compiled kernels read a slot by its static type, in place; they
		// must be exactly as junk-proof as the generic reflective path, and
		// the two must agree: same outcome at every value, equal graphs. So
		// must the kernels of a V3 decoder, which build into its arena.
		opts := Options{Registry: reg}
		dec := NewDecoderBytes(data, opts)
		decA := NewDecoderBytes(data, Options{Engine: EngineV3, Registry: reg})
		opts.DisablePlanCache = true
		decG := NewDecoderBytes(data, opts)
		defer dec.ReleaseArena()
		defer decA.ReleaseArena()
		defer decG.ReleaseArena()
		for i := 0; i < 4; i++ {
			v, err := dec.Decode()
			vA, errA := decA.Decode()
			vG, errG := decG.Decode()
			if errClass(err) != errClass(errG) || errClass(errA) != errClass(errG) {
				t.Fatalf("value %d: kernel path: %v; arena path: %v; generic path: %v", i, err, errA, errG)
			}
			if err != nil {
				break // errors are the expected outcome for junk
			}
			if dec.BytesRead() != decG.BytesRead() || decA.BytesRead() != decG.BytesRead() {
				t.Fatalf("value %d: kernel path read %d bytes, arena path %d, generic path %d",
					i, dec.BytesRead(), decA.BytesRead(), decG.BytesRead())
			}
			if !sameGraph(t, reg, dec.Access(), v, vG) || !sameGraph(t, reg, dec.Access(), vA, vG) {
				t.Fatalf("value %d: the paths decoded different graphs: %#v, %#v vs %#v", i, v, vA, vG)
			}
		}
	})
}

// sameGraph reports whether a and b, decoded under access, are graph.Equal —
// or, where Equal cannot say so (NaN payloads, pointer map keys), encode to
// the same bytes. A decoder counts a container in an interface slot as one
// level and the encoder as two, so a stream can nest deeper than either
// oracle follows: a pair both refuse for its depth is taken as equal.
func sameGraph(t *testing.T, reg *Registry, access graph.AccessMode, a, b any) bool {
	if eq, err := graph.Equal(access, addressed(a), addressed(b)); err == nil && eq {
		return true
	}
	encode := func(v any) ([]byte, error) {
		var buf bytes.Buffer
		enc := NewEncoder(&buf, Options{Registry: reg, Access: access})
		if err := enc.Encode(v); err != nil {
			return nil, err
		}
		err := enc.Flush()
		return buf.Bytes(), err
	}
	ea, erra := encode(a)
	eb, errb := encode(b)
	if errors.Is(erra, graph.ErrDepthExceeded) && errors.Is(errb, graph.ErrDepthExceeded) {
		return true
	}
	if erra != nil || errb != nil {
		t.Fatalf("re-encoding a decoded value: %v, %v", erra, errb)
	}
	return bytes.Equal(ea, eb)
}

// addressed returns a pointer to a copy of v: graph.Equal reads an unexported
// field through its address, which a struct held by value does not have.
func addressed(v any) any {
	if v == nil {
		return nil
	}
	p := reflect.New(reflect.TypeOf(v))
	p.Elem().Set(reflect.ValueOf(v))
	return p.Interface()
}

// FuzzRoundTrip mutates a tree-describing byte string into tree shapes and
// checks encode→decode graph equality, a structured complement to
// FuzzDecode.
func FuzzRoundTrip(f *testing.F) {
	reg := NewRegistry()
	if err := reg.Register("wnode", wnode{}); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{1, 2, 3, 4}, false)
	f.Add([]byte{0}, true)
	f.Add([]byte{200, 100, 50, 25, 12, 6}, true)

	f.Fuzz(func(t *testing.T, shape []byte, useV1 bool) {
		// Interpret shape bytes as a preorder construction program.
		var build func(i int, depth int) (*wnode, int)
		build = func(i, depth int) (*wnode, int) {
			if i >= len(shape) || depth > 12 || shape[i]%4 == 0 {
				return nil, i + 1
			}
			n := &wnode{Data: int(shape[i])}
			var next int
			n.Left, next = build(i+1, depth+1)
			n.Right, next = build(next, depth+1)
			return n, next
		}
		tree, _ := build(0, 0)
		eng := EngineV2
		if useV1 {
			eng = EngineV1
		}
		opts := Options{Engine: eng, Registry: reg}
		var buf bytes.Buffer
		enc := NewEncoder(&buf, opts)
		if err := enc.Encode(tree); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		dec := NewDecoderBytes(buf.Bytes(), opts)
		out, err := dec.Decode()
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if tree == nil {
			// A typed nil encodes as nil and decodes as untyped nil.
			if out != nil {
				t.Fatalf("nil tree decoded to %v", out)
			}
			return
		}
		eq, err := graph.Equal(graph.AccessExported, tree, out)
		if err != nil || !eq {
			t.Fatalf("round trip broke graph equality: eq=%v err=%v", eq, err)
		}
		// Differential leg: the same shape through a V3 encoder and decoder
		// must produce an equal graph.
		opts3 := Options{Engine: EngineV3, Registry: reg}
		var buf3 bytes.Buffer
		enc3 := NewEncoder(&buf3, opts3)
		if err := enc3.Encode(tree); err != nil {
			t.Fatal(err)
		}
		if err := enc3.Flush(); err != nil {
			t.Fatal(err)
		}
		dec3 := NewDecoderBytes(buf3.Bytes(), opts3)
		out3, err := dec3.Decode()
		if err != nil {
			t.Fatalf("V3 decode of own encoding failed: %v", err)
		}
		dec3.ReleaseArena()
		eq, err = graph.Equal(graph.AccessExported, out3, out)
		if err != nil || !eq {
			t.Fatalf("V3 graph differs from %s graph: eq=%v err=%v", eng, eq, err)
		}
	})
}
