package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"nrmi/internal/graph"
	"nrmi/internal/raceflag"
)

// The states the per-stream kernel caches introduce — the memo and the type
// table of a pooled Encoder, the kernels of a Decoder's type table — against
// the generic oracle (oracle_test.go).

type otherInt int

// loose has a field of an unnamed struct type; looseSender is what a peer
// with a different declaration registers under the same name: its field
// has the named type inner, assignable to but not identical with loose's.
// With bare slots that is a layout mismatch (TestLayoutMismatchRefused).
type loose struct {
	In struct{ X, Y int }
	N  int
}

type looseSender struct {
	In inner
	N  int
}

func stateRegistry(t *testing.T, names map[string]any) *Registry {
	t.Helper()
	r := NewRegistry()
	for name, sample := range names {
		if err := r.Register(name, sample); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
	}
	return r
}

func encodeStream(t *testing.T, enc pathEncoder, buf *bytes.Buffer, values []any) []byte {
	t.Helper()
	for _, v := range values {
		if err := enc.Encode(v); err != nil {
			t.Fatalf("encode %T: %v", v, err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), buf.Bytes()...)
}

// TestKernelEncodeByteIdentityPooled: a pooled encoder is reused from stream
// to stream. Whatever order the types of the next stream first appear in,
// whatever registry names them — and so completes their layout fingerprints
// — its bytes must be a fresh generic encoder's.
func TestKernelEncodeByteIdentityPooled(t *testing.T) {
	regA := stateRegistry(t, map[string]any{"wnode": wnode{}, "wbag": wbag{}, "inner": inner{}, "namedInt": namedInt(0), "otherInt": otherInt(0)})
	regB := stateRegistry(t, map[string]any{"tree.Node": wnode{}, "bag": wbag{}, "in": inner{}, "n": namedInt(0), "o": otherInt(0)})
	node := &wnode{Data: 1, Left: &wnode{Data: 2}}
	streams := []struct {
		reg    *Registry
		values []any
	}{
		{regA, []any{node, namedInt(1), otherInt(2), "s", []int{1}}},
		{regA, []any{[]int{1}, "s", otherInt(2), namedInt(1), node}},
		{regB, []any{otherInt(2), node, namedInt(1)}},
		{regA, []any{&wbag{Any: namedInt(4), Items: []int{1}}, otherInt(2), node}},
		// Interface values whose dynamic type alternates, two named scalar
		// types of one kind among them.
		{regB, []any{[]any{1, "a", namedInt(2), otherInt(2), 3, "b", otherInt(4), namedInt(4), node, inner{1, 2}, nil, node}}},
		{regA, []any{map[string]any{"a": namedInt(1), "b": otherInt(1), "c": 1, "d": node}}},
	}
	// The same pooled encoder must serve every stream: hold it across the
	// loop instead of trusting sync.Pool to hand it back.
	var sink bytes.Buffer
	enc := AcquireEncoder(&sink, Options{Registry: regA})
	for round := 0; round < 2; round++ {
		for i, s := range streams {
			var want bytes.Buffer
			wantBytes := encodeStream(t, newGenericEncoder(&want, Options{Registry: s.reg}), &want, s.values)

			// What ReleaseEncoder and AcquireEncoder do to it, short of the
			// pool.
			var got bytes.Buffer
			enc.reset()
			enc.arm(&got, Options{Registry: s.reg})
			gotBytes := encodeStream(t, enc, &got, s.values)
			if !bytes.Equal(gotBytes, wantBytes) {
				t.Fatalf("round %d stream %d: pooled kernel encoder wrote % x, fresh generic encoder % x", round, i, gotBytes, wantBytes)
			}
			if enc.BytesWritten() != int64(len(wantBytes)) {
				t.Fatalf("round %d stream %d: BytesWritten %d, stream has %d", round, i, enc.BytesWritten(), len(wantBytes))
			}
		}
	}
	ReleaseEncoder(enc)
}

// TestKernelDecodeStates: streams that take the decode kernels' fallback, the
// described value of an interface slot — interface destinations of
// alternating dynamic type, two named scalars of one kind, a non-empty
// interface whose values are assignable to it by method set — decode to the
// same graphs as on the generic path.
func TestKernelDecodeStates(t *testing.T) {
	reg := slotRegistry(t)
	if err := reg.Register("otherInt", otherInt(0)); err != nil {
		t.Fatal(err)
	}
	node := &wnode{Data: 1}
	node.Left = &wnode{Data: 2, Right: node}
	cases := []struct {
		name string
		reg  *Registry // the encoding side's
		v    any
		want any
	}{
		{"alternating interface values", reg, []any{1, "a", namedInt(2), otherInt(2), node, inner{1, 2}, nil, node, 3}, nil},
		{"interface field", reg, []*wbag{{Any: namedInt(1)}, {Any: otherInt(1)}, {Any: 1}, {Any: node}, {}}, nil},
		{"named scalars as map values", reg, map[string]any{"a": namedInt(1), "b": otherInt(1)}, nil},
		{"assignable by method set", reg, []shape{square{2}, &disc{R: 3}, nil, square{2}, &disc{R: 4}}, nil},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		stream := encodeStream(t, NewEncoder(&buf, Options{Registry: tc.reg}), &buf, []any{tc.v, tc.v})
		want := tc.want
		if want == nil {
			want = tc.v
		}
		for _, p := range codecPaths {
			name := p.name
			for mode, dec := range map[string]pathDecoder{
				"stream": p.dec(stream, Options{Registry: reg}),
				"bytes":  p.dec(stream, Options{Registry: reg}),
			} {
				for i := 0; i < 2; i++ { // the second value is all back-references and table hits
					got, err := dec.Decode()
					if err != nil {
						t.Fatalf("%s: %s decode, %s mode, value %d: %v", tc.name, name, mode, i, err)
					}
					if eq, err := graph.Equal(graph.AccessExported, want, got); err != nil || !eq {
						t.Fatalf("%s: %s decode, %s mode, value %d: got %#v, want %#v (%v)", tc.name, name, mode, i, got, want, err)
					}
				}
			}
		}
	}
}

// TestDecodeAllocsSteadyState is the decode twin of
// TestEncodeAllocsSteadyState: a pooled decode of a cached type costs one
// allocation per object it materializes, plus a constant.
func TestDecodeAllocsSteadyState(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are not meaningful under -race (sync.Pool drops Puts)")
	}
	on := Options{Registry: testRegistry(t)}
	const nodes = 64
	tree := &wnode{Data: 1}
	for cur, i := tree, 2; i <= nodes; i++ {
		cur.Left = &wnode{Data: i * 1000}
		cur = cur.Left
	}
	var buf bytes.Buffer
	stream := encodeStream(t, NewEncoder(&buf, on), &buf, []any{tree})
	decodeOnce := func() {
		dec := AcquireDecoderBytes(stream, on)
		if _, err := dec.Decode(); err != nil {
			t.Fatal(err)
		}
		ReleaseDecoder(dec)
	}
	for i := 0; i < 5; i++ {
		decodeOnce()
	}
	avg := testing.AllocsPerRun(20, decodeOnce)
	// One cell per node, one interface box for the root.
	const budget = nodes + 4
	if avg > budget {
		t.Fatalf("steady-state decode allocates %.1f/run for %d objects, budget %d", avg, nodes, budget)
	}
}

// TestPooledCodecsReleaseEverything: nothing of one use survives into the
// pool — no user object, no reference to a payload or a destination, no
// staged state (the staging slab's array stays, zeroed), no per-stream
// table.
func TestPooledCodecsReleaseEverything(t *testing.T) {
	on := Options{Registry: testRegistry(t)}
	tree := &wnode{Data: 1, Left: &wnode{Data: 2}, Right: &wnode{Data: 3}}
	var buf bytes.Buffer
	enc := AcquireEncoder(&buf, on)
	stream := encodeStream(t, enc, &buf, []any{tree, "s", namedInt(1)})
	ReleaseEncoder(enc)
	if enc.dst != nil || len(enc.w.buf) != 0 || enc.BytesWritten() != 0 {
		t.Errorf("released encoder still holds destination %v, %d bytes", enc.dst, len(enc.w.buf))
	}
	// One huge message does not pin its buffer in the pool.
	big := AcquireEncoder(nil, on)
	if err := big.Encode(make([]byte, maxSpareBuf)); err != nil {
		t.Fatal(err)
	}
	ReleaseEncoder(big)
	if big.w.buf != nil {
		t.Errorf("released encoder keeps a %d-byte buffer, over the %d kept", cap(big.w.buf), maxSpareBuf)
	}
	if enc.ids.Len()+len(enc.typeTable)+len(enc.strTable)+len(enc.objs) != 0 || enc.memo != (kernelMemo{}) {
		t.Errorf("released encoder keeps stream tables: %d ids, %d types, %d strings, %d objects, memo %v",
			enc.ids.Len(), len(enc.typeTable), len(enc.strTable), len(enc.objs), enc.memo)
	}
	for i, cell := range enc.objs[:cap(enc.objs)] {
		if cell.IsValid() && !cell.IsZero() {
			t.Errorf("released encoder's object cell %d still references %v", i, cell)
		}
	}

	nodes := []*wnode{tree, tree.Left, tree.Right}

	// The identity index keeps its slots across messages and forgets them
	// by epoch: the next message (outside -race, which drops pool Puts, on
	// this same encoder) must not find the previous message's identities
	// among its own.
	next := AcquireEncoder(&buf, on)
	if err := next.SeedDecoded(valuesOf(&wnode{})); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		ident, _ := graph.IdentOf(reflect.ValueOf(n))
		if id, ok := next.ids.Get(ident); ok {
			t.Errorf("next message (same encoder: %v) sees the previous message's %p as object %d", next == enc, n, id)
		}
	}
	ReleaseEncoder(next)

	// A restore-shaped decode: seeded originals, a staging slab.
	var resp bytes.Buffer
	renc := NewEncoder(&resp, on)
	for _, n := range nodes {
		if err := renc.SeedDecoded(valuesOf(n)); err != nil {
			t.Fatal(err)
		}
	}
	for id := range nodes {
		if err := renc.EncodeSeededContent(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := renc.Flush(); err != nil {
		t.Fatal(err)
	}
	dec := AcquireDecoderBytes(resp.Bytes(), on)
	for _, n := range nodes {
		seed(dec, n)
	}
	dec.ExpectContents(len(nodes))
	for id := range nodes {
		if _, err := dec.DecodeSeededContent(id); err != nil {
			t.Fatal(err)
		}
	}
	if dec.stage.cells.Len() != len(nodes) {
		t.Fatalf("staging slab has %d cells for %d records of one type", dec.stage.cells.Len(), len(nodes))
	}
	ReleaseDecoder(dec)
	if dec.r.data != nil || dec.r.bytesRead() != 0 {
		t.Errorf("released decoder's reader still holds a payload (%d bytes read)", dec.r.bytesRead())
	}
	if len(dec.table)+len(dec.typeTable)+len(dec.strTable) != 0 || dec.memo != (kernelMemo{}) || dec.arena != nil {
		t.Errorf("released decoder keeps stream tables")
	}
	for i, e := range dec.typeTable[:cap(dec.typeTable)] {
		if e != nil {
			t.Errorf("released decoder's type table slot %d still holds %v", i, e)
		}
	}
	for i, v := range dec.table[:cap(dec.table)] {
		if v.IsValid() {
			t.Errorf("released decoder's object table slot %d still references an object", i)
		}
	}
	// The staging slab's array stays with the decoder for the next reply,
	// every cell zeroed: it pins nothing.
	if s := dec.stage; s.cells.Cap() < len(nodes) || s.cells.Len() != 0 || s.next != 0 || s.left != 0 {
		t.Errorf("released decoder's staging slab: %d of %d cells in use, next %d, left %d", s.cells.Len(), s.cells.Cap(), s.next, s.left)
	}
	for all, i := dec.stage.cells.Slice(0, dec.stage.cells.Cap()), 0; i < all.Len(); i++ {
		if !all.Index(i).IsZero() {
			t.Errorf("released decoder's staging cell %d still holds a temporary's state", i)
		}
	}

	// And a use from an io.Reader after it.
	dec = AcquireDecoderBytes(stream, on)
	if _, err := dec.Decode(); err != nil {
		t.Fatal(err)
	}
	ReleaseDecoder(dec)
	if dec.r.data != nil || dec.r.bytesRead() != 0 {
		t.Errorf("released decoder still holds the message it read from its source")
	}
}

// TestFailedTypeDefLeavesNoUsableSlot: a type definition whose body fails
// leaves its placeholder in the stream type table; a caller that keeps
// decoding after the error gets the typed error from every path that
// names the slot, never a nil type.
func TestFailedTypeDefLeavesNoUsableSlot(t *testing.T) {
	stream := []byte{headerMagic, formatV2, 0,
		tagScalar, dTableDef, 0xff, // no such descriptor lead
		tagScalar, dTableRef, 0}
	dec := NewDecoderBytes(stream, Options{})
	if _, err := dec.Decode(); !errors.Is(err, ErrBadStream) {
		t.Fatalf("bad definition: %v, want ErrBadStream", err)
	}
	if len(dec.typeTable) != 1 || dec.typeTable[0] != nil {
		t.Fatalf("type table after the failed definition: %+v", dec.typeTable)
	}
	if _, err := dec.Decode(); !errors.Is(err, ErrBadStream) {
		t.Errorf("a reference to the slot: %v, want ErrBadStream", err)
	}
}

// TestReleaseDropsAdoptedObjects: a reply encoder holds the request
// decoder's objects as they are (SeedDecoded), after a request encoder's
// cells; releasing it drops the objects and zeroes the cells, so the pool
// pins none of them.
func TestReleaseDropsAdoptedObjects(t *testing.T) {
	on := Options{Registry: testRegistry(t)}
	var req bytes.Buffer
	stream := encodeStream(t, NewEncoder(&req, on), &req, []any{&wnode{Data: 1, Left: &wnode{Data: 2}}})
	dec := NewDecoderBytes(stream, on)
	if _, err := dec.Decode(); err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(&bytes.Buffer{}, on)
	if err := enc.Encode(&wnode{Left: &wnode{Right: &wnode{}}}); err != nil {
		t.Fatal(err)
	}
	enc.reset()
	if err := enc.SeedDecoded(dec.Objects()); err != nil {
		t.Fatal(err)
	}
	enc.reset()
	for i, cell := range enc.objs[:cap(enc.objs)] {
		if cell.IsValid() && !cell.IsZero() {
			t.Errorf("released encoder's object cell %d still references %v", i, cell)
		}
	}
}
