package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"nrmi/internal/graph"
	"nrmi/internal/raceflag"
	"nrmi/internal/wire"
)

// The restore set is the prefix [0, end) of the codec's object table that
// the restorable arguments add, encoded first. These tests hold it against
// the definition it replaces — the graph walk closure of the restorable
// roots — on both endpoints, and pin that a request breaking the order is
// refused.

// hidden carries its link in an unexported field, so under AccessExported
// it is a leaf (the field must then be nil) and under AccessUnsafe a list.
type hidden struct {
	Data int
	next *hidden
}

type setArg struct {
	v          any
	restorable bool
}

func setOptions(t *testing.T, eng wire.Engine, access graph.AccessMode) Options {
	t.Helper()
	reg := wire.NewRegistry()
	for name, sample := range map[string]any{
		"Tree": Tree{}, "world": world{}, "carrier": carrier{},
		"q.document": document{}, "q.store": store{}, "hidden": hidden{},
	} {
		if err := reg.Register(name, sample); err != nil {
			t.Fatal(err)
		}
	}
	return Options{Registry: reg, Engine: eng, Access: access}
}

// wireOrder lists argument positions in the order the rmi layer puts them
// on the wire: the restorable arguments, then the rest, each in parameter
// order.
func wireOrder(args []setArg) []int {
	var order []int
	for _, restorable := range []bool{true, false} {
		for i, a := range args {
			if a.restorable == restorable {
				order = append(order, i)
			}
		}
	}
	return order
}

// encodeArgs drives the client half, in wire order, up to (not including)
// Finish.
func encodeArgs(t *testing.T, opts Options, args []setArg) (*Call, *bytes.Buffer) {
	t.Helper()
	req := new(bytes.Buffer)
	call := NewCall(req, opts)
	for _, i := range wireOrder(args) {
		var err error
		if args[i].restorable {
			err = call.EncodeRestorable(args[i].v)
		} else {
			err = call.EncodeCopy(args[i].v)
		}
		if err != nil {
			t.Fatalf("encode argument %d: %v", i, err)
		}
	}
	return call, req
}

// decodeArgs drives the server half, in wire order, up to (not including)
// Prepare, and returns the decoded arguments in parameter order.
func decodeArgs(t *testing.T, opts Options, req []byte, args []setArg) (*ServerCall, []any) {
	t.Helper()
	srv := AcceptCallBytes(req, opts)
	vals := make([]any, len(args))
	for _, i := range wireOrder(args) {
		var err error
		if args[i].restorable {
			vals[i], err = srv.DecodeRestorable()
		} else {
			vals[i], err = srv.DecodeCopy()
		}
		if err != nil {
			t.Fatalf("decode argument %d: %v", i, err)
		}
	}
	return srv, vals
}

// walkIDs is the definition the prefix replaces: the table IDs of every
// object reachable from roots, found by a graph walk, ascending. Of two
// table entries that share an identity (graph.Aliases) the first counts, as
// in the encoder's own index.
func walkIDs(t *testing.T, access graph.AccessMode, objs []reflect.Value, roots []any) []int {
	t.Helper()
	var index graph.IdentTable
	for i, obj := range objs {
		if ident, ok := graph.IdentOf(obj); ok {
			index.GetOrPut(ident, i)
		}
	}
	lm, err := graph.Walk(access, roots...)
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{}
	for _, obj := range lm.Objects() {
		ident, _ := graph.IdentOf(obj.Ref)
		id, ok := index.Get(ident)
		if !ok {
			t.Fatalf("reachable %s missing from the object table", obj.Type())
		}
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// prefix returns [0, n).
func prefix(n int) []int {
	ids := []int{}
	for id := range n {
		ids = append(ids, id)
	}
	return ids
}

// TestRestoreSetEqualsWalk: on every argument shape — by-copy arguments
// that share nodes with restorable ones included — the prefix the
// restorable arguments add is exactly what a walk from them reaches, on
// both endpoints.
func TestRestoreSetEqualsWalk(t *testing.T) {
	leaf := func(d int) *Tree { return &Tree{Data: d} }
	cases := []struct {
		name string
		args func(access graph.AccessMode) []setArg
	}{
		{"tree", func(graph.AccessMode) []setArg {
			return []setArg{{genWorld(7, 40).Root, true}}
		}},
		{"world-with-aliases", func(graph.AccessMode) []setArg {
			return []setArg{{genWorld(11, 25), true}}
		}},
		{"carrier", func(graph.AccessMode) []setArg {
			shared := leaf(1)
			return []setArg{{&carrier{
				Tag:   "c",
				Table: map[string]*Tree{"a": shared, "b": {Data: 2, Left: shared}},
				Items: []*Tree{shared, nil, leaf(3)},
				Any:   &Tree{Data: 4, Right: shared},
			}, true}}
		}},
		{"store", func(graph.AccessMode) []setArg {
			return []setArg{{genStore(3, 12), true}}
		}},
		{"map-and-slice-roots", func(graph.AccessMode) []setArg {
			shared := leaf(1)
			return []setArg{
				{map[string]*Tree{"k": shared}, true},
				{[]*Tree{shared, leaf(2)}, true},
			}
		}},
		{"hidden", func(access graph.AccessMode) []setArg {
			h := &hidden{Data: 1}
			if access == graph.AccessUnsafe {
				h.next = &hidden{Data: 2, next: &hidden{Data: 3}}
				h.next.next.next = h
			}
			return []setArg{{h, true}}
		}},
		{"two-restorable-sharing", func(graph.AccessMode) []setArg {
			w := genWorld(5, 20)
			return []setArg{{w.Root, true}, {&Tree{Data: -1, Left: w.Aliases[0], Right: leaf(9)}, true}}
		}},
		{"same-root-twice", func(graph.AccessMode) []setArg {
			root := genWorld(2, 8).Root
			return []setArg{{root, true}, {root, true}}
		}},
		{"copy-first-shares-node", func(graph.AccessMode) []setArg {
			w := genWorld(9, 20)
			return []setArg{{w.Root, false}, {&Tree{Data: -1, Left: w.Aliases[0]}, true}}
		}},
		{"copy-first-same-root", func(graph.AccessMode) []setArg {
			root := genWorld(4, 6).Root
			return []setArg{{root, false}, {root, true}}
		}},
		{"copy-after-points-in", func(graph.AccessMode) []setArg {
			w := genWorld(13, 20)
			return []setArg{{w.Root, true}, {&Tree{Data: -1, Left: w.Aliases[0], Right: leaf(5)}, false}}
		}},
		{"copy-between-disjoint", func(graph.AccessMode) []setArg {
			return []setArg{{genWorld(1, 6).Root, true}, {genWorld(2, 6).Root, false}, {genWorld(3, 6).Root, true}}
		}},
		{"scalar-copy-between-sharing", func(graph.AccessMode) []setArg {
			w := genWorld(6, 12)
			return []setArg{{w.Root, true}, {42, false}, {&Tree{Left: w.Aliases[0]}, true}}
		}},
		{"object-copy-between-sharing", func(graph.AccessMode) []setArg {
			w := genWorld(6, 12)
			return []setArg{{w.Root, true}, {leaf(1), false}, {&Tree{Left: w.Aliases[0]}, true}}
		}},
		{"nil-root", func(graph.AccessMode) []setArg {
			return []setArg{{nil, true}, {(*Tree)(nil), true}, {leaf(1), true}}
		}},
		{"nil-only", func(graph.AccessMode) []setArg {
			return []setArg{{leaf(1), false}, {nil, true}}
		}},
	}
	engines := []wire.Engine{wire.EngineV1, wire.EngineV2, wire.EngineV3}
	for _, tc := range cases {
		for _, eng := range engines {
			for _, access := range []graph.AccessMode{graph.AccessExported, graph.AccessUnsafe} {
				t.Run(fmt.Sprintf("%s/%s/%s", tc.name, eng, access), func(t *testing.T) {
					opts := setOptions(t, eng, access)
					args := tc.args(access)
					var roots []any
					for _, a := range args {
						if a.restorable {
							roots = append(roots, a.v)
						}
					}

					call, req := encodeArgs(t, opts, args)
					defer call.Release()
					if err := call.Finish(); err != nil {
						t.Fatal(err)
					}
					client := prefix(call.end)
					if walked := walkIDs(t, access, call.Objects(), roots); !reflect.DeepEqual(client, walked) {
						t.Fatalf("client set %v, walk %v", client, walked)
					}

					srv, vals := decodeArgs(t, opts, req.Bytes(), args)
					defer srv.Release()
					if err := srv.Prepare(); err != nil {
						t.Fatal(err)
					}
					var srvRoots []any
					for i, a := range args {
						if a.restorable {
							srvRoots = append(srvRoots, vals[i])
						}
					}
					server := prefix(srv.end)
					if walked := walkIDs(t, srv.Access(), srv.dec.Objects(), srvRoots); !reflect.DeepEqual(server, walked) {
						t.Fatalf("server set %v, walk %v", server, walked)
					}
					if !reflect.DeepEqual(client, server) {
						t.Fatalf("endpoints disagree: client %v, server %v", client, server)
					}

					// The untouched graph round-trips: the reply answers for
					// the whole set and ships nothing new, nor any object of
					// it but the maps, which have no shadow.
					maps := 0
					for _, id := range client {
						if call.Objects()[id].Kind() == reflect.Map {
							maps++
						}
					}
					var resp bytes.Buffer
					stats, err := srv.EncodeResponse(&resp, nil)
					if err != nil {
						t.Fatal(err)
					}
					res, err := call.ApplyResponseBytes(resp.Bytes())
					if err != nil {
						t.Fatal(err)
					}
					if stats.OldTotal != len(client) || res.Restored != maps || res.NewObjects != 0 {
						t.Fatalf("set %d restored %d new %d, want %d, %d and 0", stats.OldTotal, res.Restored, res.NewObjects, len(client), maps)
					}
				})
			}
		}
	}
}

// TestRestorableAfterCopyRefusedAtSender: a restorable argument encoded
// after a by-copy one that added objects would make the restore set a
// non-prefix of the table; the Call refuses it. One after a by-copy
// argument that added none (a scalar) is fine.
func TestRestorableAfterCopyRefusedAtSender(t *testing.T) {
	opts := testOptions(t)
	call := NewCall(new(bytes.Buffer), opts)
	defer call.Release()
	if err := call.EncodeCopy(42); err != nil {
		t.Fatal(err)
	}
	if err := call.EncodeRestorable(&Tree{Data: 1}); err != nil {
		t.Fatalf("restorable after a scalar: %v", err)
	}
	if err := call.EncodeCopy(&Tree{Data: 2}); err != nil {
		t.Fatal(err)
	}
	if err := call.EncodeRestorable(&Tree{Data: 3}); err == nil {
		t.Fatal("restorable after an object-adding by-copy argument was encoded")
	}
	if call.end != 1 || call.NumRestorable() != 1 {
		t.Fatalf("refused argument counted: end %d, %d restorable", call.end, call.NumRestorable())
	}
}

// forgedWorld is an honest two-argument call — a restorable tree, then a
// by-copy tree that shares nothing with it — and a pre-call snapshot of the
// restorable tree.
func forgedWorld(t *testing.T, opts Options) (call *Call, req []byte, byCopy, root, snap *Tree) {
	t.Helper()
	byCopy = &Tree{Data: 1, Left: &Tree{Data: 2}, Right: &Tree{Data: 3}}
	root = &Tree{Data: 10, Left: &Tree{Data: 11}, Right: &Tree{Data: 12}}
	snap = snapshotGraph(t, root)
	call, buf := encodeArgs(t, opts, []setArg{{byCopy, false}, {root, true}})
	if err := call.Finish(); err != nil {
		t.Fatal(err)
	}
	return call, buf.Bytes(), byCopy, root, snap
}

func assertUntouched(t *testing.T, root, snap *Tree, left, right *Tree) {
	t.Helper()
	if !graphsEqual(t, root, snap) || root.Left != left || root.Right != right {
		t.Fatal("a failed apply changed the caller's graph")
	}
}

// TestForgedRequestReachesIntoCopyRun: the request the server reads is not
// the one the client wrote — in it a by-copy tree comes first and the
// restorable argument references it. The server refuses it typed before
// Prepare, so the method never runs and no reply reaches the client, whose
// graph stays as it was.
func TestForgedRequestReachesIntoCopyRun(t *testing.T) {
	for _, eng := range []wire.Engine{wire.EngineV2, wire.EngineV3} {
		opts := setOptions(t, eng, graph.AccessExported)
		call, _, byCopy, root, snap := forgedWorld(t, opts)
		left, right := root.Left, root.Right

		// Only the order tells a restorable value from a by-copy one on the
		// wire, so the forger encodes both by copy.
		var forged bytes.Buffer
		forger := NewCall(&forged, opts)
		for _, v := range []any{byCopy, &Tree{Data: 10, Left: byCopy, Right: &Tree{Data: 12}}} {
			if err := forger.EncodeCopy(v); err != nil {
				t.Fatal(err)
			}
		}
		if err := forger.Finish(); err != nil {
			t.Fatal(err)
		}
		srv := AcceptCallBytes(forged.Bytes(), opts)
		if _, err := srv.DecodeCopy(); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.DecodeRestorable(); !errors.Is(err, wire.ErrBadStream) {
			t.Fatalf("%s: err = %v, want wire.ErrBadStream", eng, err)
		}
		if srv.end != 0 {
			t.Fatalf("%s: refused argument extended the restore set to %d", eng, srv.end)
		}
		assertUntouched(t, root, snap, left, right)
		call.Release()
		forger.Release()
		srv.Release()
	}
}

// TestForgedReplyNumbersByRequestStream: a reply whose encoder was seeded
// with the whole request table, so that it names a by-copy object by its
// request-stream ID. That ID runs past what the client seeded; the client
// must fail typed and leave its graph alone.
func TestForgedReplyNumbersByRequestStream(t *testing.T) {
	for _, eng := range []wire.Engine{wire.EngineV2, wire.EngineV3} {
		opts := setOptions(t, eng, graph.AccessExported)
		call, req, _, root, snap := forgedWorld(t, opts)
		left, right := root.Left, root.Right

		srv, vals := decodeArgs(t, opts, req, []setArg{{nil, false}, {nil, true}})
		if err := srv.Prepare(); err != nil {
			t.Fatal(err)
		}
		vals[1].(*Tree).Left = vals[0].(*Tree)
		var resp bytes.Buffer
		enc := wire.NewEncoder(&resp, opts)
		if err := enc.SeedDecoded(srv.dec.Objects()); err != nil {
			t.Fatal(err)
		}
		if err := enc.EncodeUint(1); err != nil {
			t.Fatal(err)
		}
		if err := enc.EncodeUint(0); err != nil {
			t.Fatal(err)
		}
		if err := enc.EncodeSeededContent(0); err != nil {
			t.Fatal(err)
		}
		if err := enc.EncodeUint(0); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := call.ApplyResponseBytes(resp.Bytes()); !errors.Is(err, wire.ErrBadStream) {
			t.Fatalf("%s: err = %v, want wire.ErrBadStream", eng, err)
		}
		assertUntouched(t, root, snap, left, right)
		call.Release()
		srv.Release()
	}
}

// touchAll changes every decoded *Tree of srv, so that its reply restores
// each one.
func touchAll(srv *ServerCall) {
	for _, obj := range srv.dec.Objects() {
		obj.Interface().(*Tree).Data++
	}
}

// TestApplyAllocsSteadyState: applying a 256-node scenario-III reply that
// restores every node costs one allocation per new node and nothing else —
// the staging temporaries of the restored nodes come from the slab the
// pooled decoder keeps, the update list is the decoder's, and the Response
// is a value; no second staging value per record, no detached cell per
// seeded object, no per-call ID set.
func TestApplyAllocsSteadyState(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are not meaningful under -race (sync.Pool drops Puts)")
	}
	const size = 256
	opts := testOptions(t)
	root := genWorld(1, size).Root
	call, req := encodeArgs(t, opts, []setArg{{root, true}})
	defer call.Release()
	if err := call.Finish(); err != nil {
		t.Fatal(err)
	}
	srv := AcceptCallBytes(req.Bytes(), opts)
	sroot, err := srv.DecodeRestorable()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Prepare(); err != nil {
		t.Fatal(err)
	}
	touchAll(srv)
	applyScript(sroot.(*Tree), genScript(1, size, 8+size/16))
	var resp bytes.Buffer
	if _, err := srv.EncodeResponse(&resp, nil); err != nil {
		t.Fatal(err)
	}
	srv.Release()

	// The same reply applies any number of times: the set is the request's.
	var res Response
	apply := func() {
		if res, err = call.ApplyResponseBytes(resp.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		apply() // warm the decoder pool and the codec kernels
	}
	if res.Restored != size || res.NewObjects == 0 {
		t.Fatalf("restored %d new %d: not the scenario this budget is for", res.Restored, res.NewObjects)
	}
	avg := testing.AllocsPerRun(20, apply)
	budget := float64(res.NewObjects)
	if avg > budget {
		t.Fatalf("ApplyResponseBytes: %.1f allocs/op for %d restored + %d new objects, budget %.0f",
			avg, res.Restored, res.NewObjects, budget)
	}
	t.Logf("ApplyResponseBytes: %.1f allocs/op (%d restored, %d new)", avg, res.Restored, res.NewObjects)
}

// TestStagingSlabBytes: on a tree16-sized reply the shared staging slab
// allocates no more bytes than one cell per record would — what a decoder
// that was not told how many records follow still does — in fewer pieces.
func TestStagingSlabBytes(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are not meaningful under -race (sync.Pool drops Puts)")
	}
	const size = 16
	opts := testOptions(t)
	call, req := encodeArgs(t, opts, []setArg{{genWorld(1, size).Root, true}})
	defer call.Release()
	if err := call.Finish(); err != nil {
		t.Fatal(err)
	}
	srv, _ := decodeArgs(t, opts, req.Bytes(), []setArg{{nil, true}})
	if err := srv.Prepare(); err != nil {
		t.Fatal(err)
	}
	touchAll(srv)
	var resp bytes.Buffer
	if _, err := srv.EncodeResponse(&resp, nil); err != nil {
		t.Fatal(err)
	}
	srv.Release()

	stage := func(announce bool) func() {
		return func() {
			dec := wire.AcquireDecoderBytes(resp.Bytes(), opts)
			dec.SeedDetached(call.Objects())
			n, err := dec.DecodeUint()
			if err != nil || n != size {
				t.Fatalf("%d content records (%v), want %d", n, err, size)
			}
			if announce {
				dec.ExpectContents(int(n))
			}
			for i := uint64(0); i < n; i++ {
				id, err := dec.DecodeUint()
				if err == nil {
					_, err = dec.DecodeSeededContent(int(id))
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			wire.ReleaseDecoder(dec)
		}
	}
	// The minimum over a few windows: a stray runtime allocation inside one
	// ReadMemStats window (a busy box) must not tip the comparison.
	measure := func(f func()) (allocs, bytes float64) {
		const windows, runs = 5, 50
		for i := 0; i < 5; i++ {
			f()
		}
		allocs, bytes = math.Inf(1), math.Inf(1)
		for w := 0; w < windows; w++ {
			var a, b runtime.MemStats
			runtime.ReadMemStats(&a)
			for i := 0; i < runs; i++ {
				f()
			}
			runtime.ReadMemStats(&b)
			allocs = min(allocs, float64(b.Mallocs-a.Mallocs)/runs)
			bytes = min(bytes, float64(b.TotalAlloc-a.TotalAlloc)/runs)
		}
		return allocs, bytes
	}
	cellAllocs, cellBytes := measure(stage(false))
	slabAllocs, slabBytes := measure(stage(true))
	if cellAllocs < size {
		t.Fatalf("per-record staging made %.1f allocations for %d records: not the baseline this test compares with", cellAllocs, size)
	}
	if slabBytes > cellBytes || slabAllocs > cellAllocs-size+2 {
		t.Fatalf("slab staging: %.1f allocs, %.0f B; per-record cells: %.1f allocs, %.0f B", slabAllocs, slabBytes, cellAllocs, cellBytes)
	}
	t.Logf("slab staging: %.1f allocs, %.0f B; per-record cells: %.1f allocs, %.0f B", slabAllocs, slabBytes, cellAllocs, cellBytes)
}
