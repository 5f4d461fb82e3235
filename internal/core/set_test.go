package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"nrmi/internal/graph"
	"nrmi/internal/raceflag"
	"nrmi/internal/wire"
)

// The restore set is read off the codec's object table (restoreSet). These
// tests hold it against the definition it replaces — the graph.Walker
// closure of the restorable roots — on both endpoints, and pin when the
// table alone is not enough and the walk still runs.

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

func setIDs(rs *restoreSet) []int {
	ids := []int{}
	for _, r := range rs.runs {
		for id := r.lo; id < r.hi; id++ {
			ids = append(ids, id)
		}
	}
	return ids
}

// encodeArgs drives the client half up to (not including) Finish.
func encodeArgs(t *testing.T, opts Options, args []setArg) (*Call, *bytes.Buffer) {
	t.Helper()
	req := new(bytes.Buffer)
	call := NewCall(req, opts)
	for i, a := range args {
		var err error
		if a.restorable {
			err = call.EncodeRestorable(a.v)
		} else {
			err = call.EncodeCopy(a.v)
		}
		if err != nil {
			t.Fatalf("encode argument %d: %v", i, err)
		}
	}
	return call, req
}

// decodeArgs drives the server half up to (not including) Prepare.
func decodeArgs(t *testing.T, opts Options, req []byte, args []setArg) *ServerCall {
	t.Helper()
	srv := AcceptCallBytes(req, opts)
	for i, a := range args {
		var err error
		if a.restorable {
			_, err = srv.DecodeRestorable()
		} else {
			_, err = srv.DecodeCopy()
		}
		if err != nil {
			t.Fatalf("decode argument %d: %v", i, err)
		}
	}
	return srv
}

func TestRestoreSetEqualsWalk(t *testing.T) {
	leaf := func(d int) *Tree { return &Tree{Data: d} }
	cases := []struct {
		name string
		args func(access graph.AccessMode) []setArg
		// walk says the table cannot delimit the set: an argument reaches
		// below the restorable run it extends.
		walk bool
	}{
		{"tree", func(graph.AccessMode) []setArg {
			return []setArg{{genWorld(7, 40).Root, true}}
		}, false},
		{"world-with-aliases", func(graph.AccessMode) []setArg {
			return []setArg{{genWorld(11, 25), true}}
		}, false},
		{"carrier", func(graph.AccessMode) []setArg {
			shared := leaf(1)
			return []setArg{{&carrier{
				Tag:   "c",
				Table: map[string]*Tree{"a": shared, "b": {Data: 2, Left: shared}},
				Items: []*Tree{shared, nil, leaf(3)},
				Any:   &Tree{Data: 4, Right: shared},
			}, true}}
		}, false},
		{"store", func(graph.AccessMode) []setArg {
			return []setArg{{genStore(3, 12), true}}
		}, false},
		{"map-and-slice-roots", func(graph.AccessMode) []setArg {
			shared := leaf(1)
			return []setArg{
				{map[string]*Tree{"k": shared}, true},
				{[]*Tree{shared, leaf(2)}, true},
			}
		}, false},
		{"hidden", func(access graph.AccessMode) []setArg {
			h := &hidden{Data: 1}
			if access == graph.AccessUnsafe {
				h.next = &hidden{Data: 2, next: &hidden{Data: 3}}
				h.next.next.next = h
			}
			return []setArg{{h, true}}
		}, false},
		{"two-restorable-sharing", func(graph.AccessMode) []setArg {
			w := genWorld(5, 20)
			return []setArg{{w.Root, true}, {&Tree{Data: -1, Left: w.Aliases[0], Right: leaf(9)}, true}}
		}, false},
		{"same-root-twice", func(graph.AccessMode) []setArg {
			root := genWorld(2, 8).Root
			return []setArg{{root, true}, {root, true}}
		}, false},
		{"copy-first-shares-node", func(graph.AccessMode) []setArg {
			w := genWorld(9, 20)
			return []setArg{{w.Root, false}, {&Tree{Data: -1, Left: w.Aliases[0]}, true}}
		}, true},
		{"copy-first-same-root", func(graph.AccessMode) []setArg {
			root := genWorld(4, 6).Root
			return []setArg{{root, false}, {root, true}}
		}, true},
		{"copy-after-points-in", func(graph.AccessMode) []setArg {
			w := genWorld(13, 20)
			return []setArg{{w.Root, true}, {&Tree{Data: -1, Left: w.Aliases[0], Right: leaf(5)}, false}}
		}, false},
		{"copy-between-disjoint", func(graph.AccessMode) []setArg {
			return []setArg{{genWorld(1, 6).Root, true}, {genWorld(2, 6).Root, false}, {genWorld(3, 6).Root, true}}
		}, false},
		{"scalar-copy-between-sharing", func(graph.AccessMode) []setArg {
			w := genWorld(6, 12)
			return []setArg{{w.Root, true}, {42, false}, {&Tree{Left: w.Aliases[0]}, true}}
		}, false},
		// The table could delimit this one (both ends of the reference are
		// restorable), but the codec reports only the lowest reference, so
		// a by-copy run in between is treated as possibly reached.
		{"object-copy-between-sharing", func(graph.AccessMode) []setArg {
			w := genWorld(6, 12)
			return []setArg{{w.Root, true}, {leaf(1), false}, {&Tree{Left: w.Aliases[0]}, true}}
		}, true},
		{"nil-root", func(graph.AccessMode) []setArg {
			return []setArg{{nil, true}, {(*Tree)(nil), true}, {leaf(1), true}}
		}, false},
		{"nil-only", func(graph.AccessMode) []setArg {
			return []setArg{{leaf(1), false}, {nil, true}}
		}, false},
	}
	engines := []wire.Engine{wire.EngineV1, wire.EngineV2, wire.EngineV3}
	for _, tc := range cases {
		for _, eng := range engines {
			for _, access := range []graph.AccessMode{graph.AccessExported, graph.AccessUnsafe} {
				t.Run(fmt.Sprintf("%s/%s/%s", tc.name, eng, access), func(t *testing.T) {
					opts := setOptions(t, eng, access)
					args := tc.args(access)

					call, req := encodeArgs(t, opts, args)
					defer call.Release()
					if call.set.escaped != tc.walk {
						t.Fatalf("client: escaped = %v, want %v", call.set.escaped, tc.walk)
					}
					fromTable := setIDs(&call.set)
					if err := call.Finish(); err != nil {
						t.Fatal(err)
					}
					client := setIDs(&call.set)
					walked, err := reachableIDs(access, call.restorableRoots, call.enc.IDOf, false)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(client, walked) {
						t.Fatalf("client set %v, walk %v", client, walked)
					}
					if !tc.walk && !reflect.DeepEqual(fromTable, client) {
						t.Fatalf("Finish changed a set the table had delimited: %v -> %v", fromTable, client)
					}

					srv := decodeArgs(t, opts, req.Bytes(), args)
					defer srv.Release()
					if srv.set.escaped != tc.walk {
						t.Fatalf("server: escaped = %v, want %v", srv.set.escaped, tc.walk)
					}
					if err := srv.Prepare(); err != nil {
						t.Fatal(err)
					}
					server := setIDs(&srv.set)
					walked, err = reachableIDs(srv.effectiveAccess(), srv.restorableRoots, indexByIdent(srv.dec.Objects()), false)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(server, walked) {
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

// TestEscapedSetRestoresThroughCopyRun: a restorable argument that reaches
// into a by-copy argument encoded before it restores exactly what it
// reaches there — not the rest of that argument's run.
func TestEscapedSetRestoresThroughCopyRun(t *testing.T) {
	for _, cfg := range codecConfigs {
		opts := cfg.apply(setOptions(t, 0, graph.AccessExported))
		below := &Tree{Data: 3}
		shared := &Tree{Data: 2, Left: below}
		byCopy := &Tree{Data: 1, Left: shared}
		root := &Tree{Data: 10, Right: shared}
		args := []setArg{{byCopy, false}, {root, true}}

		call, req := encodeArgs(t, opts, args)
		if err := call.Finish(); err != nil {
			t.Fatal(err)
		}
		srv := AcceptCallBytes(req.Bytes(), opts)
		sc, err := srv.DecodeCopy()
		if err != nil {
			t.Fatal(err)
		}
		sr, err := srv.DecodeRestorable()
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Prepare(); err != nil {
			t.Fatal(err)
		}
		sroot := sr.(*Tree)
		sc.(*Tree).Data = 100
		sroot.Right.Data = 200
		sroot.Right.Left.Data = 300
		sroot.Left = &Tree{Data: 400}
		var resp bytes.Buffer
		if _, err := srv.EncodeResponse(&resp, nil); err != nil {
			t.Fatal(err)
		}
		res, err := call.ApplyResponseBytes(resp.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if res.Restored != 3 || res.NewObjects != 1 {
			t.Fatalf("%s: restored %d new %d, want 3 and 1", cfg.name, res.Restored, res.NewObjects)
		}
		if byCopy.Data != 1 || shared.Data != 200 || below.Data != 300 || root.Left == nil || root.Left.Data != 400 {
			t.Fatalf("%s: byCopy %d shared %d below %d", cfg.name, byCopy.Data, shared.Data, below.Data)
		}
		if root.Right != shared || byCopy.Left != shared || shared.Left != below {
			t.Fatalf("%s: identities moved", cfg.name)
		}
		call.Release()
		srv.Release()
	}
}

// forgedWorld is an honest two-argument call — a by-copy tree, then a
// restorable tree that shares nothing with it — and a pre-call snapshot of
// the restorable tree.
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
// the one the client wrote — in it the restorable argument references the
// by-copy tree. The server sees that on the stream, walks, and answers for
// the set it found, changing an object of it the client never sent and one
// at a position the client's set has too; the client, holding the set of
// what it actually sent, must reject the reply and leave its graph alone.
func TestForgedRequestReachesIntoCopyRun(t *testing.T) {
	for _, eng := range []wire.Engine{wire.EngineV2, wire.EngineV3} {
		opts := setOptions(t, eng, graph.AccessExported)
		call, _, byCopy, root, snap := forgedWorld(t, opts)
		left, right := root.Left, root.Right

		args := []setArg{{byCopy, false}, {&Tree{Data: 10, Left: byCopy, Right: &Tree{Data: 12}}, true}}
		forger, forged := encodeArgs(t, opts, args)
		if err := forger.Finish(); err != nil {
			t.Fatal(err)
		}
		srv := decodeArgs(t, opts, forged.Bytes(), args)
		if !srv.set.escaped {
			t.Fatalf("%s: server did not see the reference into the by-copy run", eng)
		}
		if err := srv.Prepare(); err != nil {
			t.Fatal(err)
		}
		if n := srv.set.len(); n != 5 {
			t.Fatalf("%s: server set has %d objects, want 5", eng, n)
		}
		// Positions 0..2 are the by-copy tree, 3 and 4 the forged root and
		// its right child; the client's set has three.
		sroot := srv.restorableRoots[0].Interface().(*Tree)
		sroot.Left.Data, sroot.Data = 100, 110
		var resp bytes.Buffer
		if stats, err := srv.EncodeResponse(&resp, nil); err != nil || stats.OldSent != 2 {
			t.Fatalf("%s: reply %+v, %v; want two records", eng, stats, err)
		}
		if _, err := call.ApplyResponseBytes(resp.Bytes()); !errors.Is(err, ErrBadResponse) {
			t.Fatalf("%s: err = %v, want ErrBadResponse", eng, err)
		}
		assertUntouched(t, root, snap, left, right)
		call.Release()
		forger.Release()
		srv.Release()
	}
}

// TestForgedReplyNumbersByRequestStream: a reply whose encoder was seeded
// with the whole request table, so its back-references are request-stream
// IDs — by-copy ones included — and not positions in the restore set. They
// run past what the client seeded; the client must fail typed and leave
// its graph alone.
func TestForgedReplyNumbersByRequestStream(t *testing.T) {
	for _, eng := range []wire.Engine{wire.EngineV2, wire.EngineV3} {
		opts := setOptions(t, eng, graph.AccessExported)
		call, req, _, root, snap := forgedWorld(t, opts)
		left, right := root.Left, root.Right

		srv := decodeArgs(t, opts, req, []setArg{{nil, false}, {nil, true}})
		if err := srv.Prepare(); err != nil {
			t.Fatal(err)
		}
		var resp bytes.Buffer
		enc := wire.NewEncoder(&resp, opts.wireOptions())
		for _, obj := range srv.dec.Objects() {
			if _, err := enc.SeedObject(obj); err != nil {
				t.Fatal(err)
			}
		}
		ids := setIDs(&srv.set)
		if err := enc.EncodeUint(uint64(len(ids))); err != nil {
			t.Fatal(err)
		}
		for pos, id := range ids {
			if err := enc.EncodeUint(uint64(pos)); err != nil {
				t.Fatal(err)
			}
			if err := enc.EncodeSeededContent(id); err != nil {
				t.Fatal(err)
			}
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
// restores every node costs one allocation per new node plus a constant —
// the staging temporaries of the restored nodes share a slab; no second
// staging value per record, no detached cell per seeded object, no per-call
// ID set.
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
	var res *Response
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
	budget := float64(res.NewObjects + 16)
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
	srv := decodeArgs(t, opts, req.Bytes(), []setArg{{nil, true}})
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
			dec := wire.AcquireDecoderBytes(resp.Bytes(), opts.wireOptions())
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
