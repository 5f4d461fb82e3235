package core

import (
	"bytes"
	"reflect"
	"testing"

	"nrmi/internal/bufpool"
	"nrmi/internal/graph"
	"nrmi/internal/wire"
)

// Tree is the paper's running-example type (Section 2).
type Tree struct {
	Data        int
	Left, Right *Tree
}

func testOptions(t *testing.T) Options {
	t.Helper()
	reg := wire.NewRegistry()
	for name, sample := range map[string]any{
		"Tree": Tree{},
	} {
		if err := reg.Register(name, sample); err != nil {
			t.Fatal(err)
		}
	}
	return Options{Registry: reg}
}

// runRemote simulates a full restorable call through in-memory buffers:
// encode request, decode on "server", run mutate, encode response, apply on
// "client". Returns the client-visible response and what the server shipped.
func runRemote(t *testing.T, opts Options, mutate func(root *Tree) []any, root *Tree) (Response, ResponseStats) {
	t.Helper()
	var req bytes.Buffer
	call := NewCall(&req, opts)
	if err := call.EncodeRestorable(root); err != nil {
		t.Fatalf("encode restorable: %v", err)
	}
	if err := call.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}

	srv := AcceptCallBytes(req.Bytes(), opts)
	defer srv.Release()
	sroot, err := srv.DecodeRestorable()
	if err != nil {
		t.Fatalf("server decode: %v", err)
	}
	if err := srv.Prepare(); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	var rets []any
	if sroot != nil {
		rets = mutate(sroot.(*Tree))
	} else {
		rets = mutate(nil)
	}
	// As rmi encodes a reply: no writer, the message left to stats.Reply.
	stats, err := srv.EncodeResponse(nil, rets)
	if err != nil {
		t.Fatalf("encode response: %v", err)
	}
	if int64(len(stats.Reply)) != stats.BytesSent {
		t.Fatalf("reply of %d bytes, %d sent", len(stats.Reply), stats.BytesSent)
	}
	resp, err := call.ApplyResponseBytes(stats.Reply)
	if err != nil {
		t.Fatalf("apply response: %v", err)
	}
	bufpool.Put(stats.Reply)
	return resp, stats
}

// paperTree builds the Figure 1 structure: t, with alias1 -> t.Left and
// alias2 -> t.Right.
func paperTree() (root, alias1, alias2, rl, rr *Tree) {
	rl = &Tree{Data: 3}
	rr = &Tree{Data: 4}
	l := &Tree{Data: 1}
	r := &Tree{Data: 7, Left: rl, Right: rr}
	root = &Tree{Data: 5, Left: l, Right: r}
	return root, l, r, rl, rr
}

// paperFoo is the paper's function foo (Section 2), verbatim.
func paperFoo(tree *Tree) {
	tree.Left.Data = 0
	tree.Right.Data = 9
	tree.Right.Right.Data = 8
	tree.Left = nil
	temp := &Tree{Data: 2, Left: tree.Right.Right}
	tree.Right.Right = nil
	tree.Right = temp
}

// assertFigure2 checks the post-call state of Figure 2 / Figure 8: the
// exact result a local call produces, which NRMI must reproduce remotely.
func assertFigure2(t *testing.T, root, alias1, alias2, rl, rr *Tree) {
	t.Helper()
	if alias1.Data != 0 {
		t.Errorf("alias1.Data = %d, want 0 (update to unlinked node must be visible)", alias1.Data)
	}
	if alias2.Data != 9 {
		t.Errorf("alias2.Data = %d, want 9", alias2.Data)
	}
	if alias2.Right != nil {
		t.Errorf("alias2.Right = %v, want nil (unlink must be restored)", alias2.Right)
	}
	if alias2.Left != rl {
		t.Errorf("alias2.Left must still be the original left child object")
	}
	if rl.Data != 3 {
		t.Errorf("rl.Data = %d, want 3 (untouched)", rl.Data)
	}
	if root.Left != nil {
		t.Errorf("root.Left = %v, want nil", root.Left)
	}
	if root.Right == nil || root.Right.Data != 2 {
		t.Fatalf("root.Right must be the new node with Data 2, got %+v", root.Right)
	}
	if root.Right == alias2 {
		t.Error("root.Right must be a NEW node, not the old right child")
	}
	if root.Right.Left != rr {
		t.Error("new node must point to the ORIGINAL rr object (identity preserved)")
	}
	if rr.Data != 8 {
		t.Errorf("rr.Data = %d, want 8", rr.Data)
	}
	if root.Right.Right != nil {
		t.Errorf("new node's Right must be nil")
	}
}

func TestLocalCallBaselineFigure2(t *testing.T) {
	// Sanity: a local call produces Figure 2 by construction.
	root, a1, a2, rl, rr := paperTree()
	paperFoo(root)
	assertFigure2(t, root, a1, a2, rl, rr)
}

func TestCopyRestoreReproducesFigure2(t *testing.T) {
	for _, eng := range []wire.Engine{wire.EngineV1, wire.EngineV2, wire.EngineV3} {
		t.Run(eng.String(), func(t *testing.T) {
			opts := testOptions(t)
			opts.Engine = eng
			root, a1, a2, rl, rr := paperTree()
			resp, stats := runRemote(t, opts, func(tree *Tree) []any {
				paperFoo(tree)
				return nil
			}, root)
			assertFigure2(t, root, a1, a2, rl, rr)
			if stats.OldTotal != 5 || resp.Restored != 4 {
				t.Errorf("restored %d of %d, want 4 of 5 (every pre-call object but the untouched rl)", resp.Restored, stats.OldTotal)
			}
			if resp.NewObjects != 1 {
				t.Errorf("new objects = %d, want 1 (temp)", resp.NewObjects)
			}
		})
	}
}

func TestReturnValueAliasesRestoredParameter(t *testing.T) {
	opts := testOptions(t)
	root, _, a2, _, _ := paperTree()
	resp, _ := runRemote(t, opts, func(tree *Tree) []any {
		tree.Right.Data = 99
		return []any{tree.Right} // return an old object
	}, root)
	if len(resp.Returns) != 1 {
		t.Fatalf("want 1 return, got %d", len(resp.Returns))
	}
	got := resp.Returns[0].(*Tree)
	if got != a2 {
		t.Fatal("returned old object must resolve to the client's ORIGINAL object")
	}
	if a2.Data != 99 {
		t.Fatalf("a2.Data = %d, want 99", a2.Data)
	}
}

func TestReturnValueNewObjectPointsAtOriginals(t *testing.T) {
	opts := testOptions(t)
	root, _, a2, _, _ := paperTree()
	resp, _ := runRemote(t, opts, func(tree *Tree) []any {
		return []any{&Tree{Data: 123, Left: tree.Right}}
	}, root)
	got := resp.Returns[0].(*Tree)
	if got.Data != 123 {
		t.Fatalf("got.Data = %d", got.Data)
	}
	if got.Left != a2 {
		t.Fatal("new returned object must reference the client's original object")
	}
}

func TestScalarAndNilReturns(t *testing.T) {
	opts := testOptions(t)
	root, _, _, _, _ := paperTree()
	resp, _ := runRemote(t, opts, func(tree *Tree) []any {
		return []any{42, "done", nil, 2.5}
	}, root)
	want := []any{42, "done", nil, 2.5}
	if len(resp.Returns) != len(want) {
		t.Fatalf("returns = %v", resp.Returns)
	}
	for i := range want {
		if resp.Returns[i] != want[i] {
			t.Errorf("return %d = %v, want %v", i, resp.Returns[i], want[i])
		}
	}
}

func TestNoChangesStillRestoresFull(t *testing.T) {
	// An untouched graph is still the whole restore set, but no object of
	// it needs a content record: the caller's originals hold its state.
	opts := testOptions(t)
	root, a1, a2, rl, rr := paperTree()
	resp, stats := runRemote(t, opts, func(tree *Tree) []any { return nil }, root)
	if stats.OldTotal != 5 || resp.Restored != 0 {
		t.Fatalf("restored %d of %d, want 0 of 5", resp.Restored, stats.OldTotal)
	}
	// State must be unchanged.
	if root.Data != 5 || a1.Data != 1 || a2.Data != 7 || rl.Data != 3 || rr.Data != 4 {
		t.Fatal("no-op call must leave the world unchanged")
	}
	if root.Left != a1 || root.Right != a2 {
		t.Fatal("no-op call must preserve structure")
	}
}

func TestDeltaSkipsUnchangedObjects(t *testing.T) {
	opts := testOptions(t)
	root, a1, a2, _, _ := paperTree()
	var req bytes.Buffer
	call := NewCall(&req, opts)
	if err := call.EncodeRestorable(root); err != nil {
		t.Fatal(err)
	}
	if err := call.Finish(); err != nil {
		t.Fatal(err)
	}
	srv := AcceptCallBytes(req.Bytes(), opts)
	defer srv.Release()
	sroot, err := srv.DecodeRestorable()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Prepare(); err != nil {
		t.Fatal(err)
	}
	// Touch exactly one node's data.
	sroot.(*Tree).Left.Data = 77
	var respBuf bytes.Buffer
	stats, err := srv.EncodeResponse(&respBuf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.OldTotal != 5 {
		t.Fatalf("old total = %d, want 5", stats.OldTotal)
	}
	if stats.OldSent != 1 {
		t.Fatalf("the reply must ship only the changed object: sent %d", stats.OldSent)
	}
	resp, err := call.ApplyResponseBytes(respBuf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Restored != 1 {
		t.Fatalf("restored = %d, want 1", resp.Restored)
	}
	if a1.Data != 77 {
		t.Fatalf("a1.Data = %d, want 77", a1.Data)
	}
	if a2.Data != 7 || root.Data != 5 {
		t.Fatal("unchanged objects must remain untouched")
	}
}

func TestDeltaNoChangeShipsNothing(t *testing.T) {
	opts := testOptions(t)
	root, _, _, _, _ := paperTree()
	var req bytes.Buffer
	call := NewCall(&req, opts)
	if err := call.EncodeRestorable(root); err != nil {
		t.Fatal(err)
	}
	if err := call.Finish(); err != nil {
		t.Fatal(err)
	}
	srv := AcceptCallBytes(req.Bytes(), opts)
	defer srv.Release()
	if _, err := srv.DecodeRestorable(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Prepare(); err != nil {
		t.Fatal(err)
	}
	var respBuf bytes.Buffer
	stats, err := srv.EncodeResponse(&respBuf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.OldSent != 0 {
		t.Fatalf("a no-op call's reply must ship 0 records, got %d", stats.OldSent)
	}
	if _, err := call.ApplyResponseBytes(respBuf.Bytes()); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaEqualsFullSemantics(t *testing.T) {
	// Shipping only the changed objects is an encoding optimization: the
	// caller must end in Figure 2 whether the reply carries those or, as
	// from a server without change detection, every old object.
	opts := testOptions(t)
	for _, full := range []bool{false, true} {
		root, a1, a2, rl, rr := paperTree()
		call, req := encodeArgs(t, opts, []setArg{{root, true}})
		if err := call.Finish(); err != nil {
			t.Fatal(err)
		}
		srv, vals := decodeArgs(t, opts, req.Bytes(), []setArg{{nil, true}})
		prepareReply(t, srv, full)
		paperFoo(vals[0].(*Tree))
		var resp bytes.Buffer
		stats, err := srv.EncodeResponse(&resp, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := call.ApplyResponseBytes(resp.Bytes()); err != nil {
			t.Fatal(err)
		}
		if want := map[bool]int{false: 4, true: 5}[full]; stats.OldSent != want {
			t.Errorf("full=%t: %d records shipped, want %d", full, stats.OldSent, want)
		}
		assertFigure2(t, root, a1, a2, rl, rr)
		srv.Release()
		call.Release()
	}
}

func TestSharedStructureAcrossTwoRestorableArgs(t *testing.T) {
	// Passing two arguments that share structure must not duplicate the
	// shared object (paper, Section 4.1), and restores must see it once.
	opts := testOptions(t)
	shared := &Tree{Data: 10}
	arg1 := &Tree{Data: 1, Left: shared}
	arg2 := &Tree{Data: 2, Right: shared}

	var req bytes.Buffer
	call := NewCall(&req, opts)
	if err := call.EncodeRestorable(arg1); err != nil {
		t.Fatal(err)
	}
	if err := call.EncodeRestorable(arg2); err != nil {
		t.Fatal(err)
	}
	if err := call.Finish(); err != nil {
		t.Fatal(err)
	}
	srv := AcceptCallBytes(req.Bytes(), opts)
	defer srv.Release()
	s1, err := srv.DecodeRestorable()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := srv.DecodeRestorable()
	if err != nil {
		t.Fatal(err)
	}
	if s1.(*Tree).Left != s2.(*Tree).Right {
		t.Fatal("server must observe the sharing between the two parameters")
	}
	if err := srv.Prepare(); err != nil {
		t.Fatal(err)
	}
	s1.(*Tree).Left.Data = 100
	var respBuf bytes.Buffer
	stats, err := srv.EncodeResponse(&respBuf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.OldTotal != 3 {
		t.Fatalf("old total = %d, want 3 (shared object counted once)", stats.OldTotal)
	}
	if _, err := call.ApplyResponseBytes(respBuf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if shared.Data != 100 {
		t.Fatalf("shared.Data = %d, want 100", shared.Data)
	}
	if arg1.Left != shared || arg2.Right != shared {
		t.Fatal("sharing must survive the restore")
	}
}

func TestCopyArgumentNotRestored(t *testing.T) {
	opts := testOptions(t)
	copyArg := &Tree{Data: 1}
	restoreArg := &Tree{Data: 2}

	var req bytes.Buffer
	call := NewCall(&req, opts)
	if err := call.EncodeRestorable(restoreArg); err != nil {
		t.Fatal(err)
	}
	if err := call.EncodeCopy(copyArg); err != nil {
		t.Fatal(err)
	}
	if err := call.Finish(); err != nil {
		t.Fatal(err)
	}
	srv := AcceptCallBytes(req.Bytes(), opts)
	defer srv.Release()
	sr, err := srv.DecodeRestorable()
	if err != nil {
		t.Fatal(err)
	}
	sc, err := srv.DecodeCopy()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Prepare(); err != nil {
		t.Fatal(err)
	}
	sc.(*Tree).Data = 100 // mutation of a by-copy argument: lost
	sr.(*Tree).Data = 200 // mutation of a restorable argument: restored
	var respBuf bytes.Buffer
	stats, err := srv.EncodeResponse(&respBuf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.OldTotal != 1 {
		t.Fatalf("old total = %d, want 1 (only the restorable argument's object)", stats.OldTotal)
	}
	if _, err := call.ApplyResponseBytes(respBuf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if copyArg.Data != 1 {
		t.Fatalf("by-copy argument mutated on client: %d", copyArg.Data)
	}
	if restoreArg.Data != 200 {
		t.Fatalf("restorable argument not restored: %d", restoreArg.Data)
	}
}

func TestRestorableMapInPlace(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(m map[string]int)
		want   map[string]int
	}{
		{"delete-and-add", func(m map[string]int) { delete(m, "a"); m["c"] = 3 }, map[string]int{"b": 2, "c": 3}},
		// Nothing refills the deleted key: it is gone only if the commit
		// empties the original header first.
		{"delete-only", func(m map[string]int) { delete(m, "a") }, map[string]int{"b": 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, cfg := range codecConfigs {
				opts := cfg.apply(testOptions(t))
				m := map[string]int{"a": 1, "b": 2}
				aliasOfM := m // second reference to the same map header
				header := reflect.ValueOf(m).Pointer()

				var req bytes.Buffer
				call := NewCall(&req, opts)
				if err := call.EncodeRestorable(m); err != nil {
					t.Fatal(err)
				}
				if err := call.Finish(); err != nil {
					t.Fatal(err)
				}
				srv := AcceptCallBytes(req.Bytes(), opts)
				sm, err := srv.DecodeRestorable()
				if err != nil {
					t.Fatal(err)
				}
				if err := srv.Prepare(); err != nil {
					t.Fatal(err)
				}
				tc.mutate(sm.(map[string]int))
				var respBuf bytes.Buffer
				if _, err := srv.EncodeResponse(&respBuf, nil); err != nil {
					t.Fatal(err)
				}
				srv.Release()
				if _, err := call.ApplyResponseBytes(respBuf.Bytes()); err != nil {
					t.Fatal(err)
				}
				for name, alias := range map[string]map[string]int{"m": m, "aliasOfM": aliasOfM} {
					if !reflect.DeepEqual(alias, tc.want) {
						t.Fatalf("%s: %s after restore: %v, want %v", cfg.name, name, alias, tc.want)
					}
					if reflect.ValueOf(alias).Pointer() != header {
						t.Fatalf("%s: %s no longer names the original map header", cfg.name, name)
					}
				}
			}
		})
	}
}

func TestRestorableSliceInPlace(t *testing.T) {
	opts := testOptions(t)
	s := []int{1, 2, 3}
	aliasOfS := s

	var req bytes.Buffer
	call := NewCall(&req, opts)
	if err := call.EncodeRestorable(s); err != nil {
		t.Fatal(err)
	}
	if err := call.Finish(); err != nil {
		t.Fatal(err)
	}
	srv := AcceptCallBytes(req.Bytes(), opts)
	defer srv.Release()
	ss, err := srv.DecodeRestorable()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Prepare(); err != nil {
		t.Fatal(err)
	}
	ss.([]int)[1] = 20
	var respBuf bytes.Buffer
	if _, err := srv.EncodeResponse(&respBuf, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := call.ApplyResponseBytes(respBuf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if aliasOfS[1] != 20 {
		t.Fatalf("slice element update must be visible through aliases: %v", aliasOfS)
	}
}

func TestRestorableRejectsValueArguments(t *testing.T) {
	opts := testOptions(t)
	var req bytes.Buffer
	call := NewCall(&req, opts)
	if err := call.EncodeRestorable(42); err == nil {
		t.Fatal("restorable scalar must be rejected")
	}
	if err := call.EncodeRestorable(Tree{}); err == nil {
		t.Fatal("restorable non-pointer struct must be rejected")
	}
}

func TestNilRestorableArgument(t *testing.T) {
	opts := testOptions(t)
	var req bytes.Buffer
	call := NewCall(&req, opts)
	var nilTree *Tree
	if err := call.EncodeRestorable(nilTree); err != nil {
		t.Fatal(err)
	}
	if err := call.Finish(); err != nil {
		t.Fatal(err)
	}
	srv := AcceptCallBytes(req.Bytes(), opts)
	defer srv.Release()
	v, err := srv.DecodeRestorable()
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Fatalf("want nil, got %v", v)
	}
	if err := srv.Prepare(); err != nil {
		t.Fatal(err)
	}
	var respBuf bytes.Buffer
	stats, err := srv.EncodeResponse(&respBuf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.OldTotal != 0 {
		t.Fatalf("nil argument has no objects: %d", stats.OldTotal)
	}
	if _, err := call.ApplyResponseBytes(respBuf.Bytes()); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeResponseRequiresPrepare(t *testing.T) {
	opts := testOptions(t)
	var req bytes.Buffer
	call := NewCall(&req, opts)
	if err := call.EncodeRestorable(&Tree{}); err != nil {
		t.Fatal(err)
	}
	if err := call.Finish(); err != nil {
		t.Fatal(err)
	}
	srv := AcceptCallBytes(req.Bytes(), opts)
	defer srv.Release()
	if _, err := srv.DecodeRestorable(); err != nil {
		t.Fatal(err)
	}
	var respBuf bytes.Buffer
	if _, err := srv.EncodeResponse(&respBuf, nil); err != ErrNotPrepared {
		t.Fatalf("want ErrNotPrepared, got %v", err)
	}
}

func TestCycleThroughRestore(t *testing.T) {
	// Server builds a cycle involving an old object; restore must
	// reproduce it against the original.
	opts := testOptions(t)
	root := &Tree{Data: 1, Left: &Tree{Data: 2}}
	left := root.Left
	runRemote(t, opts, func(tree *Tree) []any {
		tree.Left.Left = tree // cycle: left -> root
		return nil
	}, root)
	if left.Left != root {
		t.Fatal("server-created cycle must be restored using original identities")
	}
	if root.Left != left {
		t.Fatal("original structure must be otherwise intact")
	}
}

func TestUnsafeAccessThroughRestore(t *testing.T) {
	type hiddenTree struct {
		Data int
		next *hiddenTree
	}
	reg := wire.NewRegistry()
	if err := reg.Register("hiddenTree", hiddenTree{}); err != nil {
		t.Fatal(err)
	}
	opts := Options{Registry: reg, Access: graph.AccessUnsafe}

	second := &hiddenTree{Data: 2}
	root := &hiddenTree{Data: 1, next: second}

	var req bytes.Buffer
	call := NewCall(&req, opts)
	if err := call.EncodeRestorable(root); err != nil {
		t.Fatal(err)
	}
	if err := call.Finish(); err != nil {
		t.Fatal(err)
	}
	srv := AcceptCallBytes(req.Bytes(), opts)
	defer srv.Release()
	sroot, err := srv.DecodeRestorable()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Prepare(); err != nil {
		t.Fatal(err)
	}
	sroot.(*hiddenTree).next.Data = 99
	var respBuf bytes.Buffer
	if _, err := srv.EncodeResponse(&respBuf, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := call.ApplyResponseBytes(respBuf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if second.Data != 99 {
		t.Fatalf("unexported-field graph not restored: %d", second.Data)
	}
}

// TestReplyTakesRequestModes: the reply is encoded in the access mode and
// engine the request's header names, even when the request carries no
// argument, so an AccessUnsafe client gets back a return value whose
// unexported field a server configured for exported fields only would
// refuse.
func TestReplyTakesRequestModes(t *testing.T) {
	type hidden struct {
		Data   int
		secret int
	}
	reg := wire.NewRegistry()
	if err := reg.Register("hidden", hidden{}); err != nil {
		t.Fatal(err)
	}
	var req bytes.Buffer
	call := NewCall(&req, Options{Registry: reg, Access: graph.AccessUnsafe, Engine: wire.EngineV1})
	defer call.Release()
	if err := call.EncodeUint(7); err != nil {
		t.Fatal(err)
	}
	if err := call.Finish(); err != nil {
		t.Fatal(err)
	}
	srv := AcceptCallBytes(req.Bytes(), Options{Registry: reg})
	defer srv.Release()
	if n, err := srv.DecodeUint(); err != nil || n != 7 {
		t.Fatalf("DecodeUint = %d, %v", n, err)
	}
	if err := srv.Prepare(); err != nil {
		t.Fatal(err)
	}
	var resp bytes.Buffer
	if _, err := srv.EncodeResponse(&resp, []any{hidden{Data: 1, secret: 2}}); err != nil {
		t.Fatal(err)
	}
	if hdr := resp.Bytes()[:3]; hdr[1] != byte(wire.EngineV1) || hdr[2] != byte(graph.AccessUnsafe) {
		t.Fatalf("reply header % x, want engine %d and access %d", hdr, wire.EngineV1, graph.AccessUnsafe)
	}
	got, err := call.ApplyResponseBytes(resp.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if h := got.Returns[0].(hidden); h != (hidden{Data: 1, secret: 2}) {
		t.Fatalf("returned %+v", h)
	}
}
