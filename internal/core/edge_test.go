package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"nrmi/internal/graph"
	"nrmi/internal/model"
	"nrmi/internal/wire"
)

// These tests cover the edges of the restore protocol: container objects,
// interface fields, truncated and hostile responses, and combined policy
// options.

type carrier struct {
	Tag   string
	Table map[string]*Tree
	Items []*Tree
	Any   any
}

func carrierOptions(t *testing.T) Options {
	t.Helper()
	opts := testOptions(t)
	if err := opts.Registry.Register("carrier", carrier{}); err != nil {
		t.Fatal(err)
	}
	return opts
}

// runRemoteCarrier mirrors runRemote for carrier roots.
func runRemoteCarrier(t *testing.T, opts Options, mutate func(c *carrier), root *carrier) Response {
	t.Helper()
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
	mutate(sroot.(*carrier))
	var respBuf bytes.Buffer
	if _, err := srv.EncodeResponse(&respBuf, nil); err != nil {
		t.Fatal(err)
	}
	resp, err := call.ApplyResponseBytes(respBuf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestRestoreThroughMapAndSliceContainers(t *testing.T) {
	opts := carrierOptions(t)
	shared := &Tree{Data: 1}
	root := &carrier{
		Tag:   "before",
		Table: map[string]*Tree{"a": shared},
		Items: []*Tree{shared, {Data: 2}},
		Any:   shared,
	}
	aliasItems := root.Items

	runRemoteCarrier(t, opts, func(c *carrier) {
		c.Tag = "after"
		c.Table["a"].Data = 100       // mutate the shared node
		c.Table["b"] = &Tree{Data: 3} // add an entry
		c.Items[1].Data = 200
	}, root)

	if root.Tag != "after" {
		t.Fatalf("Tag = %q", root.Tag)
	}
	if shared.Data != 100 {
		t.Fatalf("shared.Data = %d", shared.Data)
	}
	if root.Table["b"] == nil || root.Table["b"].Data != 3 {
		t.Fatalf("new map entry missing: %v", root.Table)
	}
	if aliasItems[1].Data != 200 {
		t.Fatal("slice alias must observe element mutation")
	}
	// The interface field still points at the SAME original object.
	if root.Any.(*Tree) != shared {
		t.Fatal("interface field identity lost")
	}
	// Map identity preserved: the header the alias shares was refilled.
	if len(root.Table) != 2 {
		t.Fatalf("map size = %d", len(root.Table))
	}
}

func TestRestoreInterfaceFieldRetarget(t *testing.T) {
	opts := carrierOptions(t)
	root := &carrier{Any: &Tree{Data: 1}}
	runRemoteCarrier(t, opts, func(c *carrier) {
		c.Any = "now a string"
	}, root)
	if root.Any != "now a string" {
		t.Fatalf("Any = %v", root.Any)
	}
	// And back to nil.
	runRemoteCarrier(t, opts, func(c *carrier) {
		c.Any = nil
	}, root)
	if root.Any != nil {
		t.Fatalf("Any = %v, want nil", root.Any)
	}
}

func TestApplyResponseTruncated(t *testing.T) {
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
	if _, err := srv.EncodeResponse(&respBuf, nil); err != nil {
		t.Fatal(err)
	}
	full := respBuf.Bytes()
	for _, cut := range []int{1, len(full) / 4, len(full) / 2, len(full) - 1} {
		if _, err := call.ApplyResponseBytes(full[:cut]); err == nil {
			t.Fatalf("truncation at %d must fail", cut)
		}
	}
	// The full response still applies cleanly afterwards (truncated
	// attempts must not corrupt the originals irreversibly for this
	// read-only-failure case... decoding errors abort before restore).
	if _, err := call.ApplyResponseBytes(full); err != nil {
		t.Fatal(err)
	}
}

func TestApplyResponseHostileCounts(t *testing.T) {
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
	// Hand-craft a response claiming more content records than objects.
	var respBuf bytes.Buffer
	enc := wire.NewEncoder(&respBuf, opts)
	if err := enc.EncodeUint(99999); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	_, err := call.ApplyResponseBytes(respBuf.Bytes())
	if err == nil || !strings.Contains(err.Error(), "content records") {
		t.Fatalf("hostile count must fail cleanly: %v", err)
	}
}

func TestEncodeAfterFinishRejected(t *testing.T) {
	opts := testOptions(t)
	var req bytes.Buffer
	call := NewCall(&req, opts)
	if err := call.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := call.EncodeCopy(1); err == nil {
		t.Fatal("EncodeCopy after Finish must fail")
	}
	if err := call.EncodeRestorable(&Tree{}); err == nil {
		t.Fatal("EncodeRestorable after Finish must fail")
	}
}

type failWriter struct{ err error }

func (f failWriter) Write([]byte) (int, error) { return 0, f.err }

// TestWriteFailure: a message is encoded in memory, so the destination's
// error comes back from Finish and EncodeResponse, the one Write each.
func TestWriteFailure(t *testing.T) {
	opts := testOptions(t)
	boom := errors.New("boom")
	root, _, _, _, _ := paperTree()
	call := NewCall(failWriter{boom}, opts)
	defer call.Release()
	if err := call.EncodeRestorable(root); err != nil {
		t.Fatalf("encode onto a failing writer: %v", err)
	}
	if err := call.Finish(); !errors.Is(err, boom) {
		t.Fatalf("Finish: %v, want %v", err, boom)
	}
	srv := AcceptCallBytes(call.Message(), opts)
	defer srv.Release()
	if _, err := srv.DecodeRestorable(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Prepare(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.EncodeResponse(failWriter{boom}, []any{1}); !errors.Is(err, boom) {
		t.Fatalf("EncodeResponse: %v, want %v", err, boom)
	}
}

func TestRestorableNamedMapRoot(t *testing.T) {
	// A named map type can itself be the restorable root (the paper's
	// RestorableHashMap pattern).
	opts := testOptions(t)
	if err := opts.Registry.Register("treeIndex", map[string]*Tree{}); err != nil {
		t.Fatal(err)
	}
	m := map[string]*Tree{"root": {Data: 1}}
	var req bytes.Buffer
	call := NewCall(&req, opts)
	if err := call.EncodeRestorable(m); err != nil {
		t.Fatal(err)
	}
	if err := call.Finish(); err != nil {
		t.Fatal(err)
	}
	srv := AcceptCallBytes(req.Bytes(), opts)
	defer srv.Release()
	sm, err := srv.DecodeRestorable()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Prepare(); err != nil {
		t.Fatal(err)
	}
	srvMap := sm.(map[string]*Tree)
	srvMap["root"].Data = 7
	srvMap["extra"] = &Tree{Data: 9}
	var respBuf bytes.Buffer
	if _, err := srv.EncodeResponse(&respBuf, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := call.ApplyResponseBytes(respBuf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if m["root"].Data != 7 || m["extra"] == nil || m["extra"].Data != 9 {
		t.Fatalf("map root restore failed: %v", m)
	}
}

func TestBytesAccounting(t *testing.T) {
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
	if call.BytesSent() != int64(req.Len()) || !bytes.Equal(call.Message(), req.Bytes()) {
		t.Fatalf("BytesSent = %d, Message %d bytes, buffer = %d", call.BytesSent(), len(call.Message()), req.Len())
	}
	if len(call.Objects()) != 5 {
		t.Fatalf("linear map size = %d", len(call.Objects()))
	}
	srv := AcceptCallBytes(req.Bytes(), opts)
	defer srv.Release()
	if _, err := srv.DecodeRestorable(); err != nil {
		t.Fatal(err)
	}
	if srv.BytesReceived() == 0 {
		t.Fatal("server byte accounting missing")
	}
	if srv.Engine() != wire.EngineV2 {
		t.Fatalf("engine = %v", srv.Engine())
	}
	if srv.Access() != graph.AccessExported {
		t.Fatalf("access = %v", srv.Access())
	}
}

func TestDeltaFallsBackOnUndiffableObjects(t *testing.T) {
	// A map has no shadow (pointer-keyed ones could not be diffed by value
	// anyway): its record ships whatever the method did.
	opts := testOptions(t)
	if err := opts.Registry.Register("ptrIndex", map[*Tree]int{}); err != nil {
		t.Fatal(err)
	}
	k := &Tree{Data: 1}
	m := map[*Tree]int{k: 10}

	var req bytes.Buffer
	call := NewCall(&req, opts)
	if err := call.EncodeRestorable(m); err != nil {
		t.Fatal(err)
	}
	if err := call.Finish(); err != nil {
		t.Fatal(err)
	}
	srv := AcceptCallBytes(req.Bytes(), opts)
	defer srv.Release()
	sm, err := srv.DecodeRestorable()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Prepare(); err != nil {
		t.Fatal(err)
	}
	for sk := range sm.(map[*Tree]int) {
		sm.(map[*Tree]int)[sk] = 99
	}
	var respBuf bytes.Buffer
	if stats, err := srv.EncodeResponse(&respBuf, nil); err != nil || stats.OldSent != 1 {
		t.Fatalf("a pointer-keyed map must ship: %+v, %v", stats, err)
	}
	if _, err := call.ApplyResponseBytes(respBuf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if m[k] != 99 {
		t.Fatalf("restore lost: %v", m)
	}
}

func TestSameObjectAsCopyAndRestorableArg(t *testing.T) {
	// One object passed under BOTH semantics in one call: the stream
	// carries it once (shared table), the server sees one object through
	// both parameters, and restore wins.
	opts := testOptions(t)
	x := &Tree{Data: 1}

	var req bytes.Buffer
	call := NewCall(&req, opts)
	if err := call.EncodeRestorable(x); err != nil {
		t.Fatal(err)
	}
	if err := call.EncodeCopy(x); err != nil {
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
	if sc.(*Tree) != sr.(*Tree) {
		t.Fatal("one stream, one object: both params must alias")
	}
	if err := srv.Prepare(); err != nil {
		t.Fatal(err)
	}
	sr.(*Tree).Data = 42
	var respBuf bytes.Buffer
	if _, err := srv.EncodeResponse(&respBuf, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := call.ApplyResponseBytes(respBuf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if x.Data != 42 {
		t.Fatalf("restorable semantics must win: %d", x.Data)
	}
}

// hostileReplyWorld encodes a carrier whose restore set holds objects of four
// types — 0 the *carrier, 1 its map, 2 and 4 two *Tree, 3 its slice — and
// returns the waiting call, the root, a snapshot of it, and the reply of a
// server that hung a new Tree into the interface field.
func hostileReplyWorld(t *testing.T, opts Options) (call *Call, root, snap *carrier, reply []byte) {
	t.Helper()
	t1 := &Tree{Data: 1}
	root = &carrier{Tag: "c", Table: map[string]*Tree{"a": t1}, Items: []*Tree{t1, {Data: 2}}}
	cp, err := graph.Copy(graph.AccessExported, root)
	if err != nil {
		t.Fatal(err)
	}
	var req, resp bytes.Buffer
	call = NewCall(&req, opts)
	if err := call.EncodeRestorable(root); err != nil {
		t.Fatal(err)
	}
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
	sroot.(*carrier).Any = &Tree{Data: 9}
	if _, err := srv.EncodeResponse(&resp, nil); err != nil {
		t.Fatal(err)
	}
	srv.Release()
	return call, root, cp.(*carrier), resp.Bytes()
}

// TestHostileBareSlotReplies: what a reply can put where a bare slot is read
// by the caller's own static type (wire's TestHostileBareSlots has the same
// table against a decoder). Each is a typed error out of ApplyResponseBytes
// with the caller's graph as it was.
func TestHostileBareSlotReplies(t *testing.T) {
	opts := carrierOptions(t)
	_, _, _, valid := hostileReplyWorld(t, opts)
	// One record, for restore-set index 2 (a *Tree: Data, Left, Right), and
	// no return values.
	record := func(body ...byte) []byte {
		return append(append([]byte{0x4E, 4, 0, 1, 2, 0x50}, body...), 0)
	}
	flipped := bytes.Clone(valid)
	flipped[bytes.Index(valid, []byte("Tree"))+len("Tree")] ^= 0x10
	parent := bytes.Clone(valid)
	parent[1] = 2

	type hostile struct {
		name  string
		reply []byte
		is    error
	}
	cases := []hostile{
		{"a MAP tag in a pointer slot", record(2, 3, 0, 0), wire.ErrBadStream},
		{"a described value in a bare slot", record(7, 0xCF, 2, 2, 0, 0), wire.ErrBadStream},
		{"REF to an object of another type", record(2, 1, 1, 0), wire.ErrBadStream},
		{"REF to an object of another type, in the slice", []byte{0x4E, 4, 0, 1, 3, 0x52, 2, 1, 0, 0, 0}, wire.ErrBadStream},
		{"fingerprint off by one bit", flipped, wire.ErrLayout},
		{"a parent-format reply", parent, wire.ErrBadStream},
		{"a count of return values no reply could carry", binary.AppendUvarint([]byte{0x4E, 4, 0, 0}, math.MaxUint64), io.ErrUnexpectedEOF},
	}
	for cut := 0; cut < len(valid); cut++ {
		cases = append(cases, hostile{fmt.Sprintf("truncation at %d of %d", cut, len(valid)), valid[:cut], io.ErrUnexpectedEOF})
	}
	for _, portable := range []bool{false, true} {
		opts.DisablePlanCache = portable
		for _, tc := range cases {
			call, root, snap, _ := hostileReplyWorld(t, opts)
			if _, err := call.ApplyResponseBytes(tc.reply); !errors.Is(err, tc.is) {
				t.Errorf("%s (portable=%t): %v, want %v", tc.name, portable, err, tc.is)
			}
			if eq, err := model.Equal(graph.AccessExported, root, snap); err != nil || !eq {
				t.Errorf("%s (portable=%t): the refused reply changed the caller's graph (%v)", tc.name, portable, err)
			}
			call.Release()
		}
		call, root, _, _ := hostileReplyWorld(t, opts)
		if _, err := call.ApplyResponseBytes(valid); err != nil || root.Any.(*Tree).Data != 9 {
			t.Errorf("the valid reply (portable=%t): %v, Any = %v", portable, err, root.Any)
		}
		if _, err := call.ApplyResponseBytes(record(2, 0, 0)); err != nil || root.Items[0].Data != 1 {
			t.Errorf("a well-formed hand-spelled record (portable=%t): %v", portable, err)
		}
		call.Release()
	}
}
