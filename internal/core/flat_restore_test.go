package core

// Engine-V3 restore semantics: the flat format's restore must be
// observationally identical to V2's — same post-call graphs — while the
// per-call arena is released exactly once on every path. The torn-restore
// sweeps (atomic_test.go) run in every codec configuration, V3 included.

import (
	"bytes"
	"testing"

	"nrmi/internal/graph"
	"nrmi/internal/wire"
)

func v3Options(t *testing.T) Options {
	t.Helper()
	opts := testOptions(t)
	opts.Engine = wire.EngineV3
	return opts
}

// TestV3RestoreDifferentialV2 runs the paper's mutation under V2 and V3
// against two identical worlds and demands graph-equal outcomes — the
// byte-level restore path is a representation change, not a semantic one.
func TestV3RestoreDifferentialV2(t *testing.T) {
	run := func(eng wire.Engine) *Tree {
		opts := testOptions(t)
		opts.Engine = eng
		root, _, _, _, _ := paperTree()
		runRemote(t, opts, func(tree *Tree) []any {
			paperFoo(tree)
			return nil
		}, root)
		return root
	}
	v2 := run(wire.EngineV2)
	v3 := run(wire.EngineV3)
	eq, err := graph.Equal(graph.AccessExported, v3, v2)
	if err != nil || !eq {
		t.Fatalf("V3 post-restore graph differs from V2: eq=%v err=%v", eq, err)
	}
}

// TestV3ApplyResponseBytes drives the V3 reply path end to end: the
// response is applied from a byte slice, records staged and committed into
// the retained linear map, new objects arena-built.
func TestV3ApplyResponseBytes(t *testing.T) {
	opts := v3Options(t)
	call, resp, root := atomicWorld(t, opts)
	a1, a2 := root.Left, root.Right
	rl, rr := root.Right.Left, root.Right.Right

	acq0, rel0 := wire.ArenaCounters()
	r, err := call.ApplyResponseBytes(resp)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	acq1, rel1 := wire.ArenaCounters()

	assertFigure2(t, root, a1, a2, rl, rr)
	if len(r.Returns) != 1 || r.Returns[0] != 42 {
		t.Fatalf("returns = %v", r.Returns)
	}
	if acq1-acq0 != rel1-rel0 {
		t.Fatalf("arena imbalance on success: +%d acquires vs +%d releases", acq1-acq0, rel1-rel0)
	}
	if acq1 == acq0 {
		t.Fatal("V3 apply must have used the arena")
	}
}

// TestV3ServerSideRelease: the server-side decoder of a V3 request must
// balance its arena when the ServerCall is released, pooled or not.
func TestV3ServerSideRelease(t *testing.T) {
	opts := v3Options(t)
	root, _, _, _, _ := paperTree()
	var req bytes.Buffer
	call := NewCall(&req, opts)
	if err := call.EncodeRestorable(root); err != nil {
		t.Fatal(err)
	}
	if err := call.Finish(); err != nil {
		t.Fatal(err)
	}
	payload := req.Bytes()

	acq0, rel0 := wire.ArenaCounters()
	srv := AcceptCallBytes(payload, opts)
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
	srv.Release()
	acq1, rel1 := wire.ArenaCounters()
	if acq1-acq0 != rel1-rel0 {
		t.Fatalf("server arena imbalance: +%d acquires vs +%d releases", acq1-acq0, rel1-rel0)
	}
}
