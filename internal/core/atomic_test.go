package core

// Torn-restore prevention: whenever ApplyResponse returns an error, the
// caller's restorable graph must be deep-equal to its pre-call snapshot.
// The restore commit is two-phase (validate every pending update, then
// overwrite), so not even a reply that decodes cleanly but fails
// validation late in the update list may leave a half-restored graph.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"nrmi/internal/graph"
	"nrmi/internal/wire"
)

// atomicWorld builds one aliased tree and returns the encoded request's
// Call, the full valid response bytes for a structure-changing mutation,
// and the live root.
func atomicWorld(t *testing.T, opts Options) (*Call, []byte, *Tree) {
	t.Helper()
	root, _, _, _, _ := paperTree()
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
	paperFoo(sroot.(*Tree))
	var respBuf bytes.Buffer
	if _, err := srv.EncodeResponse(&respBuf, []any{42}); err != nil {
		t.Fatalf("encode response: %v", err)
	}
	return call, respBuf.Bytes(), root
}

func snapshotGraph(t *testing.T, root *Tree) *Tree {
	t.Helper()
	cp, err := graph.Copy(graph.AccessExported, root)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return cp.(*Tree)
}

func graphsEqual(t *testing.T, a, b *Tree) bool {
	t.Helper()
	eq, err := graph.Equal(graph.AccessExported, a, b)
	if err != nil {
		t.Fatalf("graph.Equal: %v", err)
	}
	return eq
}

// TestApplyResponseAtomicUnderTruncation feeds ApplyResponse every proper
// prefix of a valid response, in every codec configuration. Each one must
// fail, each failure must leave the argument graph bit-identical to its
// snapshot, and the arena a V3 decode acquires is released exactly once.
func TestApplyResponseAtomicUnderTruncation(t *testing.T) {
	for _, cfg := range codecConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			opts := cfg.apply(testOptions(t))
			_, full, _ := atomicWorld(t, opts)
			for cut := 0; cut < len(full); cut++ {
				call, resp, root := atomicWorld(t, opts)
				if !bytes.Equal(resp, full) {
					t.Fatal("response encoding is not deterministic; sweep invalid")
				}
				snap := snapshotGraph(t, root)
				acq0, rel0 := wire.ArenaCounters()
				carved0, zeroed0, dropped0 := wire.StagingCounters()
				_, err := call.ApplyResponseBytes(resp[:cut])
				acq1, rel1 := wire.ArenaCounters()
				carved1, zeroed1, dropped1 := wire.StagingCounters()
				if err == nil {
					t.Fatalf("truncation at %d/%d bytes: ApplyResponse succeeded", cut, len(full))
				}
				if zeroed1 != zeroed0 || carved1-carved0 != dropped1-dropped0 {
					t.Fatalf("truncation at %d/%d bytes: staging slabs %+d carved, %+d zeroed, %+d dropped; a failed apply recycles none",
						cut, len(full), carved1-carved0, zeroed1-zeroed0, dropped1-dropped0)
				}
				if !graphsEqual(t, root, snap) {
					t.Fatalf("truncation at %d/%d bytes: failed ApplyResponse mutated the graph (err was %v)",
						cut, len(full), err)
				}
				if acq1-acq0 != rel1-rel0 {
					t.Fatalf("truncation at %d/%d bytes: arena imbalance +%d/+%d (err was %v)",
						cut, len(full), acq1-acq0, rel1-rel0, err)
				}
			}
		})
	}
}

// TestFailedApplyRecyclesNoSlab: a reply whose records all stage and whose
// return value is cut short fails with the caller's graph bit-identical and
// recycles neither its decoder nor the staging slab its temporaries came
// from: the slab is dropped with them, not zeroed for the next reply, as
// ReleaseDecoder would. The same reply whole zeroes its slab.
func TestFailedApplyRecyclesNoSlab(t *testing.T) {
	for _, cfg := range codecConfigs {
		opts := cfg.apply(testOptions(t))
		call, resp, root := atomicWorld(t, opts)
		snap := snapshotGraph(t, root)
		carved0, zeroed0, dropped0 := wire.StagingCounters()
		if _, err := call.ApplyResponseBytes(resp[:len(resp)-1]); err == nil {
			t.Fatalf("%s: a reply cut inside its return value applied", cfg.name)
		}
		carved1, zeroed1, dropped1 := wire.StagingCounters()
		if !graphsEqual(t, root, snap) {
			t.Fatalf("%s: the failed apply mutated the graph", cfg.name)
		}
		if carved1-carved0 != 1 || zeroed1 != zeroed0 || dropped1-dropped0 != 1 {
			t.Fatalf("%s: failed apply: %+d slabs carved, %+d zeroed, %+d dropped; want one carved and dropped",
				cfg.name, carved1-carved0, zeroed1-zeroed0, dropped1-dropped0)
		}
		if _, err := call.ApplyResponseBytes(resp); err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		if carved2, zeroed2, dropped2 := wire.StagingCounters(); carved2-carved1 != 1 || zeroed2-zeroed1 != 1 || dropped2 != dropped1 {
			t.Fatalf("%s: apply: %+d slabs carved, %+d zeroed, %+d dropped; want one carved and zeroed",
				cfg.name, carved2-carved1, zeroed2-zeroed1, dropped2-dropped1)
		}
		call.Release()
	}
}

// TestApplyResponseAtomicUnderBitFlips is the seeded corruption property, in
// every codec configuration: flip one bit of the response at a time;
// whenever ApplyResponse reports an error, the graph must equal its
// snapshot. (A flip that still decodes cleanly is garbage-in-garbage-out —
// the protocol has no checksums — so successful applies are only required
// not to crash.) Either way the arena balance holds.
func TestApplyResponseAtomicUnderBitFlips(t *testing.T) {
	const seed = 20260805
	const trials = 400
	for _, cfg := range codecConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			opts := cfg.apply(testOptions(t))
			rng := rand.New(rand.NewSource(seed))
			for trial := 0; trial < trials; trial++ {
				call, resp, root := atomicWorld(t, opts)
				pos := rng.Intn(len(resp))
				bit := byte(1) << rng.Intn(8)
				corrupt := append([]byte(nil), resp...)
				corrupt[pos] ^= bit
				snap := snapshotGraph(t, root)
				acq0, rel0 := wire.ArenaCounters()
				_, err := call.ApplyResponseBytes(corrupt)
				acq1, rel1 := wire.ArenaCounters()
				if err != nil && !graphsEqual(t, root, snap) {
					t.Fatalf("seed %d trial %d (byte %d bit %#02x): failed ApplyResponse mutated the graph (err was %v)",
						seed, trial, pos, bit, err)
				}
				if acq1-acq0 != rel1-rel0 {
					t.Fatalf("seed %d trial %d: arena imbalance +%d/+%d (err was %v)",
						seed, trial, acq1-acq0, rel1-rel0, err)
				}
			}
		})
	}
}

// TestV3ApplyResponseBytes drives the V3 reply path end to end: the
// response is applied from a byte slice, records staged and committed into
// the retained linear map, new objects built in the reply decoder's arena,
// which is released exactly once.
func TestV3ApplyResponseBytes(t *testing.T) {
	opts := testOptions(t)
	opts.Engine = wire.EngineV3
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

// TestV3ServerSideRelease: the server-side decoder of a V3 request builds
// the arguments in its arena and balances it when the ServerCall is released.
func TestV3ServerSideRelease(t *testing.T) {
	opts := testOptions(t)
	opts.Engine = wire.EngineV3
	root, _, _, _, _ := paperTree()
	var req bytes.Buffer
	call := NewCall(&req, opts)
	if err := call.EncodeRestorable(root); err != nil {
		t.Fatal(err)
	}
	if err := call.Finish(); err != nil {
		t.Fatal(err)
	}

	acq0, rel0 := wire.ArenaCounters()
	srv := AcceptCallBytes(req.Bytes(), opts)
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
	if acq1-acq0 != 1 || rel1-rel0 != 1 {
		t.Fatalf("server arenas: +%d acquires, +%d releases; want one of each", acq1-acq0, rel1-rel0)
	}
}

// TestValidateRestoreRejects pins the validation phase directly: every
// malformed (orig, tmp) pair validateRestore must refuse, plus the
// guarantee that validation does not touch orig.
func TestValidateRestoreRejects(t *testing.T) {
	cases := []struct {
		name      string
		orig, tmp reflect.Value
	}{
		{"type mismatch", reflect.ValueOf(&Tree{}), reflect.ValueOf(new(int))},
		{"slice length changed", reflect.ValueOf([]int{1, 2, 3}), reflect.ValueOf([]int{1})},
		{"non-reference kind", reflect.ValueOf(7), reflect.ValueOf(7)},
	}
	for _, tc := range cases {
		if err := validateRestore(tc.orig, tc.tmp); err == nil {
			t.Errorf("%s: validateRestore accepted", tc.name)
		}
	}
	orig := &Tree{Data: 1}
	if err := validateRestore(reflect.ValueOf(orig), reflect.ValueOf(&Tree{Data: 9})); err != nil {
		t.Fatalf("valid pair rejected: %v", err)
	}
	if orig.Data != 1 {
		t.Fatal("validateRestore mutated orig")
	}
}

// TestTwoPhaseCommitOrdering simulates ApplyResponse's commit loop with a
// poisoned final pair: validation must fail before the first overwrite, so
// earlier (valid) pairs stay untouched.
func TestTwoPhaseCommitOrdering(t *testing.T) {
	a := &Tree{Data: 1}
	b := []int{1, 2, 3}
	updates := []struct{ orig, tmp reflect.Value }{
		{reflect.ValueOf(a), reflect.ValueOf(&Tree{Data: 100})},
		{reflect.ValueOf(b), reflect.ValueOf([]int{9})}, // invalid: length change
	}
	var err error
	for _, u := range updates {
		if err = validateRestore(u.orig, u.tmp); err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("poisoned update list validated")
	}
	if a.Data != 1 || fmt.Sprint(b) != "[1 2 3]" {
		t.Fatalf("validation phase mutated originals: %v %v", a, b)
	}
}
