package core

import (
	"bytes"
	"math"
	"runtime"
	"testing"
	"time"

	"nrmi/internal/graph"
)

// A reply ships the objects whose own state the method changed (Prepare's
// shadow). These tests pin that every kind of change ships — exactly the
// one object it changes — and ends where local execution ends.

type floats struct {
	F64 float64
	F32 float32
	C64 complex64
}

func (f *floats) bits() [4]uint64 {
	return [4]uint64{math.Float64bits(f.F64), uint64(math.Float32bits(f.F32)),
		uint64(math.Float32bits(real(f.C64))), uint64(math.Float32bits(imag(f.C64)))}
}

// shipCase is a method body run remotely on one root and locally on its twin.
type shipCase struct {
	name   string
	build  func() any
	mutate func(root any)
}

// runShipCase returns the caller's root after the remote call, the twin
// after the local one, and how many records the reply carried.
func runShipCase(t *testing.T, opts Options, tc shipCase) (remote, local any, sent int) {
	t.Helper()
	local = tc.build()
	tc.mutate(local)
	remote = tc.build()
	call, req := encodeArgs(t, opts, []setArg{{remote, true}})
	defer call.Release()
	if err := call.Finish(); err != nil {
		t.Fatal(err)
	}
	srv, vals := decodeArgs(t, opts, req.Bytes(), []setArg{{nil, true}})
	defer srv.Release()
	if err := srv.Prepare(); err != nil {
		t.Fatal(err)
	}
	tc.mutate(vals[0])
	var resp bytes.Buffer
	stats, err := srv.EncodeResponse(&resp, nil)
	if err != nil {
		t.Fatalf("%s: %v", tc.name, err)
	}
	if _, err := call.ApplyResponseBytes(resp.Bytes()); err != nil {
		t.Fatalf("%s: %v", tc.name, err)
	}
	return remote, local, stats.OldSent
}

func shipOptions(t *testing.T, cfg codecConfig, access graph.AccessMode) Options {
	t.Helper()
	opts := cfg.apply(setOptions(t, 0, access))
	if err := opts.Registry.Register("floats", floats{}); err != nil {
		t.Fatal(err)
	}
	return opts
}

// TestReplyShipsEveryMutation: each change to an object's own state ships
// that object.
func TestReplyShipsEveryMutation(t *testing.T) {
	tree := func() any { return &Tree{Data: 1, Left: &Tree{Data: 2}, Right: &Tree{Data: 3}} }
	holder := func() any {
		return &carrier{Tag: "c", Items: []*Tree{{Data: 1}, {Data: 2}}, Any: int32(1)}
	}
	exported := []shipCase{
		{"relink to an old object", tree, func(r any) { r.(*Tree).Left = r.(*Tree).Right }},
		{"relink to a new object", tree, func(r any) { r.(*Tree).Left = &Tree{Data: 2} }},
		{"relink to nil", tree, func(r any) { r.(*Tree).Left = nil }},
		{"a slice element", holder, func(r any) { r.(*carrier).Items[0] = r.(*carrier).Items[1] }},
		{"a reslice inside a field", holder, func(r any) { r.(*carrier).Items = r.(*carrier).Items[1:] }},
		{"an interface's dynamic type", holder, func(r any) { r.(*carrier).Any = int64(1) }},
		{"a string", holder, func(r any) { r.(*carrier).Tag = "d" }},
	}
	unexported := shipCase{"an unexported field", func() any {
		return &hidden{Data: 1, next: &hidden{Data: 2}}
	}, func(r any) { r.(*hidden).next = nil }}
	for _, cfg := range codecConfigs {
		for _, access := range []graph.AccessMode{graph.AccessExported, graph.AccessUnsafe} {
			cases := exported
			if access == graph.AccessUnsafe {
				cases = append(cases[:len(cases):len(cases)], unexported)
			}
			opts := shipOptions(t, cfg, access)
			for _, tc := range cases {
				remote, local, sent := runShipCase(t, opts, tc)
				if eq, err := graph.Equal(access, remote, local); err != nil || !eq || sent != 1 {
					t.Errorf("%s/%s %s: %d records shipped, want 1; caller equals local execution: %t (%v)",
						cfg.name, access, tc.name, sent, eq, err)
				}
			}
		}
	}
}

// TestReplyShipsSignOfZero: a float is compared by its bits, so a write that
// == cannot see ships and the caller ends bit-identical to local execution.
func TestReplyShipsSignOfZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan := func(payload uint64) float64 { return math.Float64frombits(0x7ff8000000000000 | payload) }
	cases := []struct {
		name        string
		before, set floats
	}{
		{"+0 to -0", floats{}, floats{F64: negZero}},
		{"-0 to +0", floats{F64: negZero}, floats{}},
		{"a NaN payload", floats{F64: nan(1)}, floats{F64: nan(2)}},
		{"float32 +0 to -0", floats{}, floats{F32: float32(negZero)}},
		{"complex64 +0 to -0", floats{}, floats{C64: complex(float32(negZero), 0)}},
	}
	for _, cfg := range codecConfigs {
		opts := shipOptions(t, cfg, graph.AccessExported)
		for _, c := range cases {
			before, set := c.before, c.set
			remote, local, sent := runShipCase(t, opts, shipCase{c.name,
				func() any { f := before; return &f },
				func(r any) { *r.(*floats) = set }})
			if got, want := remote.(*floats).bits(), local.(*floats).bits(); got != want || sent != 1 {
				t.Errorf("%s %s: %d records shipped, caller holds %x, local execution %x", cfg.name, c.name, sent, got, want)
			}
		}
	}
}

// collectedInOneCycle runs build, which sets a finalizer that closes
// collected, then one collection, and reports whether the finalizer ran. A
// miss is tried twice more on fresh objects before it counts. A frame stopped
// by asynchronous preemption is scanned conservatively, so a stale copy of
// the pointer (a dead stack slot, a register) can keep the object one cycle
// more: about one run in a thousand under load, none with
// GODEBUG=asyncpreemptoff=1, and a heap dump at a miss showed no path to the
// object from any root. Collecting until a deadline instead would hide what
// these tests look for: an object a pooled decoder still holds outlives one
// cycle, in the pool's victim cache, and only one, every time.
func collectedInOneCycle(t *testing.T, build func(collected chan struct{})) bool {
	t.Helper()
	for try := 0; try < 3; try++ {
		collected := make(chan struct{})
		build(collected)
		runtime.GC()
		select {
		case <-collected:
			return true
		case <-time.After(time.Second):
		}
	}
	return false
}

// TestReleaseUnpinsDecodedObjects: the shadow lives in the server's pooled
// decoder; once the call is released it must not keep a decoded argument
// alive. V2 decodes each object into an allocation of its own (V3 carves
// them from shared slabs, which a finalizer cannot watch). One cycle: the
// released decoder is still in the pool during it.
func TestReleaseUnpinsDecodedObjects(t *testing.T) {
	opts := testOptions(t)
	if !collectedInOneCycle(t, func(collected chan struct{}) {
		call, req := encodeArgs(t, opts, []setArg{{&Tree{Data: 1, Left: &Tree{Data: 2}}, true}})
		defer call.Release()
		if err := call.Finish(); err != nil {
			t.Fatal(err)
		}
		srv, vals := decodeArgs(t, opts, req.Bytes(), []setArg{{nil, true}})
		if err := srv.Prepare(); err != nil {
			t.Fatal(err)
		}
		// The root's shadow holds a pointer to its left child.
		runtime.SetFinalizer(vals[0].(*Tree).Left, func(*Tree) { close(collected) })
		var resp bytes.Buffer
		if _, err := srv.EncodeResponse(&resp, nil); err != nil {
			t.Fatal(err)
		}
		srv.Release()
	}) {
		t.Fatal("a decoded argument outlived ServerCall.Release")
	}
}

// TestStagedRestorePinsNothing: a committed staging temporary still holds
// the restored object's new state. The application keeps the reply's new
// objects — under V3 carved from shared arena slabs — so a temporary carved
// beside them would keep alive whatever the restored object pointed at,
// after the application unlinks it.
func TestStagedRestorePinsNothing(t *testing.T) {
	for _, cfg := range codecConfigs {
		opts := cfg.apply(testOptions(t))
		var a, n *Tree
		if !collectedInOneCycle(t, func(collected chan struct{}) {
			c := &Tree{Data: 3}
			a = &Tree{Data: 1}
			root := &Tree{Left: a, Right: c}
			runtime.SetFinalizer(c, func(*Tree) { close(collected) })
			runRemote(t, opts, func(r *Tree) []any {
				// Old A now points at old C and at a new node N.
				r.Left.Left, r.Left.Right = r.Right, &Tree{Data: 2}
				return nil
			}, root)
			if a.Left != c || a.Right == nil || a.Right.Data != 2 {
				t.Fatalf("%s: restore did not relink A: %+v", cfg.name, a)
			}
			// The client unlinks C and keeps A and N.
			n, a.Left, root.Right = a.Right, nil, nil
		}) {
			t.Fatalf("%s: an object the client unlinked outlived the restore", cfg.name)
		}
		runtime.KeepAlive(a)
		runtime.KeepAlive(n)
	}
}
