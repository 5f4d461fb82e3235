package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"nrmi/internal/graph"
	"nrmi/internal/wire"
)

// Two references of different types at one address share an identity
// (address, kind) without being one object (graph.Aliases). The codec used
// to encode the second as a back-reference to the first, a stream the peer
// can only reject.

// shelf holds empty non-nil slices of two element types: both data pointers
// are the allocator's zero-size address.
type shelf struct {
	Ints  []int
	Names []string
	N     int
}

func newShelf(t *testing.T) *shelf {
	t.Helper()
	s := &shelf{Ints: make([]int, 0), Names: make([]string, 0)}
	if reflect.ValueOf(s.Ints).Pointer() != reflect.ValueOf(s.Names).Pointer() {
		t.Skip("this allocator gives two zero-size allocations two addresses")
	}
	return s
}

// pairAB's first field shares the struct's address.
type pairAB struct{ A, B int }

type firstField struct {
	S *pairAB
	A *int
}

func overlapOptions(t *testing.T, cfg codecConfig) Options {
	t.Helper()
	reg := wire.NewRegistry()
	for name, sample := range map[string]any{"shelf": shelf{}, "pairAB": pairAB{}, "firstField": firstField{}} {
		if err := reg.Register(name, sample); err != nil {
			t.Fatal(err)
		}
	}
	return cfg.apply(Options{Registry: reg})
}

func TestEmptySlicesOfTwoTypesRoundTrip(t *testing.T) {
	for _, cfg := range codecConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			opts := overlapOptions(t, cfg)
			src := newShelf(t)
			var buf bytes.Buffer
			enc := wire.NewEncoder(&buf, opts.wireOptions())
			if err := enc.Encode(src); err != nil {
				t.Fatal(err)
			}
			if err := enc.Flush(); err != nil {
				t.Fatal(err)
			}
			dec := wire.NewDecoderBytes(buf.Bytes(), opts.wireOptions())
			defer dec.ReleaseArena()
			out, err := dec.Decode()
			if err != nil {
				t.Fatalf("the peer rejects the stream: %v", err)
			}
			if eq, err := graph.Equal(opts.Access, src, out); err != nil || !eq {
				t.Fatalf("decoded %#v from %#v (equal %t, %v)", out, src, eq, err)
			}
			if got := out.(*shelf); got.Ints == nil || got.Names == nil {
				t.Fatalf("decoded %#v, want both slices empty and non-nil", got)
			}
			if len(enc.Objects()) != 3 || len(dec.Objects()) != 3 {
				t.Fatalf("%d objects encoded, %d decoded, want 3 and 3", len(enc.Objects()), len(dec.Objects()))
			}
		})
	}
}

// TestEmptySlicesOfTwoTypesRestore runs the whole copy-restore call on a
// shelf: with the restore set read off the table and with an escaped one
// (the walk meets the two empties again), under every policy, with the
// method leaving the empties alone and replacing one, and with the reply
// carrying the changed objects (delta) or every old one.
func TestEmptySlicesOfTwoTypesRestore(t *testing.T) {
	for _, cfg := range codecConfigs {
		for _, escaped := range []bool{false, true} {
			for _, policy := range []RestorePolicy{PolicyFull, PolicyDCE} {
				for _, delta := range []bool{false, true} {
					for _, replace := range []bool{false, true} {
						name := fmt.Sprintf("%s/escaped=%t/policy=%d/delta=%t/replace=%t", cfg.name, escaped, policy, delta, replace)
						t.Run(name, func(t *testing.T) {
							opts := overlapOptions(t, cfg)
							opts.Policy = policy
							testShelfRestore(t, opts, escaped, replace, !delta)
						})
					}
				}
			}
		}
	}
}

func testShelfRestore(t *testing.T, opts Options, escaped, replace, full bool) {
	s := newShelf(t)
	args := []setArg{{s, true}}
	if escaped {
		// A by-copy argument the restorable one shares structure with.
		args = []setArg{{s.Ints, false}, {s, true}}
	}
	call, req := encodeArgs(t, opts, args)
	if call.set.escaped != escaped {
		t.Fatalf("set escaped = %t, want %t", call.set.escaped, escaped)
	}
	if err := call.Finish(); err != nil {
		t.Fatal(err)
	}
	srv := AcceptCallBytes(req.Bytes(), opts)
	defer srv.Release()
	if escaped {
		if _, err := srv.DecodeCopy(); err != nil {
			t.Fatal(err)
		}
	}
	v, err := srv.DecodeRestorable()
	if err != nil {
		t.Fatalf("server rejects the request: %v", err)
	}
	prepareReply(t, srv, full)
	remote := v.(*shelf)
	remote.N = 7
	if replace {
		remote.Names = append(remote.Names, "x")
	}
	var resp bytes.Buffer
	if _, err := srv.EncodeResponse(&resp, nil); err != nil {
		t.Fatalf("server cannot answer: %v", err)
	}
	if _, err := call.ApplyResponseBytes(resp.Bytes()); err != nil {
		t.Fatalf("client rejects the reply: %v", err)
	}
	if eq, err := graph.Equal(opts.Access, s, remote); err != nil || !eq || s.N != 7 || s.Ints == nil || s.Names == nil {
		t.Fatalf("caller holds %#v after the call, the method left %#v (equal %t, %v)", s, remote, eq, err)
	}
}

func TestFirstFieldOverlapRefusedAtSender(t *testing.T) {
	for _, cfg := range codecConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			opts := overlapOptions(t, cfg)
			p := &pairAB{A: 1, B: 2}
			for _, restorable := range []bool{false, true} {
				var req bytes.Buffer
				call := NewCall(&req, opts)
				err := call.EncodeCopy(&firstField{S: p, A: &p.A})
				if restorable {
					err = call.EncodeRestorable(&firstField{S: p, A: &p.A})
				}
				if !errors.Is(err, graph.ErrObjectOverlap) {
					t.Fatalf("restorable=%t: want ErrObjectOverlap from the encoder, got %v", restorable, err)
				}
			}
		})
	}
}
