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
			enc := wire.NewEncoder(&buf, opts)
			if err := enc.Encode(src); err != nil {
				t.Fatal(err)
			}
			if err := enc.Flush(); err != nil {
				t.Fatal(err)
			}
			dec := wire.NewDecoderBytes(buf.Bytes(), opts)
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
// shelf: alone, and escaped — with a by-copy argument that shares one of
// its empties, the shape that once made the restore set escape the table
// and now travels after it — under NRMI's restore (policy 0) and DCE RPC's
// (policy 1, emulated by walks before and after the call that meet the two
// empties again; the shelf stays reachable, so the two agree), with the
// method leaving the empties alone and replacing one, and with the reply
// carrying the changed objects (delta) or every old one.
func TestEmptySlicesOfTwoTypesRestore(t *testing.T) {
	for _, cfg := range codecConfigs {
		for _, escaped := range []bool{false, true} {
			for policy := range 2 {
				for _, delta := range []bool{false, true} {
					for _, replace := range []bool{false, true} {
						name := fmt.Sprintf("%s/escaped=%t/policy=%d/delta=%t/replace=%t", cfg.name, escaped, policy, delta, replace)
						t.Run(name, func(t *testing.T) {
							opts := overlapOptions(t, cfg)
							s := newShelf(t)
							var remote *shelf
							call := func() { remote = shelfCall(t, opts, s, escaped, replace, !delta) }
							if policy == 0 {
								call()
							} else {
								dceRestore(t, opts.Access, s, call)
							}
							if eq, err := graph.Equal(opts.Access, s, remote); err != nil || !eq || s.N != 7 || s.Ints == nil || s.Names == nil {
								t.Fatalf("caller holds %#v after the call, the method left %#v (equal %t, %v)", s, remote, eq, err)
							}
						})
					}
				}
			}
		}
	}
}

// shelfCall passes s restorable — escaped: with s.Ints by copy as well —
// to a method that sets N and, under replace, appends to Names, and returns
// the server's shelf once the caller has applied the reply.
func shelfCall(t *testing.T, opts Options, s *shelf, escaped, replace, full bool) *shelf {
	args := []setArg{{s, true}}
	if escaped {
		args = append(args, setArg{s.Ints, false})
	}
	call, req := encodeArgs(t, opts, args)
	defer call.Release()
	if err := call.Finish(); err != nil {
		t.Fatal(err)
	}
	srv, vals := decodeArgs(t, opts, req.Bytes(), args)
	defer srv.Release()
	prepareReply(t, srv, full)
	remote := vals[0].(*shelf)
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
	return remote
}

// dceRestore emulates DCE RPC's restore around call, the way internal/bench
// reproduces Figure 9: every object reachable from root before the call and
// not after it gets its pre-call state back.
func dceRestore(t *testing.T, access graph.AccessMode, root any, call func()) {
	t.Helper()
	before, err := graph.Walk(access, root)
	if err != nil {
		t.Fatal(err)
	}
	snaps := make([]reflect.Value, before.Len())
	for i, o := range before.Objects() {
		switch o.Ref.Kind() {
		case reflect.Ptr:
			snaps[i] = reflect.New(o.Type().Elem())
			snaps[i].Elem().Set(o.Ref.Elem())
		case reflect.Map:
			snaps[i] = reflect.MakeMap(o.Type())
			for iter := o.Ref.MapRange(); iter.Next(); {
				snaps[i].SetMapIndex(iter.Key(), iter.Value())
			}
		case reflect.Slice:
			snaps[i] = reflect.MakeSlice(o.Type(), o.Ref.Len(), o.Ref.Len())
			reflect.Copy(snaps[i], o.Ref)
		}
	}
	call()
	after, err := graph.Walk(access, root)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range before.Objects() {
		if r := after.Lookup(o.Ref); r == nil || r.Type() != o.Type() {
			commitRestore(o.Ref, snaps[i])
		}
	}
}

func TestFirstFieldOverlapRefusedAtSender(t *testing.T) {
	for _, cfg := range codecConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			opts := overlapOptions(t, cfg)
			p := &pairAB{A: 1, B: 2}
			for _, restorable := range []bool{false, true} {
				call := NewCall(new(bytes.Buffer), opts)
				encode := call.EncodeCopy
				if restorable {
					encode = call.EncodeRestorable
				}
				err := encode(&firstField{S: p, A: &p.A})
				if !errors.Is(err, graph.ErrObjectOverlap) {
					t.Fatalf("restorable=%t: want ErrObjectOverlap from the encoder, got %v", restorable, err)
				}
			}
		})
	}
}
