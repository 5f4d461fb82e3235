package bench

import (
	"context"
	"reflect"

	"nrmi/internal/graph"
	"nrmi/internal/rmi"
)

// CallDCE invokes method through stub with the restore semantics of DCE
// RPC, the contrast of the paper's Figure 9 (Section 4.2): only the objects
// still reachable from the parameters when the call returns are restored.
// NRMI never behaves this way; the emulation is a client-side baseline over
// a full copy-restore call. It shallow-snapshots every object reachable from
// the Restorable arguments, makes the call, walks again from the same
// arguments, and puts back the pre-call state of every old object no longer
// reached — what a server that ships no record for those objects leaves on
// the client. The walks read every field: the client owns these objects.
func CallDCE(ctx context.Context, stub *rmi.Stub, method string, args ...any) ([]any, error) {
	var roots []any
	for _, a := range args {
		if _, ok := a.(rmi.Restorable); ok {
			roots = append(roots, a)
		}
	}
	before, err := graph.Walk(graph.AccessUnsafe, roots...)
	if err != nil {
		return nil, err
	}
	snaps := make([]reflect.Value, before.Len())
	for i, o := range before.Objects() {
		snaps[i] = shallowCopy(o.Ref)
	}
	rets, err := stub.Call(ctx, method, args...)
	if err != nil {
		return nil, err
	}
	after, err := graph.Walk(graph.AccessUnsafe, roots...)
	if err != nil {
		return nil, err
	}
	for i, o := range before.Objects() {
		if r := after.Lookup(o.Ref); r == nil || r.Type() != o.Type() {
			putBack(o.Ref, snaps[i])
		}
	}
	return rets, nil
}

// shallowCopy returns a new object of ref's type holding ref's own state:
// the pointee, the entries, or the elements, with references left shared.
func shallowCopy(ref reflect.Value) reflect.Value {
	switch ref.Kind() {
	case reflect.Ptr:
		c := reflect.New(ref.Type().Elem())
		c.Elem().Set(ref.Elem())
		return c
	case reflect.Map:
		c := reflect.MakeMapWithSize(ref.Type(), ref.Len())
		for iter := ref.MapRange(); iter.Next(); {
			c.SetMapIndex(iter.Key(), iter.Value())
		}
		return c
	default: // a slice: a walk records no other kind
		c := reflect.MakeSlice(ref.Type(), ref.Len(), ref.Len())
		reflect.Copy(c, ref)
		return c
	}
}

// putBack overwrites ref's own state with snap's, in place, so every alias
// of ref sees it.
func putBack(ref, snap reflect.Value) {
	switch ref.Kind() {
	case reflect.Ptr:
		ref.Elem().Set(snap.Elem())
	case reflect.Map:
		ref.Clear()
		for iter := snap.MapRange(); iter.Next(); {
			ref.SetMapIndex(iter.Key(), iter.Value())
		}
	default:
		reflect.Copy(ref, snap)
	}
}
