package core

import (
	"fmt"
	"reflect"
	"slices"

	"nrmi/internal/graph"
)

// run is a half-open interval [lo, hi) of stream object IDs.
type run struct{ lo, hi int }

// restoreSet is the set of request-stream object IDs a call restores: every
// object reachable from a restorable argument. It is read off the codec's
// object table while the arguments are (de)serialized — the table IS the
// linear map, so nothing is walked (paper, Section 5.2.4, optimization 1).
// The objects one argument adds to the table are exactly those reachable
// from it and not met earlier, and the only way it reaches an earlier
// object is a back-reference, which the codec reports. Client and server
// see the same IDs on the same stream and so hold the same set.
type restoreSet struct {
	// runs are ascending, disjoint, non-empty and non-adjacent.
	runs []run
	// escaped records that a restorable argument referenced an object below
	// the restorable run it extends, i.e. (possibly) inside a by-copy
	// argument encoded before it. Only part of that argument's run is then
	// reachable, which the table alone cannot delimit: the endpoint must
	// call walk once every argument is on the stream.
	escaped bool
}

// add records one restorable argument: it grew the object table from lo to
// hi and its lowest back-reference was lowRef (wire's LowestRef).
func (rs *restoreSet) add(lo, hi, lowRef int) {
	last := len(rs.runs) - 1
	adjacent := last >= 0 && rs.runs[last].hi == lo
	from := lo
	if adjacent {
		from = rs.runs[last].lo
	}
	if lowRef < from {
		rs.escaped = true
	}
	switch {
	case lo == hi:
	case adjacent:
		rs.runs[last].hi = hi
	default:
		rs.runs = append(rs.runs, run{lo, hi})
	}
}

// len returns the number of IDs in the set.
func (rs *restoreSet) len() int {
	n := 0
	for _, r := range rs.runs {
		n += r.hi - r.lo
	}
	return n
}

// walk replaces an escaped set by the reachability closure of roots, the
// one case in which the graph is walked; idOf maps a reachable object to
// its stream ID.
func (rs *restoreSet) walk(access graph.AccessMode, roots []reflect.Value, idOf func(reflect.Value) (int, bool)) error {
	ids, err := reachableIDs(access, roots, idOf, false)
	if err != nil {
		return err
	}
	rs.runs = rs.runs[:0]
	for _, id := range ids {
		rs.add(id, id+1, id)
	}
	rs.escaped = false
	return nil
}

// reachableIDs walks roots and returns idOf of every reachable object,
// ascending, each once. Objects idOf does not know are skipped under allowNew (the
// method body allocated them, so only a post-call walk meets any) and are
// an error otherwise.
func reachableIDs(access graph.AccessMode, roots []reflect.Value, idOf func(reflect.Value) (int, bool), allowNew bool) ([]int, error) {
	// Only plain stream IDs leave this function, so the pooled walker's
	// no-retention contract holds.
	w := graph.AcquireWalker(access)
	defer graph.ReleaseWalker(w)
	for _, root := range roots {
		if err := w.RootValue(root); err != nil {
			return nil, fmt.Errorf("core: walking restorable roots: %w", err)
		}
	}
	ids := make([]int, 0, w.LinearMap().Len())
	for _, obj := range w.LinearMap().Objects() {
		id, ok := idOf(obj.Ref)
		if !ok {
			if allowNew {
				continue
			}
			return nil, fmt.Errorf("%w: reachable object missing from object table", ErrBadResponse)
		}
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return slices.Compact(ids), nil
}

// indexByIdent maps each object's identity to its position in objs; of two
// that share one (graph.Aliases) the first, as in the encoder's own index.
func indexByIdent(objs []reflect.Value) func(reflect.Value) (int, bool) {
	var index graph.IdentTable
	for i, obj := range objs {
		if ident, ok := graph.IdentOf(obj); ok {
			index.GetOrPut(ident, i)
		}
	}
	return func(ref reflect.Value) (int, bool) {
		ident, _ := graph.IdentOf(ref)
		return index.Get(ident)
	}
}
