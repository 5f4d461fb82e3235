package graph

import (
	"reflect"
	"sync"
)

// Walker pooling. A traversal of an n-object graph costs ~3 allocations per
// object (the Object struct, its detached reference cell, and the identity
// map entries). The restore set is normally read off the codec's object
// table; the graph is walked only when that set escaped or under PolicyDCE,
// and recycling walkers keeps those walks allocation-free in the steady
// state. Pooled state never crosses calls: reset drops every reference to
// user objects before the walker is parked.

var walkerPool = sync.Pool{New: func() any { return NewWalker(AccessExported) }}

// AcquireWalker returns a pooled Walker configured for mode. It is the
// allocation-free counterpart of NewWalker for hot paths.
//
// Contract: the caller must not retain the walker, its LinearMap, or any
// *Object obtained from it after ReleaseWalker — the pool reuses all three.
// Extract plain data (IDs, lengths) before releasing.
func AcquireWalker(mode AccessMode) *Walker {
	w := walkerPool.Get().(*Walker)
	w.Access = mode
	return w
}

// ReleaseWalker resets w, dropping every reference to user objects while
// keeping its maps and slices warm, and returns it to the pool. Passing nil
// is a no-op.
func ReleaseWalker(w *Walker) {
	if w == nil {
		return
	}
	w.lm.reset()
	walkerPool.Put(w)
}

// mapIterPool recycles reflect.MapIter values: MapRange allocates a fresh
// iterator per call, which the codec's and the restore commit's map loops
// would otherwise pay on every map.
var mapIterPool = sync.Pool{New: func() any { return new(reflect.MapIter) }}

// AcquireMapIter returns a pooled reflect.MapIter positioned at the start
// of map value v.
func AcquireMapIter(v reflect.Value) *reflect.MapIter {
	iter := mapIterPool.Get().(*reflect.MapIter)
	iter.Reset(v)
	return iter
}

// ReleaseMapIter drops the iterator's map reference and returns it to the
// pool. The iterator must not be used afterwards.
func ReleaseMapIter(iter *reflect.MapIter) {
	iter.Reset(reflect.Value{})
	mapIterPool.Put(iter)
}
