package graph

import (
	"reflect"
	"sync"
)

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
