package graph

import (
	"reflect"
	"testing"
)

// TestPooledStateReleasesEverything: nothing of one use survives into the
// package's two pools — a parked walker references no user object, a parked
// map iterator no map.
func TestPooledStateReleasesEverything(t *testing.T) {
	w := AcquireWalker(AccessExported)
	if err := w.Root(buildChain(8)); err != nil {
		t.Fatal(err)
	}
	lm := w.LinearMap()
	if lm.Len() != 8 {
		t.Fatalf("walked %d objects, want 8", lm.Len())
	}
	ReleaseWalker(w)
	if lm.Len() != 0 {
		t.Errorf("released walker's linear map still lists %d objects", lm.Len())
	}
	for i, o := range lm.objects[:cap(lm.objects)] {
		if o != nil && o.Ref.IsValid() && !o.Ref.IsZero() {
			t.Errorf("released walker's object cell %d still references %v", i, o.Ref)
		}
	}

	iter := AcquireMapIter(reflect.ValueOf(map[string]*node{"k": {Data: 1}}))
	if !iter.Next() {
		t.Fatal("iterator over a one-entry map has no entry")
	}
	ReleaseMapIter(iter)
	// An iterator that has been reset to no map panics on use; one that was
	// parked as it was would go on iterating, i.e. the pool pins the map.
	defer func() {
		if recover() == nil {
			t.Error("released map iterator still iterates its map")
		}
	}()
	iter.Next()
}
