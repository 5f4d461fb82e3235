package graph

import (
	"reflect"
	"testing"
)

// TestPooledStateReleasesEverything: nothing of one use survives into the
// package's pool — a parked map iterator references no map.
func TestPooledStateReleasesEverything(t *testing.T) {
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
