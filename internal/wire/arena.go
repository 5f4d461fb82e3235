package wire

import (
	"reflect"
	"sync"
	"sync/atomic"
)

// Arena is a chunked typed-slab allocator for decode-time object
// construction. A decoder configured with engine V3 takes every new pointer
// object and non-empty slice of a message from one per-decoder arena instead
// of calling reflect.New or reflect.MakeSlice per object: objects of the same
// type are handed out from a shared slab (one reflect.MakeSlice per
// slabTarget bytes instead of one allocation per object), and when the
// decoder is released the whole arena is released in one step.
//
// Release never recycles handed-out memory: it only drops the arena's own
// slab references. Objects handed to the caller keep their slab alive
// through normal GC reachability, so releasing an arena is always safe —
// the cost of a surviving object is that its slab neighbours stay reachable too,
// the usual trade of batch allocation.
//
// Pointers and carved slices come from separate slab families so that a
// pointer handed out individually can never alias an element of a
// later-carved slice.
type Arena struct {
	ptrSlabs   map[reflect.Type]*arenaSlab
	sliceSlabs map[reflect.Type]*arenaSlab
}

type arenaSlab struct {
	v    reflect.Value // slice of elemT, len == cap
	next int
}

// slabTarget is the byte size a fresh slab aims for; the per-type element
// count is derived from it and clamped so huge elements still batch a
// little and tiny elements do not pin megabytes per escapee.
const slabTarget = 8 << 10

func slabCount(elemSize uintptr) int {
	if elemSize == 0 {
		return 512
	}
	n := slabTarget / int(elemSize)
	if n < 8 {
		return 8
	}
	if n > 512 {
		return 512
	}
	return n
}

// Arena lifecycle counters for tests: acquires and releases must balance
// exactly once per decoder, success or failure.
var (
	arenaAcquires atomic.Int64
	arenaReleases atomic.Int64
)

// ArenaCounters reports the package-wide arena acquire/release totals, for
// lifetime tests.
func ArenaCounters() (acquires, releases int64) {
	return arenaAcquires.Load(), arenaReleases.Load()
}

var arenaPool = sync.Pool{New: func() any {
	return &Arena{
		ptrSlabs:   make(map[reflect.Type]*arenaSlab),
		sliceSlabs: make(map[reflect.Type]*arenaSlab),
	}
}}

func acquireArena() *Arena {
	arenaAcquires.Add(1)
	return arenaPool.Get().(*Arena)
}

// arenaFor returns the decoder's arena, acquired on first use.
func (d *Decoder) arenaFor() *Arena {
	if d.arena == nil {
		d.arena = acquireArena()
	}
	return d.arena
}

// ReleaseArena releases the decoder's arena and drops its staging slab
// without recycling the decoder itself. The core layer
// calls it on failed restores, where the decoder must be abandoned but the
// arena's lifetime contract — released exactly once per call — still holds.
// Objects already handed out survive through ordinary GC reachability.
func (d *Decoder) ReleaseArena() {
	d.stage.end(false)
	d.arena.Release()
	d.arena = nil
}

// Release drops every slab reference and returns the arena shell to the
// pool. Safe to call exactly once per acquire; the zero-value maps are
// reused, the slabs themselves are left to the garbage collector (or to
// whoever still references objects inside them).
func (a *Arena) Release() {
	if a == nil {
		return
	}
	clear(a.ptrSlabs)
	clear(a.sliceSlabs)
	arenaReleases.Add(1)
	arenaPool.Put(a)
}

// NewPtr returns a zeroed *elemT carved from the arena.
func (a *Arena) NewPtr(elemT reflect.Type) reflect.Value {
	s := a.ptrSlabs[elemT]
	if s == nil || s.next >= s.v.Len() {
		n := slabCount(elemT.Size())
		s = &arenaSlab{v: reflect.MakeSlice(reflect.SliceOf(elemT), n, n)}
		a.ptrSlabs[elemT] = s
	}
	p := s.v.Index(s.next).Addr()
	s.next++
	return p
}

// NewSlice returns a zeroed slice of type st with len == cap == n, carved
// from the arena when n is small enough to batch. The carve's capacity is
// clamped to its length (a three-index slice), so an append by the caller
// copies out instead of growing into a neighbour's elements.
func (a *Arena) NewSlice(st reflect.Type, n int) reflect.Value {
	elemT := st.Elem()
	max := slabCount(elemT.Size())
	if n == 0 || n > max {
		// Zero-length carves at the same offset would share an identity
		// (same data pointer), and oversized requests would never fit a
		// slab: allocate directly in both cases.
		return reflect.MakeSlice(st, n, n)
	}
	s := a.sliceSlabs[elemT]
	if s == nil || s.next+n > s.v.Len() {
		c := slabCount(elemT.Size())
		s = &arenaSlab{v: reflect.MakeSlice(reflect.SliceOf(elemT), c, c)}
		a.sliceSlabs[elemT] = s
	}
	carve := s.v.Slice3(s.next, s.next+n, s.next+n)
	s.next += n
	if carve.Type() != st {
		// Named slice types: convert the unnamed carve. The conversion
		// shares the backing array, so identity is preserved.
		carve = carve.Convert(st)
	}
	return carve
}
