// Package atomicclean is the clean twin of atomicfield: the typed
// atomic style the repository itself uses (atomic.Int64 and friends
// make non-atomic access unrepresentable), plus plain fields that never
// touch sync/atomic. Zero findings expected.
package atomicclean

import "sync/atomic"

// hist mirrors the obs histogram counters: typed atomics carry no
// address-taken sync/atomic calls, so the check has nothing to track —
// the type system already enforces the discipline.
type hist struct {
	count atomic.Int64
	sum   atomic.Int64
	// name is set once at construction and read-only after; it never
	// enters the atomic protocol.
	name string
}

func (h *hist) Observe(v int64) {
	h.count.Add(1)
	h.sum.Add(v)
}

func (h *hist) Snapshot() (int64, int64) {
	return h.count.Load(), h.sum.Load()
}

func (h *hist) Name() string { return h.name }

// freeCounter never sees sync/atomic anywhere in the package: plain
// access stays legal.
var freeCounter int64

func BumpFree() int64 {
	freeCounter++
	return freeCounter
}

// pair uses sync/atomic consistently on a package variable.
var epoch uint64

func NextEpoch() uint64    { return atomic.AddUint64(&epoch, 1) }
func CurrentEpoch() uint64 { return atomic.LoadUint64(&epoch) }
