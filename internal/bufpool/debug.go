package bufpool

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// Debug mode instruments Get/Put with an ownership ledger keyed by buffer
// data pointer, catching the two pool-discipline violations that are
// otherwise silent until they corrupt an unrelated call: double-Put (the
// same buffer enters a class pool twice, so two future Gets alias one
// array) and leaks (a buffer Gets out and never comes back). It is meant
// for tests — internal/leakcheck arms it from TestMain for a package's whole
// run and asserts on DebugSnapshot() at exit — and costs one atomic load per
// Get/Put when off.

// debugEnabled gates the ledger; the hot path pays one atomic load.
var debugEnabled atomic.Bool

var debugState struct {
	mu sync.Mutex
	// live holds data pointers of buffers currently checked out (issued by
	// Get, not yet Put).
	live map[uintptr]bool
	// returned holds data pointers of buffers sitting in a class pool
	// (Put, not yet re-issued). A Put whose pointer is already here is a
	// double-Put.
	returned map[uintptr]bool
	stats    DebugStats
}

// DebugStats is a snapshot of the debug ledger.
type DebugStats struct {
	// Gets and Puts count pooled-class traffic while debug was on.
	Gets, Puts int64
	// DoublePuts counts buffers Put while already sitting in the pool —
	// each one is a real aliasing bug at the call site that Put it.
	DoublePuts int64
	// ForeignPuts counts Puts of buffers whose capacity is not an exact
	// pooled class (dropped by the pool). Not a bug by itself: ReleasePayload
	// accepts any slice.
	ForeignPuts int64
	// Outstanding is the number of buffers currently checked out: Gets
	// that have not been Put back. A workload that releases everything it
	// acquires drives this back to its baseline.
	Outstanding int
}

// SetDebug enables or disables the ledger, clearing all state either way.
func SetDebug(on bool) {
	debugState.mu.Lock()
	debugState.live = make(map[uintptr]bool)
	debugState.returned = make(map[uintptr]bool)
	debugState.stats = DebugStats{}
	debugState.mu.Unlock()
	debugEnabled.Store(on)
}

// DebugSnapshot returns the current ledger counters.
func DebugSnapshot() DebugStats {
	debugState.mu.Lock()
	defer debugState.mu.Unlock()
	s := debugState.stats
	s.Outstanding = len(debugState.live)
	return s
}

// dataPtr identifies a buffer by its backing-array address. It must not
// allocate: the ledger is armed under the alloc-budget tests too.
func dataPtr(p []byte) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(p))) }

// debugTrackGet records a buffer leaving the pool (or freshly allocated
// for a pooled class).
func debugTrackGet(p []byte) {
	ptr := dataPtr(p)
	debugState.mu.Lock()
	debugState.stats.Gets++
	delete(debugState.returned, ptr)
	debugState.live[ptr] = true
	debugState.mu.Unlock()
}

// debugTrackPut records a pooled-class buffer entering the pool.
func debugTrackPut(p []byte) {
	ptr := dataPtr(p)
	debugState.mu.Lock()
	debugState.stats.Puts++
	if debugState.returned[ptr] {
		debugState.stats.DoublePuts++
	} else {
		debugState.returned[ptr] = true
	}
	delete(debugState.live, ptr)
	debugState.mu.Unlock()
}

// debugTrackForeign records a Put the pool drops.
func debugTrackForeign(p []byte) {
	ptr := dataPtr(p)
	debugState.mu.Lock()
	debugState.stats.ForeignPuts++
	delete(debugState.live, ptr)
	debugState.mu.Unlock()
}
