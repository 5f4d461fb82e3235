package nrmi

import (
	"context"
	"sync"
)

// Guarded pairs a restorable root object with a mutex, packaging the
// discipline the paper prescribes for multi-threaded clients (Section
// 4.1): a remote call acts as a mutator of everything reachable from its
// restorable arguments, so it must be mutually excluded with local code
// reading or writing the same data. Wrap the root once, then do all local
// access through With and all remote calls through Call.
//
//	roster := nrmi.NewGuarded(&Roster{...})
//	go roster.With(func(r *Roster) { r.Members = ... })        // local writer
//	rets, err := roster.Call(ctx, stub, "Promote")             // remote mutator
//
// Guarded serializes the restore against local access; it does not (and
// cannot) impose an ordering between concurrent remote calls beyond mutual
// exclusion — if update order matters, the paper's advice stands:
// copy-restore is the wrong tool.
type Guarded[T any] struct {
	mu   sync.Mutex
	root T
}

// NewGuarded wraps root.
func NewGuarded[T any](root T) *Guarded[T] {
	return &Guarded[T]{root: root}
}

// With runs f with exclusive access to the root. The root and anything
// reachable from it are f's for the call only: f must not store them in a
// variable declared outside it, send them on a channel or capture them in a
// goroutine, or the next Call restores into a graph that code reads without
// the lock. Mutating the graph and copying out values that carry no
// pointer (ints, strings, bools) are fine.
//
//	var n int
//	roster.With(func(r *Roster) {
//		r.Members = r.Members[1:] // in-graph mutation: the point
//		n = len(r.Members)        // a scalar snapshot carries no identity
//	})
func (g *Guarded[T]) With(f func(root T)) {
	g.mu.Lock()
	defer g.mu.Unlock()
	f(g.root)
}

// Call invokes method on stub with the guarded root as the first argument
// (followed by extra), holding the lock for the duration of the call so
// the restore phase cannot interleave with local access.
func (g *Guarded[T]) Call(ctx context.Context, stub *Stub, method string, extra ...any) ([]any, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	args := make([]any, 0, len(extra)+1)
	args = append(args, any(g.root))
	args = append(args, extra...)
	return stub.Call(ctx, method, args...)
}
