// Package guarded exercises the guarded-escape check against a
// structural replica of nrmi.Guarded (the check matches the receiver
// type by name, so the package stays self-contained).
package guarded

import "sync"

// Guarded mirrors nrmi.Guarded.
type Guarded[T any] struct {
	mu   sync.Mutex
	root T
}

// NewGuarded wraps root.
func NewGuarded[T any](root T) *Guarded[T] { return &Guarded[T]{root: root} }

// With runs f with exclusive access to the root.
func (g *Guarded[T]) With(f func(root T)) {
	g.mu.Lock()
	defer g.mu.Unlock()
	f(g.root)
}

// Roster is the guarded data structure.
type Roster struct {
	Members []string
	Head    *Roster
}

var leaked *Roster
var members []string
var updates = make(chan *Roster, 1)

// Escapes demonstrates every flagged escape route.
func Escapes(g *Guarded[*Roster]) {
	g.With(func(r *Roster) {
		leaked = r // want `escapes the With closure via assignment to leaked`
	})
	g.With(func(r *Roster) {
		members = r.Members // want `assignment to members`
	})
	g.With(func(r *Roster) {
		updates <- r // want `channel send`
	})
	g.With(func(r *Roster) {
		go func() { // want `captured by a goroutine`
			r.Members = nil
		}()
	})
	var local *Roster
	g.With(func(r *Roster) {
		local = r.Head // want `assignment to local`
	})
	_ = local
}

// Clean demonstrates the allowed patterns: local derivation, scalar
// snapshots, and in-graph mutation.
func Clean(g *Guarded[*Roster]) {
	var count int
	g.With(func(r *Roster) {
		alias := r // new local: stays inside the closure
		alias.Members = append(alias.Members, "x")
		r.Head = r             // in-graph mutation is what the lock is for
		count = len(r.Members) // scalar snapshot, not an escape
	})
	_ = count
}
