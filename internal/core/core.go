// Package core implements the paper's primary contribution: the
// call-by-copy-restore algorithm for arbitrary linked data structures
// (Section 3 of the paper), built on the identity-preserving wire codec.
//
// The algorithm, as realized here:
//
//  1. The client encodes the call arguments with one wire.Encoder. The
//     encoder's object table — every object reachable from the arguments,
//     in first-encounter order — IS the linear map (step 1). Because the
//     decoder reconstructs the table in the same order, the map never
//     crosses the wire (the paper's optimization 1, Section 5.2.4).
//  2. The server decodes the arguments (step 2). The restorable arguments
//     travel first, so the set of "old" objects — everything reachable
//     from a restorable argument before the method runs — is the prefix of
//     the table they added, [0, end): both endpoints read it off their
//     tables, and nothing walks the graph.
//  3. The method runs at full native speed: no read/write barriers, no
//     network traffic (the paper's central efficiency claim).
//  4. The server encodes a response whose encoder is seeded with the old
//     objects, then ships one content record per old object the method
//     changed — even objects it unlinked — plus, inline, any new objects
//     now referenced (step 3). Prepare took a shallow shadow of each old
//     object's own state, so an unchanged one is known and ships nothing:
//     the paper's future-work optimization 2 (Section 5.2.4), by which a
//     restorable argument the method leaves alone costs about a by-copy one.
//  5. The client decodes each content record into a temporary "modified
//     version"; references to old IDs resolve directly to the client's
//     original objects, performing the map match-up (step 4) and the
//     pointer redirection of steps 5–6 implicitly during decode.
//  6. Finally each original object is overwritten in place from its
//     temporary, making every mutation visible through every client-side
//     alias (step 5).
package core

import (
	"errors"

	"nrmi/internal/wire"
)

// Options configures both endpoints of a copy-restore call: the codec's own
// options. The zero value means: engine V2, exported-field access, default
// registry.
type Options = wire.Options

// Errors reported by the copy-restore protocol.
var (
	// ErrNotPrepared is reported when server response encoding is attempted
	// before Prepare fixed the pre-call object set.
	ErrNotPrepared = errors.New("core: server call not prepared")

	// ErrBadResponse is reported for structurally invalid restore sections.
	ErrBadResponse = errors.New("core: malformed restore response")
)
