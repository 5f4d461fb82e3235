package core

import (
	"fmt"
	"io"
	"reflect"
	"sync"

	"nrmi/internal/graph"
	"nrmi/internal/obs"
	"nrmi/internal/wire"
)

// Call is the client half of one copy-restore remote invocation. The
// restorable arguments are encoded onto the request stream first, then the
// by-copy ones; the Call remembers where the restorable ones end and keeps
// the encoder's object table alive so the response can be applied in place.
type Call struct {
	opts Options
	enc  *wire.Encoder

	// oc is the per-call observability collector (nil when disabled); the
	// client-side core phases — reply decode and restore commit — are
	// marked on it.
	oc *obs.Call

	// end delimits the restore set: the request table's objects [0, end),
	// everything the restorable arguments reach. Restorable arguments are
	// encoded before any by-copy argument adds an object, so the set is one
	// prefix of the table, read off it as they are encoded — before the
	// request leaves, so nothing that happens to the caller's graph between
	// issue and apply (another promise's commit) can change it.
	end           int
	numRestorable int
	finished      bool

	// commitMu, when set, is held for the whole response apply: decode,
	// validate, and commit. Validation *reads* the caller's argument graph
	// (slice lengths), and two concurrently consumed calls may share
	// objects in that graph — so reads must not interleave with another
	// call's commit writes, and commits must not interleave with each
	// other. Promise layers install one lock per client; whole calls then
	// apply serially, in consumption order.
	commitMu sync.Locker
}

// SetCommitLock installs a lock serializing this call's response apply
// (decode, validation, restore commit) against other calls sharing the
// same lock. A call that carries no restorable arguments does not need
// it: it neither re-reads nor overwrites caller state.
func (c *Call) SetCommitLock(mu sync.Locker) { c.commitMu = mu }

// NumRestorable reports how many restorable arguments were encoded — the
// signal promise layers use to skip commit serialization (and one-way
// layers use to reject calls that would need a reply to restore from).
func (c *Call) NumRestorable() int { return c.numRestorable }

// SetObs attaches the per-call observability collector. The Call only
// borrows it: the rmi layer owns the collector's lifecycle and must keep
// it alive until after ApplyResponse.
func (c *Call) SetObs(oc *obs.Call) { c.oc = oc }

// NewCall starts encoding a request. Finish writes it to w; with a nil w
// the request is read through Message instead.
func NewCall(w io.Writer, opts Options) *Call {
	c := new(Call)
	c.Begin(w, opts)
	return c
}

// Begin is NewCall into c, a zero or released Call: one held inside a
// longer-lived object allocates nothing of its own.
func (c *Call) Begin(w io.Writer, opts Options) {
	*c = Call{opts: opts, enc: wire.AcquireEncoder(w, opts)}
}

// Release returns the Call's pooled codec state. Call it once the response
// has been applied (or the call abandoned); the Call and anything obtained
// from Objects() must not be used afterwards. Safe on a nil receiver.
func (c *Call) Release() {
	if c == nil || c.enc == nil {
		return
	}
	wire.ReleaseEncoder(c.enc)
	c.enc = nil
	c.oc = nil
	c.commitMu = nil
}

// EncodeCopy encodes a call-by-copy argument. Structure shared with other
// arguments of the same call is preserved, exactly as in Java RMI's single
// output stream per call (paper, Section 4.1).
func (c *Call) EncodeCopy(v any) error {
	if c.finished {
		return fmt.Errorf("core: EncodeCopy after Finish")
	}
	return c.enc.Encode(v)
}

// EncodeRestorable encodes a call-by-copy-restore argument. The argument
// must be a pointer, map, or slice (an identity-bearing reference), since
// restoring a pure value is meaningless. Restorable arguments go first: one
// that follows a by-copy argument which added objects to the table is
// refused, since the restore set would no longer be a prefix of it.
func (c *Call) EncodeRestorable(v any) error {
	if c.finished {
		return fmt.Errorf("core: EncodeRestorable after Finish")
	}
	if v != nil && !graph.IsIdentityKind(reflect.ValueOf(v).Kind()) {
		return fmt.Errorf("core: restorable argument must be a pointer, map, or slice, got %T", v)
	}
	if n := len(c.enc.Objects()); n != c.end {
		return fmt.Errorf("core: restorable argument after by-copy arguments that added %d objects; encode restorable arguments first", n-c.end)
	}
	if err := c.enc.Encode(v); err != nil {
		return err
	}
	c.end = len(c.enc.Objects())
	c.numRestorable++
	return nil
}

// EncodeUint emits a raw protocol integer (argument counts, semantics
// markers) onto the request stream.
func (c *Call) EncodeUint(v uint64) error { return c.enc.EncodeUint(v) }

// EncodeString emits a raw protocol string (object and method names) onto
// the request stream.
func (c *Call) EncodeString(s string) error { return c.enc.EncodeString(s) }

// Finish writes the request to NewCall's writer, if any, in one Write. After
// Finish the Call waits for ApplyResponse.
func (c *Call) Finish() error {
	c.finished = true
	return c.enc.Flush()
}

// Objects exposes the client-side linear map (the request encoder's object
// table) for tests and metrics.
func (c *Call) Objects() []reflect.Value { return c.enc.Objects() }

// BytesSent returns the size of the encoded request.
func (c *Call) BytesSent() int64 { return c.enc.BytesWritten() }

// Message returns the encoded request, valid until Release.
func (c *Call) Message() []byte { return c.enc.Bytes() }

// Response is the decoded outcome of a restorable call.
type Response struct {
	// Returns holds the remote method's return values.
	Returns []any
	// Restored is the number of old objects whose state was overwritten.
	Restored int
	// NewObjects is the number of server-allocated objects materialized on
	// the client.
	NewObjects int
	// BytesReceived is the size of the response stream consumed.
	BytesReceived int64
}

// ApplyResponseBytes reads the server's restore section and return values
// from data and performs the in-place restore: afterwards every client-side
// alias of every pre-call object observes the server's mutations. It
// implements steps 4–6 of the paper's algorithm in a single pass, recording
// the decode and commit phases on the attached collector. Nothing decoded
// aliases data, so the caller may recycle the buffer once it returns. The
// pooled decoder, with the staging slab its temporaries came from, goes back
// to the pool on success only.
func (c *Call) ApplyResponseBytes(data []byte) (Response, error) {
	dec := wire.AcquireDecoderBytes(data, c.opts)
	if c.commitMu != nil {
		// See the commitMu field comment: validation reads objects a
		// concurrently applying call may be committing into, so the whole
		// apply serializes, not just the overwrite phase.
		c.commitMu.Lock()
		defer c.commitMu.Unlock()
	}
	rets, err := c.decodeReply(dec)
	updates := dec.Staged()
	c.oc.Mark(obs.PhaseDecodeReply, dec.BytesRead(), int64(len(updates)))
	if err == nil {
		err = commitUpdates(updates)
		c.oc.Mark(obs.PhaseRestoreCommit, 0, int64(len(updates)))
	}
	if err != nil {
		// Abandon the response with the caller's graph untouched: the arena
		// is released exactly once. The decoder itself is not recycled —
		// partially decoded state may still reference its table.
		dec.ReleaseArena()
		return Response{}, err
	}

	resp := Response{
		Returns:       rets,
		Restored:      len(updates),
		NewObjects:    len(dec.Objects()) - dec.NumSeeded(),
		BytesReceived: dec.BytesRead(),
	}
	wire.ReleaseDecoder(dec)
	return resp, nil
}

// decodeReply seeds the response decoder and consumes the restore section,
// staging each record (Decoder.Staged), and the return values, leaving the
// commit to the caller.
func (c *Call) decodeReply(dec *wire.Decoder) (rets []any, err error) {
	// Seed the response decoder with the restore set's cells of the request
	// object table: references to those IDs must resolve to the original
	// client objects, while everything else (including returned by-copy
	// argument data) materializes fresh.
	dec.SeedDetached(c.enc.Objects()[:c.end])
	numSeeded := dec.NumSeeded()

	n, err := dec.DecodeUint()
	if err != nil {
		return nil, fmt.Errorf("core: reading restore count: %w", err)
	}
	if n > uint64(numSeeded) {
		return nil, fmt.Errorf("%w: %d content records for %d objects", ErrBadResponse, n, numSeeded)
	}
	dec.ExpectContents(int(n))
	for i := uint64(0); i < n; i++ {
		id, err := dec.DecodeUint()
		if err != nil {
			return nil, fmt.Errorf("core: reading restore id: %w", err)
		}
		if id >= uint64(numSeeded) {
			return nil, fmt.Errorf("%w: content record for unknown object %d", ErrBadResponse, id)
		}
		if _, err := dec.DecodeSeededContent(int(id)); err != nil {
			return nil, fmt.Errorf("core: decoding content for object %d: %w", id, err)
		}
	}

	// Return values decode against the same table: aliasing between
	// returned data and restored parameters is preserved.
	nret, err := dec.DecodeUint()
	if err != nil {
		return nil, fmt.Errorf("core: reading return count: %w", err)
	}
	rets = make([]any, 0, min(nret, 8)) // the count is the peer's: a hint, no more
	for i := uint64(0); i < nret; i++ {
		v, err := dec.Decode()
		if err != nil {
			return nil, fmt.Errorf("core: decoding return value %d: %w", i, err)
		}
		rets = append(rets, v)
	}
	return rets, nil
}

// commitUpdates performs step 5: overwrite each original, in place. Every
// temporary's references already point at originals (old) or at freshly
// materialized objects (new), so a shallow overwrite completes the restore.
// The commit is two-phase — validate every (orig, tmp) pair before the
// first overwrite — so a malformed reply fails with the caller's graph
// untouched rather than half-restored.
func commitUpdates(updates []wire.Staged) error {
	for _, u := range updates {
		if err := validateRestore(u.Orig, u.Tmp); err != nil {
			return err
		}
	}
	for _, u := range updates {
		commitRestore(u.Orig, u.Tmp)
	}
	return nil
}

// validateRestore checks that tmp's contents can be committed into orig:
// identical types, a restorable kind, and (for slices, whose backing
// arrays are fixed-length Java arrays) an unchanged length. Everything
// commitRestore relies on is proven here, so the commit phase cannot fail
// midway through the update list.
func validateRestore(orig, tmp reflect.Value) error {
	if orig.Type() != tmp.Type() {
		return fmt.Errorf("%w: restoring %s into %s", ErrBadResponse, tmp.Type(), orig.Type())
	}
	switch orig.Kind() {
	case reflect.Ptr, reflect.Map:
		return nil
	case reflect.Slice:
		if orig.Len() != tmp.Len() {
			return fmt.Errorf("%w: slice length changed %d -> %d", ErrBadResponse, orig.Len(), tmp.Len())
		}
		return nil
	default:
		return fmt.Errorf("%w: cannot restore kind %s", ErrBadResponse, orig.Kind())
	}
}

// commitRestore overwrites the contents of orig with the contents of tmp.
// The pair must have passed validateRestore; commit is infallible.
func commitRestore(orig, tmp reflect.Value) {
	switch orig.Kind() {
	case reflect.Ptr:
		orig.Elem().Set(tmp.Elem())
	case reflect.Map:
		// Java objects are mutated in place; for a Go map that means
		// clearing (Clear keeps the buckets) and refilling the original
		// header all aliases share.
		orig.Clear()
		iter := graph.AcquireMapIter(tmp)
		for iter.Next() {
			orig.SetMapIndex(iter.Key(), iter.Value())
		}
		graph.ReleaseMapIter(iter)
	case reflect.Slice:
		reflect.Copy(orig, tmp)
	}
}
