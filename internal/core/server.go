package core

import (
	"fmt"
	"io"

	"nrmi/internal/bufpool"
	"nrmi/internal/graph"
	"nrmi/internal/obs"
	"nrmi/internal/wire"
)

// ServerCall is the server half of one copy-restore invocation: it decodes
// the arguments, shadows the pre-call object set, lets the caller invoke
// the actual method at full speed, and encodes the restore response.
type ServerCall struct {
	opts Options
	dec  *wire.Decoder

	// oc is the per-call observability collector (nil when disabled); the
	// server-side prepare phase is marked on it.
	oc *obs.Call

	// end delimits the pre-call restore set — the server's linear map
	// subset — as on the client: the decode table's objects [0, end), read
	// off it as the restorable arguments are decoded.
	end      int
	prepared bool
}

// AcceptCallBytes starts decoding a request held in memory. DecodeBytes
// returns views of data, so data must stay valid for as long as they are
// read; decoded arguments copy what they hold.
func AcceptCallBytes(data []byte, opts Options) *ServerCall {
	return &ServerCall{opts: opts, dec: wire.AcquireDecoderBytes(data, opts)}
}

// Release returns the call's pooled codec state, the pre-call shadow
// included. Call it after the response has been encoded; the decoded
// argument objects themselves stay valid (the pool only drops its references
// to them), but the ServerCall must not be used afterwards. Safe on a nil
// receiver.
func (s *ServerCall) Release() {
	if s == nil || s.dec == nil {
		return
	}
	wire.ReleaseDecoder(s.dec)
	s.dec = nil
	s.oc = nil
}

// DecodeCopy decodes a call-by-copy argument.
func (s *ServerCall) DecodeCopy() (any, error) {
	return s.dec.Decode()
}

// DecodeRestorable decodes a call-by-copy-restore argument and extends the
// restore set by what it added to the table. A request in which it follows
// a by-copy argument that added objects is refused with wire.ErrBadStream:
// no honest client sends one (Call.EncodeRestorable), and the set would not
// be a prefix of the table.
func (s *ServerCall) DecodeRestorable() (any, error) {
	if n := len(s.dec.Objects()); n != s.end {
		return nil, fmt.Errorf("%w: restorable argument after by-copy arguments holding %d objects", wire.ErrBadStream, n-s.end)
	}
	v, err := s.dec.Decode()
	if err != nil {
		return nil, err
	}
	s.end = len(s.dec.Objects())
	return v, nil
}

// DecodeUint reads a raw protocol integer written with Call.EncodeUint.
func (s *ServerCall) DecodeUint() (uint64, error) { return s.dec.DecodeUint() }

// DecodeBytes reads a raw protocol string written with Call.EncodeString as
// a view of the request, valid for as long as the request's bytes are.
func (s *ServerCall) DecodeBytes() ([]byte, error) { return s.dec.DecodeBytes() }

// Access returns the field-access mode announced by the request stream.
// Valid once at least one argument has been decoded.
func (s *ServerCall) Access() graph.AccessMode { return s.dec.Access() }

// Engine returns the wire engine announced by the request stream.
func (s *ServerCall) Engine() wire.Engine { return s.dec.Engine() }

// BytesReceived returns the size of the request consumed so far.
func (s *ServerCall) BytesReceived() int64 { return s.dec.BytesRead() }

// SetObs attaches the per-call observability collector. The ServerCall
// only borrows it: the rmi layer owns the collector's lifecycle and must
// keep it alive until after EncodeResponse.
func (s *ServerCall) SetObs(oc *obs.Call) { s.oc = oc }

// Prepare shadows the pre-call object set — every object reachable from
// the restorable parameters, the linear map of "old" objects (paper,
// Section 3) — with a shallow copy of each object's own state, so that
// EncodeResponse ships only what the method changed. Decoding delimited the
// set, so nothing is walked. It must be called after all arguments are
// decoded and before the method executes. It ends the srv-prepare phase.
func (s *ServerCall) Prepare() error {
	if s.prepared {
		return nil
	}
	s.dec.Shadow(s.dec.Objects()[:s.end])
	s.prepared = true
	s.oc.Mark(obs.PhaseSrvPrepare, 0, int64(s.end))
	return nil
}

// ResponseStats reports what a response encoding shipped, for metrics and
// the experiment harness.
type ResponseStats struct {
	// OldTotal is the number of pre-call objects in the restore set.
	OldTotal int
	// OldSent is how many of them had content records shipped: those the
	// method changed.
	OldSent int
	// BytesSent is the size of the encoded response.
	BytesSent int64
	// Reply is the response for a nil writer, copied into a buffer of the
	// shared frame pool (internal/bufpool) that the caller may release.
	Reply []byte
}

// EncodeResponse writes the restore section and return values to w,
// implementing step 3 of the algorithm: ship back the current state of every
// old object the method changed — reachable or not — with new objects
// inlined on first reference. An unchanged object needs no record: the
// caller's original already holds its state. A nil w leaves the message to
// the stats' Reply.
func (s *ServerCall) EncodeResponse(w io.Writer, rets []any) (ResponseStats, error) {
	if !s.prepared {
		return ResponseStats{}, ErrNotPrepared
	}
	sendOpts := s.opts
	if eng := s.dec.Engine(); eng != 0 {
		// Reply in the engine and access mode the request's header names,
		// whatever this server's configuration and whatever the arguments
		// were: the client decodes the reply in them.
		sendOpts.Engine = eng
		sendOpts.Access = s.dec.Access()
	}
	// Pooled codec, released on the success path; dropped (not recycled)
	// on error.
	enc := wire.AcquireEncoder(w, sendOpts)
	// The response encoder adopts the restore set's objects of the decode
	// table, in stream-ID order — the exact set and order the client's
	// ApplyResponse seeds independently — so an old object's ID on the
	// response stream is its request-stream ID. Objects outside it (by-copy
	// argument data referenced from return values) encode as fresh objects,
	// preserving plain-RMI copy semantics for them.
	n := s.end
	if err := enc.SeedDecoded(s.dec.Objects()[:n]); err != nil {
		return ResponseStats{}, err
	}
	if len(enc.Objects()) != n {
		// Two decoded objects share an identity (zero-size pointees or
		// empty slices, which no honest encoder lists twice).
		return ResponseStats{}, fmt.Errorf("%w: %d distinct objects in a restore set of %d", ErrBadResponse, len(enc.Objects()), n)
	}

	ship := s.dec.Changed(n)
	if err := enc.EncodeUint(uint64(len(ship))); err != nil {
		return ResponseStats{}, err
	}
	for _, idx := range ship {
		if err := enc.EncodeUint(uint64(idx)); err != nil {
			return ResponseStats{}, err
		}
		if err := enc.EncodeSeededContent(idx); err != nil {
			return ResponseStats{}, fmt.Errorf("core: encoding content for object %d: %w", idx, err)
		}
	}
	if err := enc.EncodeUint(uint64(len(rets))); err != nil {
		return ResponseStats{}, err
	}
	for _, ret := range rets {
		if err := enc.Encode(ret); err != nil {
			return ResponseStats{}, fmt.Errorf("core: encoding return value: %w", err)
		}
	}
	if err := enc.Flush(); err != nil {
		return ResponseStats{}, err
	}
	stats := ResponseStats{
		OldTotal:  n,
		OldSent:   len(ship),
		BytesSent: enc.BytesWritten(),
	}
	if w == nil {
		stats.Reply = bufpool.Get(len(enc.Bytes()))
		copy(stats.Reply, enc.Bytes())
	}
	wire.ReleaseEncoder(enc)
	return stats, nil
}
