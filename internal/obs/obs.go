// Package obs is NRMI's phase-level observability layer. The paper's
// performance story (Tables 2–5) attributes NRMI's cost over plain
// call-by-copy to specific pipeline phases — linear-map construction,
// restore-response encoding, in-place restore — and this package makes those
// phases first-class measurements instead of folding them into one opaque
// per-call number.
//
// The model: one remote invocation is a *Call carrying a fixed set of
// Phase slots. A phase is a boundary, not a span: each instrumented section
// ends with Mark, which bills the time since the previous boundary (or
// since Begin) to its phase. So a call's phases are contiguous and
// exclusive, they add up to the call up to its last Mark, and none can be
// left open. The accumulated per-phase durations, byte counts, and object
// counts travel to the Observer when the call finishes. The client and the
// server instrument the same logical call under the same (service, method)
// key but on disjoint phase constants, so a single table can merge both
// endpoints of a call without key collisions.
//
// Cost discipline: instrumentation is compiled in permanently, so the
// disabled path must be near free. Begin returns a nil *Call when no
// Observer is configured, and every method of *Call is safe — and trivial —
// on the nil collector: no time.Now, no atomics, no allocation. The enabled
// path allocates nothing per call in steady state either (collectors are
// pooled); its cost is one time.Now per phase. internal/bench's
// TestNilObserverUnderTwoPercent holds the nil path under 2% of a
// scenario-III call.
package obs

import (
	"sync"
	"time"
)

// Phase identifies one instrumented section of the copy-restore pipeline.
// Client and server phases share the enum so one table indexes both sides
// of a call. Each phase runs from the previous boundary of its call to its
// own.
type Phase uint8

const (
	// PhaseEncode is the client-side argument serialization (graph walk +
	// wire encode, fused in this implementation's single encoder pass).
	PhaseEncode Phase = iota
	// PhaseTransport is the full transport round trip as observed by the
	// client, from the end of encode until the reply is in hand: request
	// write, network, server processing, reply read. It includes retries
	// and backoff pauses.
	PhaseTransport
	// PhaseDecodeReply is the client-side reply decode: waiting for the
	// client's commit lock, seeding the restorable subset, decoding content
	// records into temporaries, and decoding return values. It follows
	// transport on a blocking call and async-await on a promise.
	PhaseDecodeReply
	// PhaseRestoreCommit is the two-phase validate + in-place overwrite of
	// the caller's objects (the paper's steps 5–6).
	PhaseRestoreCommit

	// PhaseSrvDecode is the server-side argument decode (after the object
	// and method name strings).
	PhaseSrvDecode
	// PhaseSrvPrepare shadows the own state of the server's pre-call object
	// set, for change detection; decoding already delimited the set.
	PhaseSrvPrepare
	// PhaseSrvExecute is the remote method body itself, including any
	// interceptor wrapping it and the lock wait of an ExportSerialized
	// export.
	PhaseSrvExecute
	// PhaseSrvEncode is the server-side response encoding: change
	// detection against the shadow, content records, return values.
	PhaseSrvEncode

	// PhaseAsyncIssue is the client-side issue half of a promise call:
	// argument encode plus the non-blocking request send of CallAsync.
	PhaseAsyncIssue
	// PhaseAsyncAwait is the client-side wait half of a promise call, from
	// the end of async-issue until the reply is in hand: the time before
	// Wait was called, then waiting for (or retrying toward) the reply.
	// decode-reply and restore-commit follow as phases of their own.
	PhaseAsyncAwait

	// NumPhases is the number of Phase constants; CallStats arrays are
	// indexed by Phase.
	NumPhases = 10
)

var phaseNames = [NumPhases]string{
	"encode",
	"transport",
	"decode-reply",
	"restore-commit",
	"srv-decode",
	"srv-prepare",
	"srv-execute",
	"srv-encode",
	"async-issue",
	"async-await",
}

// String returns the phase's stable wire name (used in JSON exports).
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// CallKey identifies the aggregation bucket of a call: the export name
// (or "#id" reference key) and the method.
type CallKey struct {
	// Service is the dispatch key of the target object.
	Service string
	// Method is the remote method name.
	Method string
}

// CallStats is everything one finished call measured. The Observer
// receives it by pointer and copies what it keeps: the pointee is recycled
// as soon as the call finishes.
type CallStats struct {
	// Start is when the call's collector was created.
	Start time.Time
	// Total is the wall time from Begin to Finish; the phases add up to at
	// most this.
	Total time.Duration
	// BytesIn and BytesOut are the request/reply payload sizes from this
	// endpoint's perspective (client: out = request, in = reply; the
	// server mirrors them).
	BytesIn, BytesOut int64
	// Err records whether the call finished with an error.
	Err bool
	// PhaseNs, PhaseBytes, and PhaseItems accumulate per-phase duration,
	// bytes processed, and objects processed. PhaseCount says how many
	// marks contributed (0 = the phase did not run).
	PhaseNs    [NumPhases]int64
	PhaseBytes [NumPhases]int64
	PhaseItems [NumPhases]int64
	PhaseCount [NumPhases]uint32
}

// Call collects the phases of one invocation. Obtain one from Begin,
// close it with Finish. A nil *Call is the disabled collector: every
// method is a no-op, so call sites need no conditionals.
//
// A Call is owned by one goroutine at a time (the call path is linear);
// it is not safe for concurrent marking.
type Call struct {
	o    *Observer
	key  CallKey
	cs   CallStats
	last time.Time // the previous phase boundary
}

// callPool recycles collectors so an enabled observer costs no
// steady-state allocation per call.
var callPool = sync.Pool{New: func() any { return new(Call) }}

// Begin opens a collector for one call. It returns nil — the free
// collector — when o is nil.
func Begin(o *Observer, service, method string) *Call {
	if o == nil {
		return nil
	}
	c := callPool.Get().(*Call)
	c.o = o
	c.key = CallKey{Service: service, Method: method}
	c.cs.Start = time.Now()
	c.last = c.cs.Start
	return c
}

// Mark ends phase p now: the time since the previous boundary, or since
// Begin, is billed to p, together with the bytes and items (linear-map
// entries, content records, snapshot copies) it processed. Safe on nil.
func (c *Call) Mark(p Phase, bytes, items int64) {
	if c == nil {
		return
	}
	now := time.Now()
	c.cs.PhaseNs[p] += int64(now.Sub(c.last))
	c.cs.PhaseBytes[p] += bytes
	c.cs.PhaseItems[p] += items
	c.cs.PhaseCount[p]++
	c.last = now
}

// SetIO records the request/reply payload sizes. Safe on nil.
func (c *Call) SetIO(in, out int64) {
	if c == nil {
		return
	}
	c.cs.BytesIn, c.cs.BytesOut = in, out
}

// Finish closes the call, delivers it to the observer, and recycles the
// collector; the Call must not be used afterwards. Safe on nil.
func (c *Call) Finish(err error) {
	if c == nil {
		return
	}
	c.cs.Total = time.Since(c.cs.Start)
	c.cs.Err = err != nil
	c.o.record(c.key, &c.cs)
	c.o = nil
	c.key = CallKey{}
	c.cs = CallStats{}
	callPool.Put(c)
}
