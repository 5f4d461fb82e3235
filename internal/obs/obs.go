// Package obs is NRMI's phase-level observability layer. The paper's
// performance story (Tables 2–5) attributes NRMI's cost over plain
// call-by-copy to specific pipeline phases — linear-map construction,
// restore-response encoding, in-place restore — and this package makes those
// phases first-class measurements instead of folding them into one opaque
// per-call number.
//
// The model: one remote invocation is a *Call carrying a fixed set of
// Phase slots. Each instrumented section opens a Span on its phase and
// closes it when the section ends; the accumulated per-phase durations,
// byte counts, and object counts travel to a Recorder when the call
// finishes. The client and the server instrument the same logical call
// under the same (service, method) key but on disjoint phase constants,
// so a single table can merge both endpoints of a call without key
// collisions.
//
// Cost discipline: instrumentation is compiled in permanently, so the
// disabled path must be near free. Begin returns a nil *Call when no
// Recorder is configured, and every method of *Call and *Span is safe —
// and trivial — on the nil collector: no time.Now, no atomics, no
// allocation. The enabled path allocates nothing per call in steady
// state either (collectors are pooled); its cost is the time.Now pair
// per span. make obs-smoke enforces that the nil path stays under 2% of
// a scenario-III call.
package obs

import (
	"runtime/metrics"
	"sync"
	"time"
)

// Phase identifies one instrumented section of the copy-restore pipeline.
// Client and server phases share the enum so one table indexes both sides
// of a call.
type Phase uint8

const (
	// PhaseEncode is the client-side argument serialization (graph walk +
	// wire encode, fused in this implementation's single encoder pass).
	PhaseEncode Phase = iota
	// PhaseTransport is the full transport round trip as observed by the
	// client: request write, network, server processing, reply read. It
	// includes retries and backoff pauses.
	PhaseTransport
	// PhaseDecodeReply is the client-side reply decode: seeding the
	// restorable subset, decoding content records into temporaries, and
	// decoding return values.
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
	// PhaseSrvExecute is the remote method body itself (including any
	// interceptor wrapping it).
	PhaseSrvExecute
	// PhaseSrvEncode is the server-side response encoding: change
	// detection against the shadow, content records, return values.
	PhaseSrvEncode

	// PhaseAsyncIssue is the client-side issue half of a promise call:
	// argument encode plus the non-blocking request send of CallAsync.
	PhaseAsyncIssue
	// PhaseAsyncAwait is the client-side consumption half of a promise
	// call: waiting for (or retrying toward) the reply plus decode and
	// restore commit, measured from Wait entry.
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

// CallStats is everything one finished call measured. A Recorder receives
// it by pointer for efficiency and must copy whatever it keeps: the
// pointee is recycled as soon as RecordCall returns.
type CallStats struct {
	// Start is when the call's collector was created.
	Start time.Time
	// Total is the wall time from Begin to Finish.
	Total time.Duration
	// BytesIn and BytesOut are the request/reply payload sizes from this
	// endpoint's perspective (client: out = request, in = reply; the
	// server mirrors them).
	BytesIn, BytesOut int64
	// Allocs is the number of heap objects allocated during the call, when
	// the recorder asked for alloc sampling (see AllocSampler); -1 when
	// not sampled. The counter is process-global, so the number is only
	// meaningful on measurement runs without concurrent allocation noise.
	Allocs int64
	// Err records whether the call finished with an error.
	Err bool
	// PhaseNs, PhaseBytes, and PhaseItems accumulate per-phase duration,
	// bytes processed, and objects processed. PhaseCount says how many
	// spans contributed (0 = the phase did not run).
	PhaseNs    [NumPhases]int64
	PhaseBytes [NumPhases]int64
	PhaseItems [NumPhases]int64
	PhaseCount [NumPhases]uint32
}

// Recorder consumes finished calls. Implementations must be safe for
// concurrent use and must not retain the *CallStats past the call.
type Recorder interface {
	RecordCall(key CallKey, cs *CallStats)
}

// AllocSampler is an optional Recorder capability: when it reports true,
// Begin brackets the call with allocation-counter reads (a cheap
// runtime/metrics read, no stop-the-world) and fills CallStats.Allocs.
type AllocSampler interface {
	SampleAllocs() bool
}

// Call collects the spans of one invocation. Obtain one from Begin,
// close it with Finish. A nil *Call is the disabled collector: every
// method is a no-op, so call sites need no conditionals.
//
// A Call is owned by one goroutine at a time (the call path is linear);
// it is not safe for concurrent span recording.
type Call struct {
	rec Recorder
	key CallKey
	cs  CallStats

	sampleAllocs bool
	allocSample  [1]metrics.Sample
	startAllocs  uint64
}

// callPool recycles collectors so an enabled recorder costs no steady-state
// allocation per call.
var callPool = sync.Pool{New: func() any {
	c := new(Call)
	c.allocSample[0].Name = allocMetric
	return c
}}

const allocMetric = "/gc/heap/allocs:objects"

// Begin opens a collector for one call. It returns nil — the free
// collector — when rec is nil.
func Begin(rec Recorder, service, method string) *Call {
	if rec == nil {
		return nil
	}
	c := callPool.Get().(*Call)
	c.rec = rec
	c.key = CallKey{Service: service, Method: method}
	c.cs.Start = time.Now()
	c.cs.Allocs = -1
	if as, ok := rec.(AllocSampler); ok && as.SampleAllocs() {
		c.sampleAllocs = true
		metrics.Read(c.allocSample[:])
		c.startAllocs = c.allocSample[0].Value.Uint64()
	}
	return c
}

// Start opens a span on phase p. Safe on a nil receiver (returns the
// inert span).
func (c *Call) Start(p Phase) Span {
	if c == nil {
		return Span{}
	}
	return Span{c: c, phase: p, start: time.Now()}
}

// SetIO records the request/reply payload sizes. Safe on nil.
func (c *Call) SetIO(in, out int64) {
	if c == nil {
		return
	}
	c.cs.BytesIn, c.cs.BytesOut = in, out
}

// Finish closes the call, delivers it to the recorder, and recycles the
// collector; the Call must not be used afterwards. Safe on nil.
func (c *Call) Finish(err error) {
	if c == nil {
		return
	}
	c.cs.Total = time.Since(c.cs.Start)
	c.cs.Err = err != nil
	if c.sampleAllocs {
		metrics.Read(c.allocSample[:])
		c.cs.Allocs = int64(c.allocSample[0].Value.Uint64() - c.startAllocs)
	}
	c.rec.RecordCall(c.key, &c.cs)
	c.rec = nil
	c.key = CallKey{}
	c.cs = CallStats{}
	c.sampleAllocs = false
	c.startAllocs = 0
	callPool.Put(c)
}

// Span is one open phase measurement. End it exactly once on every path
// (nrmi-vet's span-end check enforces this repo-wide); ending is
// idempotent, so a defer after a manual End is harmless.
type Span struct {
	c     *Call
	phase Phase
	start time.Time
}

// End closes the span, accumulating its elapsed time into the call.
// Safe on the inert span and after a previous End.
func (s *Span) End() {
	if s.c == nil {
		return
	}
	d := time.Since(s.start)
	s.c.cs.PhaseNs[s.phase] += int64(d)
	s.c.cs.PhaseCount[s.phase]++
	s.c = nil
}

// EndBytes is End, additionally attributing n processed bytes to the
// phase.
func (s *Span) EndBytes(n int64) {
	if s.c == nil {
		return
	}
	s.c.cs.PhaseBytes[s.phase] += n
	s.End()
}

// EndN is End, attributing both bytes and an object count (linear-map
// entries, content records, snapshot copies) to the phase.
func (s *Span) EndN(bytes, items int64) {
	if s.c == nil {
		return
	}
	s.c.cs.PhaseBytes[s.phase] += bytes
	s.c.cs.PhaseItems[s.phase] += items
	s.End()
}
