// Package nrmi is a Go reproduction of NRMI — "Natural and Efficient
// Middleware" (Tilevich & Smaragdakis, ICDCS 2003): RPC middleware with
// full call-by-copy-restore semantics for arbitrary linked data structures,
// in addition to the usual call-by-copy and call-by-reference.
//
// # Calling semantics
//
// Like Java RMI (and NRMI), the calling semantics of each remote-method
// argument is chosen by its type:
//
//   - a type implementing Restorable (one empty marker method,
//     NRMIRestorable) is passed by copy-restore: the server works on a deep
//     copy at full speed, and when the call returns, every object that was
//     reachable from the argument is overwritten in place on the caller —
//     so every alias the caller holds observes the server's mutations,
//     including changes to objects the server unlinked, exactly as if the
//     call had been local;
//   - a type implementing Remote (marker method NRMIRemote) is passed by
//     reference: the receiver gets a RemoteRef and every access is a
//     network round trip;
//   - every other serializable value is passed by copy.
//
// For a single-threaded client calling a stateless server, a copy-restore
// call is observationally identical to a local call.
//
// # Quick start
//
// Server:
//
//	type Vector struct{ Words []string }
//	func (*Vector) NRMIRestorable() {}
//
//	type Translator struct{}
//	func (t *Translator) Translate(v *Vector) { ... mutate v.Words ... }
//
//	nrmi.Register("Vector", Vector{})
//	srv, _ := nrmi.NewServer("127.0.0.1:4040", nrmi.Options{})
//	srv.Export("translator", &Translator{})
//	ln, _ := net.Listen("tcp", "127.0.0.1:4040")
//	srv.Serve(ln)
//
// Client:
//
//	cl, _ := nrmi.NewClient(nrmi.TCPDialer(), nrmi.Options{})
//	stub := cl.Stub("127.0.0.1:4040", "translator")
//	stub.Call(ctx, "Translate", vec) // vec mutated in place on return
//
// Every named type crossing the wire must be registered under the same
// name on both endpoints (Register / Options.Registry), like gob.Register,
// and before Export or BindStruct: both refuse a method whose parameters
// or results reach an unregistered type or one no value can be coded by.
package nrmi

import (
	"context"
	"net"
	"time"

	"nrmi/internal/core"
	"nrmi/internal/graph"
	"nrmi/internal/netsim"
	"nrmi/internal/obs"
	"nrmi/internal/registry"
	"nrmi/internal/rmi"
	"nrmi/internal/wire"
)

// Restorable marks types passed by call-by-copy-restore; see the package
// comment. The analog of the paper's java.rmi.Restorable.
type Restorable = rmi.Restorable

// Remote marks types passed by remote reference. The analog of
// java.rmi.server.UnicastRemoteObject.
type Remote = rmi.Remote

// RefHolder is implemented by application proxies wrapping a RemoteRef.
type RefHolder = rmi.RefHolder

// RemoteRef is the wire descriptor of a remotely accessible object.
type RemoteRef = rmi.RemoteRef

// Server exports objects and answers remote invocations.
type Server = rmi.Server

// Client issues remote invocations.
type Client = rmi.Client

// Stub addresses one exported object on one server.
type Stub = rmi.Stub

// Dialer opens connections to named endpoints.
type Dialer = rmi.Dialer

// Registry maps wire names to types; see Register.
type Registry = wire.Registry

// ErrRegistryConflict is reported when a registration would rebind a
// name to a different type or a type to a different name; the message
// carries both bindings.
var ErrRegistryConflict = wire.ErrRegistryConflict

// Errors Server.Export and Client.BindStruct report for a signature no
// call can carry, naming the export, the method and the type path.
var (
	// ErrTypeNotRegistered: a named type a parameter or result reaches is
	// not registered on this endpoint.
	ErrTypeNotRegistered = wire.ErrTypeNotRegistered
	// ErrNotSerializable: a parameter or result reaches a chan, func,
	// unsafe.Pointer or uintptr.
	ErrNotSerializable = graph.ErrNotSerializable
)

// RegistryServer is the naming service (rmiregistry analog). A server
// serves one with Server.EnableRegistry, and clients reach it with
// Client.Registry and Client.LookupStub; a standalone registry is a server
// that exports nothing else.
type RegistryServer = registry.Server

// RegistryEntry is one naming-service binding.
type RegistryEntry = registry.Entry

// Engine selects the wire codec generation.
type Engine = wire.Engine

// Codec engine generations; V2 is the default. V1 exists for the
// paper's JDK 1.3 baseline measurements. V3 sends and receives V2's bytes
// and decodes each new pointer object and slice into a per-call arena
// (docs/PROTOCOL.md §9): fewer allocations, at the price that
// runtime.SetFinalizer on a decoded object is a fatal error. A server
// answers in the format a request arrived in; a client sends what
// Options.Engine says.
const (
	EngineV1 = wire.EngineV1
	EngineV2 = wire.EngineV2
	EngineV3 = wire.EngineV3
)

// Options configures servers and clients. The zero value is the sensible
// default: optimized engine, exported fields only.
type Options struct {
	// Engine selects the codec generation (default EngineV2).
	Engine Engine
	// UnsafeAccess serializes and restores unexported struct fields via
	// unsafe-backed accessors (the paper's "optimized" privileged access).
	// Without it, types crossing the wire must keep their remote-visible
	// state in exported fields.
	UnsafeAccess bool
	// Registry resolves named types; nil means the process-wide default.
	Registry *Registry
	// WrapRef converts inbound remote references into application proxies
	// before dispatch; see the rmi layer documentation.
	WrapRef func(ref *RemoteRef, c *Client) (any, error)
	// Intercept wraps every invocation on this endpoint for logging,
	// metrics, or policy: on a client Call, CallStats and CallOneWay (not
	// CallAsync, whose issue/await split has no single body to wrap), on a
	// server every inbound dispatch. The interceptor may veto by returning
	// an error without calling next; next runs the call at most once.
	Intercept Interceptor
	// Retry configures automatic re-sends of failed outbound calls; see
	// RetryPolicy and Retryable. The zero value disables retries. A call
	// whose response bytes were already consumed is never re-sent,
	// preserving exactly-once restore (see docs/PROTOCOL.md, section 7).
	Retry RetryPolicy
	// CallTimeout bounds each call attempt; attempts exceeding it fail
	// with a deadline error and are retried under Retry. Zero leaves
	// deadlines entirely to the caller's context. The remaining budget
	// travels with each request (docs/PROTOCOL.md, section 8), so servers
	// cancel work the client has already abandoned.
	CallTimeout time.Duration
	// MaxConcurrentCalls caps method invocations executing at once on a
	// server; excess calls fail fast with ErrOverloaded, or wait if
	// AdmissionQueue is set. Zero means unlimited.
	MaxConcurrentCalls int
	// AdmissionQueue bounds how many over-cap calls may wait for a free
	// slot instead of being rejected outright. Zero disables queueing.
	AdmissionQueue int
	// AdmissionWait bounds how long a queued call waits for a slot before
	// failing with ErrOverloaded. Zero waits until the caller's propagated
	// deadline.
	AdmissionWait time.Duration
	// MaxRequestBytes rejects call payloads larger than this before any
	// decoding work on the server. Zero means unlimited. The decoder
	// believes no length the bytes after it cannot carry, so this also
	// bounds what a request makes the server allocate: 24 times as much.
	MaxRequestBytes int
	// Observer receives per-call phase measurements (latency, bytes, object
	// counts per pipeline phase) from this endpoint; see NewObserver. Nil
	// disables phase recording entirely — the disabled path costs nothing
	// per call.
	Observer *Observer
}

// CallInfo identifies one invocation for interceptors.
type CallInfo = rmi.CallInfo

// Interceptor wraps an invocation; call next to proceed.
type Interceptor = rmi.Interceptor

// RetryPolicy configures automatic re-sends of failed remote calls:
// attempt count, exponential backoff, jitter, and a replayable seed.
type RetryPolicy = rmi.RetryPolicy

// ResponseConsumedError marks a call that failed after its response bytes
// were consumed; such calls are never retried (exactly-once restore).
type ResponseConsumedError = rmi.ResponseConsumedError

// Promise is the handle to an asynchronous call issued with
// Stub.CallAsync. Wait consumes the response — decoding results and
// committing the copy-restore writeback at that point, serialized
// against the client's other commits — and every later Wait returns the
// same outcome. Compose dependent calls with Promise.Then, join fans of
// independent calls with All, and release a response that will never be
// consumed with Promise.Abandon. A Promise is single-owner: methods on
// one Promise must not race each other.
type Promise = rmi.Promise

// ErrPromiseAbandoned is reported by Wait on a promise released with
// Abandon before its response was consumed.
var ErrPromiseAbandoned = rmi.ErrPromiseAbandoned

// ErrOneWayRestorable rejects Stub.CallOneWay invocations carrying a
// Restorable argument: a one-way call has no reply frame to carry the
// restore image, so copy-restore semantics are impossible by
// construction (docs/PROTOCOL.md, section 10).
var ErrOneWayRestorable = rmi.ErrOneWayRestorable

// All waits for every promise in order and collects their results;
// ps[i]'s results land in the i-th slot. On the first failure it
// abandons the remaining unconsumed promises and returns that error —
// All is a join, not a transaction: restores committed by promises that
// completed before the failure remain applied.
func All(ctx context.Context, ps ...*Promise) ([][]any, error) { return rmi.All(ctx, ps...) }

// Retryable reports whether a failed call may safely be re-sent; see the
// rmi layer documentation for the classification rules.
func Retryable(err error) bool { return rmi.Retryable(err) }

// Typed server rejections; both are safely retryable (the method never
// ran) and Retryable reports true for them.
var (
	// ErrUnavailable is returned for calls reaching a server that is
	// draining (Server.Shutdown) or stopped.
	ErrUnavailable = rmi.ErrUnavailable
	// ErrOverloaded is returned for calls refused by admission control
	// (Options.MaxConcurrentCalls and the admission queue).
	ErrOverloaded = rmi.ErrOverloaded
)

// ServerMetrics is a snapshot of a server's request counters, including
// the degradation paths: rejected, unavailable, abandoned, and cancelled
// calls, and drain duration.
type ServerMetrics = rmi.Metrics

// ClientMetrics is a snapshot of a client's call, retry, reconnect, byte,
// and payload-ownership counters; see Client.Metrics.
type ClientMetrics = rmi.ClientMetrics

// Observer aggregates per-call phase measurements into per-(service,
// method, phase) histograms and a bounded ring of recent call traces.
// Attach one via Options.Observer; export its state with
// Observer.Snapshot, Observer.Handler (the /debug/nrmi/metrics and
// /debug/nrmi/traces JSON endpoints), or Observer.Publish (expvar).
type Observer = obs.Observer

// ObserverConfig tunes an Observer; the zero value is usable.
type ObserverConfig = obs.Config

// NewObserver returns an Observer with the given configuration. The same
// Observer may serve several endpoints; a client and a server sharing one
// merge both sides of each call under its (service, method) key.
func NewObserver(cfg ObserverConfig) *Observer { return obs.New(cfg) }

// rmiOptions lowers public options onto the internal stack.
func (o Options) rmiOptions() rmi.Options {
	access := graph.AccessExported
	if o.UnsafeAccess {
		access = graph.AccessUnsafe
	}
	return rmi.Options{
		Core: core.Options{
			Engine:   o.Engine,
			Access:   access,
			Registry: o.Registry,
		},
		WrapRef:            o.WrapRef,
		Intercept:          o.Intercept,
		Retry:              o.Retry,
		CallTimeout:        o.CallTimeout,
		MaxConcurrentCalls: o.MaxConcurrentCalls,
		AdmissionQueue:     o.AdmissionQueue,
		AdmissionWait:      o.AdmissionWait,
		MaxRequestBytes:    o.MaxRequestBytes,
		Obs:                o.Observer,
	}
}

// NewServer returns a server identifying itself under addr (the address
// clients dial, e.g. "127.0.0.1:4040"). Call Serve with a listener on that
// address to start answering.
func NewServer(addr string, opts Options) (*Server, error) {
	return rmi.NewServer(addr, opts.rmiOptions())
}

// NewClient returns a client reaching servers through dialer.
func NewClient(dialer Dialer, opts Options) (*Client, error) {
	return rmi.NewClient(dialer, opts.rmiOptions())
}

// TCPDialer dials addresses over TCP.
func TCPDialer() Dialer {
	return func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
}

// NewRegistry returns an empty type registry for endpoints that prefer
// explicit registries over the process-wide default.
func NewRegistry() *Registry { return wire.NewRegistry() }

// Register records sample's type under name in the process-wide default
// registry. Both endpoints must register the same name/type pairs.
func Register(name string, sample any) error { return wire.Register(name, sample) }

// SimNetwork is an in-process network for tests and experiments that
// counts bytes and messages and injects faults; its Dial method is a
// Dialer.
type SimNetwork = netsim.Network

// NewSimNetwork returns an empty in-process network.
func NewSimNetwork() *SimNetwork { return netsim.NewNetwork() }

// SimFaultPlan is a deterministic per-link fault schedule for a simulated
// network: dropped, delayed, duplicated, corrupted, and severed frames,
// all derived from a seed so runs replay exactly.
type SimFaultPlan = netsim.Plan

// SimFaultRates sets per-frame fault probabilities for random plans.
type SimFaultRates = netsim.Rates

// NewSimFaultPlan returns an empty fault plan; chain DropFrame, DelayFrame,
// DuplicateFrame, CorruptFrame, and SeverFrame to schedule fixed faults.
// Attach it to a link with SimNetwork.SetFaults.
func NewSimFaultPlan(seed int64) *SimFaultPlan { return netsim.NewPlan(seed) }

// RandomSimFaultPlan returns a plan injecting faults at the given rates,
// drawn from a generator seeded with seed.
func RandomSimFaultPlan(seed int64, rates SimFaultRates) *SimFaultPlan {
	return netsim.RandomPlan(seed, rates)
}
