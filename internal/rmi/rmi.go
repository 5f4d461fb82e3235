// Package rmi implements NRMI's RPC layer: the Go analog of Java RMI with
// the paper's copy-restore extension wired in. It provides object export
// and reflective dispatch (UnicastRemoteObject + skeletons), client stubs,
// per-type calling-semantics selection, remote references with
// reference-counting distributed garbage collection, and an embeddable
// naming service. Like java.rmi's registry and DGC, the naming service and
// the DGC are remote objects, reserved exports dispatched like any other.
//
// Calling semantics are chosen per argument type, exactly as in NRMI
// (paper, Section 5.1):
//
//   - types implementing Restorable are passed by copy-restore: everything
//     reachable from the argument is restored on the caller after the call;
//   - types implementing Remote or RefHolder (or values that already are
//     remote references) are passed by reference: the receiver gets a
//     RemoteRef and every subsequent access is a network round trip (the
//     paper's Figure 3 configuration);
//   - everything else serializable is passed by copy, like java.io.
//     Serializable under RMI;
//   - primitives are passed by value.
//
// Return values are passed by copy, except values implementing Remote or
// RefHolder, which are passed by reference.
//
// A reference follows one rule per direction, the same at both ends.
// Leaving an endpoint (client arguments, server results), a RefHolder
// travels as the reference it wraps and a Remote as the reference the
// endpoint's own server exports it under; a client with no bound server
// fails with ErrNoLocalServer. Arriving (server arguments, client
// results), a reference to one of the endpoint's own live exports becomes
// the object itself, so a method that returns its by-reference argument
// gives the caller its own object back, as a local call would. A server
// fails a call whose own reference no longer resolves before dispatch and
// hands a foreign one to Options.WrapRef; a client keeps either as the raw
// *RemoteRef. References nested inside by-copy values are not converted.
package rmi

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"nrmi/internal/core"
	"nrmi/internal/obs"
	"nrmi/internal/registry"
	"nrmi/internal/transport"
	"nrmi/internal/wire"
)

// Restorable marks types passed by copy-restore, the analog of the paper's
// java.rmi.Restorable marker interface. Implementations are typically
// pointer, named-map, or named-slice types; everything reachable from a
// restorable argument participates in the restore.
type Restorable interface {
	// NRMIRestorable is a marker method; its body is never called.
	NRMIRestorable()
}

// Remote marks types passed by remote reference, the analog of
// java.rmi.server.UnicastRemoteObject. Arguments and return values of
// Remote types are exported by their home server and travel as RemoteRef
// descriptors.
type Remote interface {
	// NRMIRemote is a marker method; its body is never called.
	NRMIRemote()
}

// RefHolder is implemented by application-side proxies that wrap a
// RemoteRef (stubs). When a RefHolder crosses the wire it is replaced by
// the reference it holds, so proxies forward rather than re-export.
type RefHolder interface {
	// NRMIRef returns the wrapped remote reference.
	NRMIRef() *RemoteRef
}

// RemoteRef is the wire descriptor of a remotely accessible object: the
// "remote pointer" of the paper's Figure 3.
type RemoteRef struct {
	// Addr is the exporting server's network address.
	Addr string
	// ID is the object's export id on that server. Named exports use
	// Name instead.
	ID uint64
	// Name is the exported name for registry-published objects; empty for
	// anonymous per-object references.
	Name string
	// TypeName is the wire name of the referenced object's type, for
	// diagnostics and proxy construction.
	TypeName string
}

// objectKey returns the dispatch key a reference resolves to.
func (r *RemoteRef) objectKey() string {
	if r.Name != "" {
		return r.Name
	}
	return fmt.Sprintf("#%d", r.ID)
}

// Errors reported by the RPC layer.
var (
	// ErrNoSuchObject is reported when dispatching to an unknown export.
	ErrNoSuchObject = errors.New("rmi: no such exported object")
	// ErrNoSuchMethod is reported when the target has no such exported
	// method.
	ErrNoSuchMethod = errors.New("rmi: no such method")
	// ErrBadArgument is reported when a decoded argument cannot be passed
	// to the method's parameter.
	ErrBadArgument = errors.New("rmi: argument type mismatch")
	// ErrNoLocalServer is reported when a Remote argument is passed by a
	// client with no local server to export it from.
	ErrNoLocalServer = errors.New("rmi: Remote argument requires a local server")
	// ErrBadDGC is reported for a DGC Dirty call, or a Client.Renew, asking
	// for a lease longer than MaxLease (or, for Renew, not positive); the
	// export's lease is left as it was.
	ErrBadDGC = errors.New("rmi: bad DGC message")
	// ErrServerClosed is reported after Server.Close.
	ErrServerClosed = errors.New("rmi: server closed")
	// ErrUnavailable is reported (across the wire, as a typed status) for
	// requests arriving while the server drains or after it stopped. The
	// method never ran, so the rejection is safely retryable.
	ErrUnavailable = transport.ErrUnavailable
	// ErrOverloaded is reported (across the wire, as a typed status) for
	// calls refused by admission control; see Options.MaxConcurrentCalls.
	// The method never ran, so the rejection is safely retryable.
	ErrOverloaded = transport.ErrOverloaded
)

// Options configures servers and clients.
type Options struct {
	// Core configures the copy-restore engine and wire codec.
	Core core.Options
	// WrapRef, when set, converts the foreign remote references among a
	// server's arguments into application proxies before method dispatch
	// (e.g. a tree-node stub implementing the application's node
	// interface). A reference to one of the server's own exports arrives as
	// the object itself, and a client's results are never wrapped. When
	// nil, methods receive the raw *RemoteRef.
	WrapRef func(ref *RemoteRef) (any, error)
	// Intercept, when set, wraps every invocation on this endpoint: a
	// client's Call and CallStats (registry and DGC calls
	// included; not CallAsync, whose issue/await split has no single body
	// to wrap), and every dispatch on a server. It may inspect the call,
	// enrich the context, veto it by returning an error without invoking
	// next, or wrap errors; next runs the call at most once. Compose
	// multiple concerns by nesting inside one function.
	Intercept Interceptor
	// Retry configures automatic re-sends of failed outbound calls; see
	// RetryPolicy and Retryable for what qualifies. The zero value makes
	// every call a single attempt.
	Retry RetryPolicy
	// CallTimeout bounds each call attempt; an attempt that exceeds it
	// fails with a deadline error (and is retried under Retry). Zero
	// leaves deadlines entirely to the caller's context. The remaining
	// budget is propagated on the wire with each request, so the server
	// stops work the client has already abandoned.
	CallTimeout time.Duration
	// MaxConcurrentCalls caps method invocations executing at once on a
	// server. A call beyond the cap is refused at once with ErrOverloaded,
	// which Retryable classifies as retryable: a client that wants to wait
	// for a slot sets Retry. Zero means unlimited.
	MaxConcurrentCalls int
	// MaxRequestBytes rejects call payloads larger than this before any
	// decoding work. Zero means unlimited.
	MaxRequestBytes int
	// Obs receives per-call phases (encode, transport, decode,
	// restore-commit on clients; decode, prepare, execute, encode-reply on
	// servers). Nil disables phase recording entirely; the disabled path
	// allocates nothing and costs a few nil checks per call. Typically one
	// observer is shared by both endpoints of a process.
	Obs *obs.Observer
}

// CallInfo identifies one invocation for interceptors.
type CallInfo struct {
	// Addr is the remote server's address (empty on the server side).
	Addr string
	// Object is the dispatch key: an export name, "#id", or a reserved
	// export ("#registry", "#dgc").
	Object string
	// Method is the remote method name.
	Method string
	// ArgCount is the number of arguments.
	ArgCount int
}

// Interceptor wraps an invocation; call next to proceed.
type Interceptor func(ctx context.Context, info CallInfo, next func(ctx context.Context) error) error

// intercept runs body under ic (directly when ic is nil), on the client and
// the server alike: the one place the interceptor contract is enforced.
// next runs body at most once; a second call, concurrent ones included,
// fails and runs nothing. An interceptor that returns nil although next did
// not run to success — it never called next, or swallowed next's error —
// fails the call: it would otherwise report success for a body that did not
// complete.
func intercept(ctx context.Context, ic Interceptor, info CallInfo, body func(ctx context.Context) error) error {
	if ic == nil {
		return body(ctx)
	}
	var state atomic.Int32 // 1 once next is entered, 2 once body succeeded
	err := ic(ctx, info, func(ctx context.Context) error {
		if !state.CompareAndSwap(0, 1) {
			return fmt.Errorf("rmi: interceptor for %s called next more than once", info.Method)
		}
		err := body(ctx)
		if err == nil {
			state.Store(2)
		}
		return err
	})
	if err == nil && state.Load() != 2 {
		err = fmt.Errorf("rmi: interceptor for %s skipped the call without error", info.Method)
	}
	return err
}

// registryOf returns the effective wire registry.
func (o Options) registryOf() *wire.Registry {
	if o.Core.Registry != nil {
		return o.Core.Registry
	}
	return wire.DefaultRegistry()
}

// registerProtocolTypes installs the types the rmi protocol itself ships.
func registerProtocolTypes(reg *wire.Registry) error {
	return errors.Join(
		reg.Register("nrmi.RemoteRef", RemoteRef{}),
		reg.Register("nrmi.RegistryEntry", registry.Entry{}),
	)
}
