package rmi

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nrmi/internal/core"
	"nrmi/internal/obs"
	"nrmi/internal/registry"
	"nrmi/internal/transport"
)

// MaxLease is the longest lease a DGC Dirty call may ask for.
const MaxLease = 24 * time.Hour

// defaultLease is how long an anonymous export stays alive without a
// renewal, mirroring java.rmi.dgc.leaseValue (10 minutes).
const defaultLease = 10 * time.Minute

// Server exports objects and dispatches remote invocations to them.
type Server struct {
	opts Options
	addr string

	mu      sync.Mutex
	exports map[string]export
	refs    map[uint64]*refEntry
	// refIdent finds an object's anonymous export by the object itself:
	// its address and its type, as distinct zero-size objects may share an
	// address.
	refIdent map[any]uint64
	nextRef  uint64
	closed   bool
	// draining is set by Shutdown and Close: new requests are refused with
	// ErrUnavailable. The transport counts a frame before handle sees it, so
	// a request that loads false here is one Shutdown's Drain waits for.
	draining atomic.Bool

	// callSem is the admission semaphore (nil when MaxConcurrentCalls is
	// unset).
	callSem chan struct{}

	// sweeper state for the background lease collector.
	sweepStop chan struct{}

	metrics serverMetrics

	methodCache sync.Map // reflect.Type -> map[string]reflect.Method

	tsrv *transport.Server
}

// export is one named export: the object, the name it is bound under and,
// for ExportSerialized, the mutex its calls run under. label keys its calls
// in the observer: the name, a refEntry's label when resolveTarget returns
// an anonymous export, or unresolved for a key the server does not hold.
type export struct {
	name   string
	label  string
	v      reflect.Value
	serial *sync.Mutex
}

// refEntry is one anonymous export with its DGC state. Its label, "#" and
// the type's wire name, keys its calls in the observer, which so keeps one
// entry per type rather than one per object.
type refEntry struct {
	val    reflect.Value
	label  string
	count  int
	expiry time.Time
}

// Reserved export names: the naming service (EnableRegistry) and the DGC,
// which every server exports. Export and Unexport refuse '#' names.
const (
	registryName = "#registry"
	dgcName      = "#dgc"
)

// NewServer returns a server that will identify itself to peers under
// addr (the address clients dial) and exports its DGC. Registering the
// protocol types on the configured wire registry happens here.
func NewServer(addr string, opts Options) (*Server, error) {
	if err := registerProtocolTypes(opts.registryOf()); err != nil {
		return nil, err
	}
	s := &Server{
		opts:     opts,
		addr:     addr,
		exports:  make(map[string]export),
		refs:     make(map[uint64]*refEntry),
		refIdent: make(map[any]uint64),
	}
	if opts.MaxConcurrentCalls > 0 {
		s.callSem = make(chan struct{}, opts.MaxConcurrentCalls)
	}
	s.exports[dgcName] = export{name: dgcName, label: dgcName, v: reflect.ValueOf(&dgc{s})}
	return s, nil
}

// Addr returns the address this server identifies itself under.
func (s *Server) Addr() string { return s.addr }

// EnableRegistry exports a naming service under "#registry" and returns it
// (the same one on every call). A standalone registry is a server that
// exports nothing else, the way rmiregistry is an RMI server.
func (s *Server) EnableRegistry() *registry.Server {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.exports[registryName]; ok {
		return e.v.Interface().(*registry.Server)
	}
	reg := new(registry.Server)
	s.exports[registryName] = export{name: registryName, label: registryName, v: reflect.ValueOf(reg)}
	return reg
}

// Export publishes obj under name. Methods with exported names become
// remotely callable. Exporting replaces any previous binding of the name.
// Register types first: Export refuses a method whose parameters or
// results reach an unregistered type (wire.ErrTypeNotRegistered) or a
// kind no value can be coded by (graph.ErrNotSerializable), unexported
// fields included: a request may announce AccessUnsafe.
func (s *Server) Export(name string, obj any) error { return s.bind(name, obj, nil) }

// ExportSerialized publishes obj like Export, but additionally serializes
// its invocations: at most one method of this export runs at a time.
// Plain exports follow RMI's contract — the runtime makes no
// synchronization guarantees and the object must be thread-safe itself;
// ExportSerialized trades throughput for not having to be.
func (s *Server) ExportSerialized(name string, obj any) error {
	return s.bind(name, obj, new(sync.Mutex))
}

// bind publishes obj under name with the mutex its calls run under (nil
// for none), replacing the previous binding of the name and its mutex.
func (s *Server) bind(name string, obj any, serial *sync.Mutex) error {
	if obj == nil {
		return fmt.Errorf("rmi: Export(%q) with nil object", name)
	}
	if name == "" || name[0] == '#' {
		return fmt.Errorf("rmi: invalid export name %q", name)
	}
	v := reflect.ValueOf(obj)
	if v.Kind() != reflect.Ptr || v.IsNil() {
		return fmt.Errorf("rmi: exported object must be a non-nil pointer, got %T", obj)
	}
	for i := 0; i < v.Type().NumMethod(); i++ {
		if err := s.opts.checkSignature(v.Method(i).Type()); err != nil {
			return fmt.Errorf("rmi: Export(%q): method %s: %w", name, v.Type().Method(i).Name, err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrServerClosed
	}
	s.exports[name] = export{name, name, v, serial}
	return nil
}

// Unexport removes a named export. Reserved '#' names are ignored.
func (s *Server) Unexport(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !strings.HasPrefix(name, "#") {
		delete(s.exports, name)
	}
}

// Ref exports obj anonymously (or bumps its reference count if already
// exported) and returns the descriptor to ship to peers. It is the
// marshaling path for Remote arguments and return values, and increments
// the DGC count exactly once per descriptor produced.
func (s *Server) Ref(obj any) (*RemoteRef, error) {
	if obj == nil {
		return nil, fmt.Errorf("rmi: Ref(nil)")
	}
	v := reflect.ValueOf(obj)
	if v.Kind() != reflect.Ptr || v.IsNil() {
		return nil, fmt.Errorf("rmi: remote-referenced object must be a non-nil pointer, got %T", obj)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrServerClosed
	}
	id, ok := s.refIdent[obj]
	if !ok {
		typeName := v.Type().Elem().String()
		if n, err := s.opts.registryOf().NameOf(v.Type().Elem()); err == nil {
			typeName = n
		}
		s.nextRef++
		id = s.nextRef
		s.refIdent[obj] = id
		s.refs[id] = &refEntry{val: v, label: "#" + typeName}
	}
	e := s.refs[id]
	e.count++
	e.expiry = time.Now().Add(defaultLease)
	return &RemoteRef{Addr: s.addr, ID: id, TypeName: e.label[1:]}, nil
}

// LiveRefs returns the number of anonymously exported objects still pinned
// by remote references — the observable the paper's distributed-cycle leak
// grows without bound (Section 5.3.3, last bullet).
func (s *Server) LiveRefs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.refs)
}

// dgc is the distributed GC's remote interface, the analog of
// java.rmi.dgc.DGC, exported by every server under "#dgc". Calls naming an
// id that is not exported are no-ops.
type dgc struct{ s *Server }

// Dirty renews export id's lease to secs seconds from now. A lease longer
// than MaxLease is refused with ErrBadDGC and the lease left as it was:
// an unchecked count wraps time.Duration negative and expires an export
// other clients hold.
func (d *dgc) Dirty(id, secs uint64) error {
	if secs > uint64(MaxLease/time.Second) {
		return fmt.Errorf("%w: lease of %d s exceeds %v", ErrBadDGC, secs, MaxLease)
	}
	d.s.mu.Lock()
	defer d.s.mu.Unlock()
	if e, ok := d.s.refs[id]; ok {
		e.expiry = time.Now().Add(time.Duration(secs) * time.Second)
	}
	return nil
}

// Clean drops one of export id's references, collecting it at zero.
func (d *dgc) Clean(id uint64) {
	d.s.mu.Lock()
	defer d.s.mu.Unlock()
	if e, ok := d.s.refs[id]; ok {
		if e.count--; e.count <= 0 {
			d.s.dropRefLocked(id, e)
		}
	}
}

func (s *Server) dropRefLocked(id uint64, e *refEntry) {
	delete(s.refs, id)
	delete(s.refIdent, e.val.Interface())
}

// SweepLeases drops exports whose leases expired, the recovery path for
// crashed clients. It returns how many exports were collected.
func (s *Server) SweepLeases(now time.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	collected := 0
	for id, e := range s.refs {
		if e.expiry.Before(now) {
			s.dropRefLocked(id, e)
			collected++
		}
	}
	return collected
}

// StartLeaseSweeper launches a background goroutine sweeping expired
// leases every interval, the analog of RMI's DGC daemon. It stops when the
// server closes; starting twice is a no-op, and so is a non-positive
// interval (SweepLeases still collects by hand).
func (s *Server) StartLeaseSweeper(interval time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if interval <= 0 || s.closed || s.sweepStop != nil {
		return
	}
	stop := make(chan struct{})
	s.sweepStop = stop
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				s.SweepLeases(time.Now())
			case <-stop:
				return
			}
		}
	}()
}

// Metrics is a snapshot of a server's request counters. Every dispatched
// request lands in exactly one disposition: served (CallsServed, of which
// CallErrors failed and CallsCancelled were deadline-cancelled mid-
// execution), rejected (CallsRejected), unavailable (CallsUnavailable), or
// abandoned before dispatch (CallsAbandoned). The counters therefore obey
// CallsServed ≥ CallErrors ≥ CallsCancelled at every instant.
type Metrics struct {
	// CallsServed counts dispatched method invocations, successful or not.
	CallsServed int64
	// CallErrors counts invocations that returned an error to the caller.
	// Every cancelled call is also an errored call, so CallErrors ≥
	// CallsCancelled.
	CallErrors int64
	// BytesIn and BytesOut count request and reply payload bytes of
	// dispatched calls only: requests refused by MaxRequestBytes, admission
	// control, draining, or pre-dispatch abandonment contribute to neither.
	BytesIn, BytesOut int64
	// ObjectsRestored counts content records shipped in restore sections.
	ObjectsRestored int64
	// CallsRejected counts calls refused by admission control — the
	// concurrency limit (ErrOverloaded) or MaxRequestBytes. Rejected calls
	// are not included in CallsServed: the method never ran.
	CallsRejected int64
	// CallsUnavailable counts requests refused with ErrUnavailable because
	// they arrived while the server was draining or closed.
	CallsUnavailable int64
	// CallsCancelled counts dispatched calls whose propagated client
	// deadline expired during execution. Each is also counted in
	// CallsServed and CallErrors: the method ran (or started to) and the
	// caller saw an error.
	CallsCancelled int64
	// CallsAbandoned counts admitted calls dropped before dispatch because
	// the client's deadline was already spent when the request arrived, or
	// the server is closing. The method never ran, so these appear in
	// neither CallsServed nor CallErrors nor CallsCancelled.
	CallsAbandoned int64
	// BatchedCalls is never incremented; it stays for its one reader, benchmark/proc.go.
	BatchedCalls int64
	// DrainDuration is the cumulative time Shutdown spent waiting for
	// in-flight calls to complete.
	DrainDuration time.Duration
}

// serverMetrics is the live counter set.
type serverMetrics struct {
	calls       atomic.Int64
	errors      atomic.Int64
	bytesIn     atomic.Int64
	bytesOut    atomic.Int64
	restored    atomic.Int64
	rejected    atomic.Int64
	unavailable atomic.Int64
	cancelled   atomic.Int64
	abandoned   atomic.Int64
	drainNanos  atomic.Int64
}

// Metrics returns a snapshot of the server's counters.
func (s *Server) Metrics() Metrics {
	// Loaded in the reverse of the order a call bumps them, so a snapshot
	// taken while calls finish still sees CallsServed ≥ CallErrors ≥
	// CallsCancelled.
	cancelled := s.metrics.cancelled.Load()
	errors := s.metrics.errors.Load()
	return Metrics{
		CallsServed:      s.metrics.calls.Load(),
		CallErrors:       errors,
		BytesIn:          s.metrics.bytesIn.Load(),
		BytesOut:         s.metrics.bytesOut.Load(),
		ObjectsRestored:  s.metrics.restored.Load(),
		CallsRejected:    s.metrics.rejected.Load(),
		CallsUnavailable: s.metrics.unavailable.Load(),
		CallsCancelled:   cancelled,
		CallsAbandoned:   s.metrics.abandoned.Load(),
		DrainDuration:    time.Duration(s.metrics.drainNanos.Load()),
	}
}

// Serve starts answering requests on ln. Call Close to stop, or Shutdown
// to drain first. Serving after Close is a no-op that closes ln.
func (s *Server) Serve(ln net.Listener) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return
	}
	s.tsrv = transport.ServePooled(ln, s.handle)
	s.mu.Unlock()
}

// Close stops serving and the lease sweeper immediately, without draining.
// It is safe before Serve, after Serve, called twice, and concurrently
// with in-flight handle invocations (which run to completion — the
// transport layer waits for its handler goroutines).
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.draining.Store(true)
	if s.sweepStop != nil {
		close(s.sweepStop)
		s.sweepStop = nil
	}
	tsrv := s.tsrv
	s.mu.Unlock()
	if tsrv == nil {
		return nil
	}
	return tsrv.Close()
}

// Shutdown degrades gracefully: it stops accepting new connections,
// refuses requests that arrive after this point with ErrUnavailable (a
// typed, safely-retryable rejection — the method never ran), waits for
// every in-flight handler to complete, then closes. If ctx expires before
// the drain finishes, Shutdown returns ctx.Err() and completes the
// teardown in the background: connections are closed (cutting off the
// stragglers' callers) and handler contexts cancelled, but goroutines
// stuck in methods that ignore cancellation finish on their own time.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining.Store(true)
	tsrv := s.tsrv
	s.mu.Unlock()
	if tsrv == nil {
		return s.Close()
	}
	tsrv.StopAccepting()
	// A request counts from its frame to the last byte of its reply: a drained
	// call's response is on the wire before Close tears the connection down.
	start := time.Now()
	err := tsrv.Drain(ctx)
	s.metrics.drainNanos.Add(time.Since(start).Nanoseconds())
	if err != nil {
		// Close waits for in-flight handlers; after a failed drain that
		// wait must not block the caller.
		go s.Close()
		return err
	}
	return s.Close()
}

// admit gates one request against the drain state.
func (s *Server) admit() error {
	if s.draining.Load() {
		s.metrics.unavailable.Add(1)
		return fmt.Errorf("%w: %s is shutting down", transport.ErrUnavailable, s.addr)
	}
	return nil
}

// acquireSlot enforces MaxConcurrentCalls: take a semaphore slot if one is
// free, otherwise fail with ErrOverloaded at once. A caller that wants to
// wait for a slot retries (Retryable classifies ErrOverloaded as retryable).
func (s *Server) acquireSlot() (release func(), err error) {
	if s.callSem == nil {
		return func() {}, nil
	}
	select {
	case s.callSem <- struct{}{}:
		return s.releaseSlot, nil
	default:
		return nil, fmt.Errorf("%w: %d calls in flight", transport.ErrOverloaded, cap(s.callSem))
	}
}

func (s *Server) releaseSlot() { <-s.callSem }

// handle dispatches one transport frame. ctx carries the client's
// propagated per-call deadline (when the request frame had one) and is
// cancelled when the server closes.
func (s *Server) handle(ctx context.Context, msgType byte, payload []byte) (out []byte, err error) {
	if err := s.admit(); err != nil {
		return nil, err
	}
	switch msgType {
	case transport.MsgCall:
		if max := s.opts.MaxRequestBytes; max > 0 && len(payload) > max {
			s.metrics.rejected.Add(1)
			return nil, fmt.Errorf("rmi: %d-byte request exceeds MaxRequestBytes %d", len(payload), max)
		}
		slot, err := s.acquireSlot()
		if err != nil {
			s.metrics.rejected.Add(1)
			return nil, err
		}
		defer slot()
		if err := ctx.Err(); err != nil {
			// The caller's deadline was spent on arrival, or the server is
			// closing; don't run work nobody is waiting for. The method
			// never ran, so this is an abandonment, not a
			// served-then-cancelled call.
			s.metrics.abandoned.Add(1)
			return nil, fmt.Errorf("rmi: call abandoned before dispatch: %w", err)
		}
		s.metrics.calls.Add(1)
		s.metrics.bytesIn.Add(int64(len(payload)))
		reply, err := s.handleCall(ctx, payload)
		if err != nil {
			// errors before cancelled, so concurrent snapshots always see
			// CallErrors ≥ CallsCancelled (calls was bumped pre-dispatch,
			// keeping CallsServed ≥ CallErrors the same way).
			s.metrics.errors.Add(1)
			if ctx.Err() != nil {
				s.metrics.cancelled.Add(1)
			}
		}
		s.metrics.bytesOut.Add(int64(len(reply)))
		return reply, err
	default:
		return nil, fmt.Errorf("rmi: unknown message type %d", msgType)
	}
}

// resolveTarget maps a dispatch key ("name" or "#id") to the target object
// and the key as a string: a named export's own, so resolving one copies
// nothing out of the request.
func (s *Server) resolveTarget(key []byte) (export, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.exports[string(key)]; ok {
		return e, nil
	}
	k := string(key)
	unknown := export{name: k, label: unresolved}
	if len(k) > 0 && k[0] == '#' {
		id, err := strconv.ParseUint(k[1:], 10, 64)
		if err != nil {
			return unknown, fmt.Errorf("%w: bad reference key %q", ErrNoSuchObject, k)
		}
		e, ok := s.refs[id]
		if !ok {
			return unknown, fmt.Errorf("%w: reference %s (collected?)", ErrNoSuchObject, k)
		}
		return export{name: k, label: e.label, v: e.val}, nil
	}
	return unknown, fmt.Errorf("%w: %q", ErrNoSuchObject, k)
}

// unresolved labels, in the observer, a target or method the server does
// not hold, so a peer's made-up names cannot grow it: the error text keeps
// them.
const unresolved = "?"

// callHead is a request's target and method, resolved once; err says why
// they do not resolve. For a named export's method, the export's name and
// methodName are strings the server holds.
type callHead struct {
	export
	methodName string
	method     reflect.Method
	err        error
}

// methodByName resolves an exported method on the target's type, caching
// the per-type method table (the paper's "caching reflection information
// aggressively", Section 5.3.1).
func (s *Server) methodByName(t reflect.Type, name []byte) (reflect.Method, error) {
	tbl, ok := s.methodCache.Load(t)
	if !ok {
		m := make(map[string]reflect.Method, t.NumMethod())
		for i := 0; i < t.NumMethod(); i++ {
			meth := t.Method(i)
			if meth.IsExported() {
				m[meth.Name] = meth
			}
		}
		tbl, _ = s.methodCache.LoadOrStore(t, m)
	}
	m, ok := tbl.(map[string]reflect.Method)[string(name)]
	if !ok {
		return reflect.Method{}, fmt.Errorf("%w: %s.%s", ErrNoSuchMethod, t, name)
	}
	return m, nil
}

var errType = reflect.TypeOf((*error)(nil)).Elem()

// handleCall implements the invocation protocol: decode target and
// arguments, fix the restore set, invoke, encode restore response. ctx is
// the per-call context (client deadline, server lifetime); interceptors
// receive it, and methods declaring context.Context as their first
// parameter get it injected, so long-running handlers can stop when the
// client has already given up. The body runs under a per-call
// observability collector keyed by (object, method).
func (s *Server) handleCall(ctx context.Context, payload []byte) (out []byte, err error) {
	// The payload stays valid for the whole handler (the transport releases
	// it after handleCall returns), so the key and method name DecodeBytes
	// returns may be views of it.
	sc := core.AcceptCallBytes(payload, s.opts.Core)
	// Decoded argument objects outlive the release (the pool only drops its
	// references to them), so this is safe on every exit path.
	defer sc.Release()
	key, err := sc.DecodeBytes()
	if err != nil {
		return nil, fmt.Errorf("rmi: reading object key: %w", err)
	}
	name, err := sc.DecodeBytes()
	if err != nil {
		return nil, fmt.Errorf("rmi: reading method name: %w", err)
	}
	var h callHead
	if h.export, h.err = s.resolveTarget(key); h.err == nil {
		h.method, h.err = s.methodByName(h.v.Type(), name)
	}
	if h.methodName = h.method.Name; h.err != nil {
		h.methodName = unresolved
	}
	oc := obs.Begin(s.opts.Obs, h.label, h.methodName)
	sc.SetObs(oc)
	out, err = s.dispatchCall(ctx, oc, sc, h)
	oc.SetIO(int64(len(payload)), int64(len(out)))
	oc.Finish(err)
	return out, err
}

// decodedCall is a fully decoded, dispatch-ready invocation.
type decodedCall struct {
	method   reflect.Method
	takesCtx bool
	nargs    int
}

// dispatchCall runs the decoded protocol, marking the end of each phase:
// srv-decode, srv-prepare (inside sc.Prepare), srv-execute, srv-encode.
// The arguments and the results are converted into scratch in this frame.
func (s *Server) dispatchCall(ctx context.Context, oc *obs.Call, sc *core.ServerCall, h callHead) ([]byte, error) {
	var args [8]reflect.Value
	dc, in, err := s.decodeArgs(sc, h, args[:0])
	oc.Mark(obs.PhaseSrvDecode, sc.BytesReceived(), int64(dc.nargs))
	if err != nil {
		return nil, err
	}
	// Shadow the pre-call object set before the method body runs (paper,
	// Section 3, step 1 on the server side).
	if err := sc.Prepare(); err != nil {
		return nil, err
	}

	if h.serial != nil {
		h.serial.Lock()
		defer h.serial.Unlock()
	}
	outs, err := s.executeMethod(ctx, oc != nil, &h, dc, in)
	oc.Mark(obs.PhaseSrvExecute, 0, 0)
	if err != nil {
		return nil, err
	}

	var results [4]any
	var stats core.ResponseStats
	rets := results[:0]
	for _, o := range outs {
		var v any
		if v, err = outbound(s, o.Interface()); err != nil {
			break
		}
		rets = append(rets, v)
	}
	if err == nil {
		stats, err = sc.EncodeResponse(nil, rets)
	}
	oc.Mark(obs.PhaseSrvEncode, stats.BytesSent, 0)
	if err != nil {
		return nil, err
	}
	s.metrics.restored.Add(int64(stats.OldSent))
	return stats.Reply, nil
}

// decodeArgs reads the per-argument semantics markers and decodes the
// argument list of the call h resolved into in's array, when it fits:
// the receiver first, then ctx's slot if the method takes one.
func (s *Server) decodeArgs(sc *core.ServerCall, h callHead, in []reflect.Value) (decodedCall, []reflect.Value, error) {
	var dc decodedCall
	if h.err != nil {
		return dc, nil, h.err
	}
	target, method, methodName := h.v, h.method, h.methodName
	nargs, err := sc.DecodeUint()
	if err != nil {
		return dc, nil, fmt.Errorf("rmi: reading argument count: %w", err)
	}
	mt := method.Type // includes receiver at index 0
	if mt.IsVariadic() {
		return dc, nil, fmt.Errorf("%w: %s is variadic; variadic remote methods are not supported", ErrBadArgument, methodName)
	}
	// A context.Context first parameter is server-injected, not a wire
	// argument — the mirror of the client stub convention.
	takesCtx := mt.NumIn() > 1 && mt.In(1) == ctxType
	ctxOffset := 0
	if takesCtx {
		ctxOffset = 1
	}
	if int(nargs) != mt.NumIn()-1-ctxOffset {
		return dc, nil, fmt.Errorf("%w: %s takes %d arguments, got %d",
			ErrBadArgument, methodName, mt.NumIn()-1-ctxOffset, nargs)
	}
	// One semantics marker per argument, in parameter order, precedes the
	// values: every marker is read and checked before any value decodes.
	var buf [8]semantics
	sems := buf[:0]
	for i := 0; i < int(nargs); i++ {
		sem, err := sc.DecodeUint()
		if err != nil {
			return dc, nil, fmt.Errorf("rmi: reading semantics marker: %w", err)
		}
		if sem > uint64(semRef) {
			return dc, nil, fmt.Errorf("%w: unknown semantics marker %d for argument %d", ErrBadArgument, sem, i)
		}
		sems = append(sems, semantics(sem))
	}
	// The values follow the restorable arguments first, then the rest, each
	// in parameter order; every one lands at its parameter's position.
	in = slices.Grow(in, int(nargs)+1+ctxOffset)[:int(nargs)+1+ctxOffset]
	in[0] = target
	for _, restorable := range [2]bool{true, false} {
		for i, sem := range sems {
			if (sem == semRestore) != restorable {
				continue
			}
			raw, err := s.decodeArg(sc, sem)
			if err != nil {
				return dc, nil, fmt.Errorf("rmi: decoding argument %d: %w", i, err)
			}
			av, err := convertArg(raw, mt.In(i+1+ctxOffset))
			if err != nil {
				return dc, nil, fmt.Errorf("rmi: argument %d of %s: %w", i, methodName, err)
			}
			in[i+1+ctxOffset] = av
		}
	}
	return decodedCall{method: method, takesCtx: takesCtx, nargs: int(nargs)}, in, nil
}

// decodeArg decodes one argument value under its semantics marker. A
// by-reference one is a RemoteRef (or nil): a foreign one goes through the
// WrapRef hook when there is one, the rest through inbound.
func (s *Server) decodeArg(sc *core.ServerCall, sem semantics) (any, error) {
	if sem == semRestore {
		return sc.DecodeRestorable()
	}
	raw, err := sc.DecodeCopy()
	if err != nil || sem != semRef {
		return raw, err
	}
	switch ref, ok := raw.(*RemoteRef); {
	case raw == nil:
	case !ok:
		return nil, fmt.Errorf("%w: by-reference argument is %T, not *RemoteRef", ErrBadArgument, raw)
	case ref.Addr != s.addr && s.opts.WrapRef != nil:
		return s.opts.WrapRef(ref)
	}
	return s.inbound(raw)
}

// executeMethod runs the resolved method under the interceptor chain. With
// labeled set (observability on), the goroutine carries pprof labels
// nrmi_service (the call's observer key)/nrmi_method for the duration of
// the method body, so CPU profiles attribute samples per remote method.
// Without either, nothing is built around the call.
func (s *Server) executeMethod(ctx context.Context, labeled bool, h *callHead, dc decodedCall, in []reflect.Value) ([]reflect.Value, error) {
	ic := s.opts.Intercept
	if ic == nil && !labeled {
		return s.invoke(ctx, dc.method, in, dc.takesCtx)
	}
	// The closures escape: they hold a copy of the arguments, not in's scratch.
	method, args, takesCtx := dc.method, slices.Clone(in), dc.takesCtx
	info := CallInfo{Object: h.name, Method: h.methodName, ArgCount: dc.nargs}
	var outs []reflect.Value
	doInvoke := func(ctx context.Context) error {
		var err error
		outs, err = s.invoke(ctx, method, args, takesCtx)
		return err
	}
	var err error
	if labeled {
		pprof.Do(ctx, pprof.Labels("nrmi_service", h.label, "nrmi_method", h.methodName), func(ctx context.Context) {
			err = intercept(ctx, ic, info, doInvoke)
		})
	} else {
		err = intercept(ctx, ic, info, doInvoke)
	}
	return outs, err
}

// invoke calls the method, ctx in in[1] if it takes one, converting panics
// and trailing error results into remote errors.
func (s *Server) invoke(ctx context.Context, method reflect.Method, in []reflect.Value, takesCtx bool) (outs []reflect.Value, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("rmi: remote method panicked: %v", r)
		}
	}()
	if takesCtx {
		in[1] = reflect.ValueOf(ctx)
	}
	outs = method.Func.Call(in)
	mt := method.Type
	if n := mt.NumOut(); n > 0 && mt.Out(n-1) == errType {
		if e := outs[n-1]; !e.IsNil() {
			return nil, e.Interface().(error)
		}
		outs = outs[:n-1]
	}
	return outs, nil
}

// inbound is the arriving half of the package comment's reference rule, at
// an endpoint whose own server is s: a reference to one of s's live exports
// becomes the object itself, and any other value stays as it is. An own
// reference that no longer resolves is ErrNoSuchObject.
func (s *Server) inbound(v any) (any, error) {
	ref, ok := v.(*RemoteRef)
	if !ok || ref.Addr != s.addr {
		return v, nil
	}
	target, err := s.resolveTarget([]byte(ref.objectKey()))
	if err != nil {
		return nil, err
	}
	return target.v.Interface(), nil
}

// outbound is the leaving half of the rule, at an endpoint whose own server
// is home (nil for a client with none bound).
func outbound(home *Server, v any) (any, error) {
	switch x := v.(type) {
	case RefHolder:
		return x.NRMIRef(), nil
	case Remote:
		if home == nil {
			return nil, ErrNoLocalServer
		}
		return home.Ref(x)
	}
	return v, nil
}

// semantics markers on the wire.
type semantics uint64

const (
	semCopy    semantics = 0
	semRestore semantics = 1
	semRef     semantics = 2
)

// convertArg adapts a decoded value to a method parameter type.
func convertArg(v any, pt reflect.Type) (reflect.Value, error) {
	if v == nil {
		switch pt.Kind() {
		case reflect.Ptr, reflect.Map, reflect.Slice, reflect.Interface, reflect.Chan, reflect.Func:
			return reflect.Zero(pt), nil
		default:
			return reflect.Value{}, fmt.Errorf("%w: nil for non-nilable %s", ErrBadArgument, pt)
		}
	}
	rv := reflect.ValueOf(v)
	if rv.Type().AssignableTo(pt) {
		return rv, nil
	}
	return reflect.Value{}, fmt.Errorf("%w: have %s, want %s", ErrBadArgument, rv.Type(), pt)
}
