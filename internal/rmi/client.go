package rmi

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sync"
	"time"

	"nrmi/internal/core"
	"nrmi/internal/registry"
	"nrmi/internal/transport"
)

// Dialer opens a connection to a named endpoint. netsim.Network.Dial and a
// closure over net.Dial both satisfy it.
type Dialer func(addr string) (net.Conn, error)

// Client issues remote invocations. It pools one transport connection per
// server address and is safe for concurrent use.
type Client struct {
	opts   Options
	dialer Dialer

	mu      sync.Mutex
	conns   map[string]*transport.Conn
	dialing map[string]chan struct{} // per address, closed when its dial ends

	// retryRng draws backoff jitter; seeded by RetryPolicy.Seed so retry
	// schedules are replayable in chaos runs.
	retryMu  sync.Mutex
	retryRng *rand.Rand

	// local is the client's own server, required for exporting Remote
	// arguments (callbacks) and for resolving references to local objects.
	local *Server

	// commitMu serializes response applies across this client's calls.
	// With promises, several replies can be consumed concurrently, and
	// their argument graphs may share objects: one call's reply decode
	// and validation must not read what another call's commit is
	// overwriting, so every call carrying restorable arguments applies
	// its response under this lock (core.Call.SetCommitLock). Calls
	// without restorable arguments never take it.
	commitMu sync.Mutex

	// metrics is the cumulative counter block behind Metrics().
	metrics clientMetrics
}

// NewClient returns a client using dialer to reach servers.
func NewClient(dialer Dialer, opts Options) (*Client, error) {
	if err := registerProtocolTypes(opts.registryOf()); err != nil {
		return nil, err
	}
	seed := opts.Retry.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Client{
		opts:     opts,
		dialer:   dialer,
		conns:    make(map[string]*transport.Conn),
		dialing:  make(map[string]chan struct{}),
		retryRng: rand.New(rand.NewSource(seed)),
	}, nil
}

// BindLocalServer attaches the client's own server, enabling Remote
// arguments (the callee receives references back into this process).
func (c *Client) BindLocalServer(s *Server) { c.local = s }

// conn returns the pooled connection to addr, dialing on first use. A
// pooled connection found dead is evicted and replaced before any request
// is sent, so transient server restarts do not permanently poison the
// pool; calls that fail mid-flight still surface their error (retrying a
// possibly executed call would silently break at-most-once semantics).
// The dial runs outside c.mu, so a slow address stalls only its own
// callers, which wait for its one dial rather than dial again.
func (c *Client) conn(addr string) (*transport.Conn, error) {
	c.mu.Lock()
	for {
		if tc, ok := c.conns[addr]; ok {
			if tc.Err() == nil {
				c.mu.Unlock()
				return tc, nil
			}
			// The health check failed: record *why* the connection died
			// before discarding it, so operators can tell a peer restart
			// from a partition from a local close when they read Metrics().
			c.metrics.noteEviction(evictionCause(tc.Err()))
			_ = tc.Close()
			delete(c.conns, addr)
			c.metrics.reconnects.Add(1)
		}
		done, ok := c.dialing[addr]
		if !ok {
			break
		}
		c.mu.Unlock()
		<-done
		c.mu.Lock()
	}
	done := make(chan struct{})
	c.dialing[addr] = done
	c.mu.Unlock()
	nc, err := c.dialer(addr)
	c.mu.Lock()
	defer c.mu.Unlock()
	defer close(done)
	closed := c.dialing[addr] != done // Close ran during the dial
	if !closed {
		delete(c.dialing, addr)
	}
	switch {
	case err != nil:
		return nil, err
	case closed:
		_ = nc.Close()
		return nil, fmt.Errorf("rmi: client closed while dialing %s", addr)
	}
	c.metrics.dials.Add(1)
	tc := transport.NewConn(nc)
	c.conns[addr] = tc
	return tc, nil
}

// Close releases all pooled connections, and those being dialed.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dialing = make(map[string]chan struct{})
	var first error
	for addr, tc := range c.conns {
		if err := tc.Close(); err != nil && first == nil {
			first = err
		}
		delete(c.conns, addr)
	}
	return first
}

// Registry returns a client of the naming service served at addr
// (Server.EnableRegistry); its operations are calls on the "#registry"
// export.
func (c *Client) Registry(addr string) *registry.Client {
	return registry.NewClient(c.Stub(addr, registryName).Call)
}

// Stub addresses one exported object on one server. label is the
// observer's service key for its calls: the object's name, or for an
// anonymous export "#" and its type's wire name, one key per type.
type Stub struct {
	c      *Client
	addr   string
	object string
	label  string
}

// Stub returns a stub for the named export on the server at addr.
func (c *Client) Stub(addr, object string) *Stub {
	return &Stub{c: c, addr: addr, object: object, label: object}
}

// RefStub returns a stub for a remote reference, used to invoke methods on
// anonymously exported objects (the call-by-reference access path).
func (c *Client) RefStub(ref *RemoteRef) *Stub {
	st := c.Stub(ref.Addr, ref.objectKey())
	if ref.Name == "" {
		st.label = "#" + ref.TypeName
	}
	return st
}

// LookupStub resolves name through the naming service at regAddr and
// returns a stub for the bound object.
func (c *Client) LookupStub(ctx context.Context, regAddr, name string) (*Stub, error) {
	e, err := c.Registry(regAddr).Lookup(ctx, name)
	if err != nil {
		return nil, err
	}
	return c.Stub(e.Addr, e.Object), nil
}

// Call invokes method with args and returns the remote results. Calling
// semantics per argument follow the type rules in the package comment.
func (st *Stub) Call(ctx context.Context, method string, args ...any) ([]any, error) {
	resp, err := st.call(ctx, method, args, false)
	return resp.Returns, err
}

// CallStats is Call, additionally exposing restore statistics and byte
// counts for the experiment harness.
func (st *Stub) CallStats(ctx context.Context, method string, args ...any) (*core.Response, error) {
	resp, err := st.call(ctx, method, args, false)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// call is a blocking call, one-way or not, under the client's interceptor.
// Without one it builds nothing around run.
func (st *Stub) call(ctx context.Context, method string, args []any, oneWay bool) (core.Response, error) {
	ic := st.c.opts.Intercept
	if ic == nil {
		return st.run(ctx, method, args, oneWay)
	}
	var resp core.Response
	info := CallInfo{Addr: st.addr, Object: st.object, Method: method, ArgCount: len(args)}
	held := slices.Clone(args) // the closure escapes with a copy, not the caller's args
	err := intercept(ctx, ic, info, func(ctx context.Context) error {
		var err error
		resp, err = st.run(ctx, method, held, oneWay)
		return err
	})
	if err != nil {
		return core.Response{}, err
	}
	return resp, nil
}

// encodeRequest writes the call header — object, method, argument count
// and each argument's semantics marker in parameter order — then the
// argument values, the restorable ones first (docs/PROTOCOL.md, section 3),
// and finishes the message.
func (st *Stub) encodeRequest(call *core.Call, method string, args []any) error {
	if err := call.EncodeString(st.object); err != nil {
		return err
	}
	if err := call.EncodeString(method); err != nil {
		return err
	}
	if err := call.EncodeUint(uint64(len(args))); err != nil {
		return err
	}
	for _, arg := range args {
		if err := call.EncodeUint(uint64(semOf(arg))); err != nil {
			return err
		}
	}
	for _, restorable := range [2]bool{true, false} {
		for i, arg := range args {
			sem := semOf(arg)
			if (sem == semRestore) != restorable {
				continue
			}
			if err := st.c.encodeArg(call, sem, arg); err != nil {
				return fmt.Errorf("rmi: argument %d of %s: %w", i, method, err)
			}
		}
	}
	return call.Finish()
}

// semOf is the calling semantics of an argument, chosen by its dynamic type
// by the rules of the package comment, in their order of precedence.
func semOf(arg any) semantics {
	switch arg.(type) {
	case *RemoteRef, RefHolder, Remote:
		return semRef
	case Restorable:
		return semRestore
	default:
		return semCopy
	}
}

// encodeArg writes one argument's value under its semantics. A by-reference
// argument travels as a RemoteRef: the one it is, wraps, or is exported as.
func (c *Client) encodeArg(call *core.Call, sem semantics, arg any) error {
	switch sem {
	case semRestore:
		return call.EncodeRestorable(arg)
	case semCopy:
		return call.EncodeCopy(arg)
	}
	switch x := arg.(type) {
	case RefHolder:
		arg = x.NRMIRef()
	case Remote:
		if c.local == nil {
			return ErrNoLocalServer
		}
		ref, err := c.local.Ref(x)
		if err != nil {
			return err
		}
		arg = ref
	}
	return call.EncodeCopy(arg)
}

// Release calls the exporting server's DGC Clean for ref, dropping one
// count. Stubs call it when the application is done with a reference.
func (c *Client) Release(ctx context.Context, ref *RemoteRef) error {
	_, err := c.Stub(ref.Addr, dgcName).Call(ctx, "Clean", ref.ID)
	return err
}

// Renew refreshes the lease on ref for the given duration, which must lie
// in (0, MaxLease] and travels rounded up to whole seconds.
func (c *Client) Renew(ctx context.Context, ref *RemoteRef, lease time.Duration) error {
	if lease <= 0 || lease > MaxLease {
		return fmt.Errorf("%w: lease %v outside (0, %v]", ErrBadDGC, lease, MaxLease)
	}
	secs := uint64((lease + time.Second - 1) / time.Second)
	_, err := c.Stub(ref.Addr, dgcName).Call(ctx, "Dirty", ref.ID, secs)
	return err
}

// evictionCause reduces a dead connection's terminal error to a stable,
// low-cardinality label by unwrapping to the root sentinel — so a
// wrapped "partitioned: a <-> b" and "partitioned: c <-> d" count under
// one cause, not one per address pair.
func evictionCause(err error) string {
	if err == nil {
		return "unknown"
	}
	for {
		next := errors.Unwrap(err)
		if next == nil {
			return err.Error()
		}
		err = next
	}
}

// Ping round-trips a liveness probe to addr.
func (c *Client) Ping(ctx context.Context, addr string) error {
	tc, err := c.conn(addr)
	if err != nil {
		return err
	}
	p, err := tc.Call(ctx, transport.MsgPing, []byte("ping"))
	c.releasePayload(p)
	return err
}
