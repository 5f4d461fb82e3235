package rmi

// Graceful-degradation suite: drain-aware shutdown, admission control,
// request-size limits, and wire-propagated deadlines, driven over netsim
// links. Companion to the chaos suite: where chaos_test.go breaks the
// network, this file breaks the server's capacity — and asserts the same
// §6.2 invariant, that no failure mode ever half-restores a client graph.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nrmi/internal/core"
	"nrmi/internal/leakcheck"
	"nrmi/internal/netsim"
	"nrmi/internal/registry"
	"nrmi/internal/transport"
	"nrmi/internal/wire"
)

// GateService is the degradation suite's remote side: methods that block
// on test-controlled gates, observe their call context, or return at once.
type GateService struct {
	entered   chan struct{} // one token per call that reached a blocking body
	release   chan struct{} // closed to let blocked calls finish
	cancelled atomic.Int32  // calls that observed ctx cancellation
}

func newGateService() *GateService {
	return &GateService{
		entered: make(chan struct{}, 128),
		release: make(chan struct{}),
	}
}

// Quick mutates and returns immediately.
func (g *GateService) Quick(t *RTree) int { return chaosMutate(t, 1) }

// Hold blocks until the test releases it, then mutates.
func (g *GateService) Hold(t *RTree) int {
	g.entered <- struct{}{}
	<-g.release
	return chaosMutate(t, 1)
}

// WaitCtx blocks until the call context is cancelled or the test releases
// it — the shape of a handler honoring the propagated client deadline.
func (g *GateService) WaitCtx(ctx context.Context, t *RTree) (int, error) {
	g.entered <- struct{}{}
	select {
	case <-ctx.Done():
		g.cancelled.Add(1)
		return 0, ctx.Err()
	case <-g.release:
		return chaosMutate(t, 1), nil
	}
}

// Churn is the soak workload: a short burst of real work, long enough
// that concurrent bursts contend for admission slots.
func (g *GateService) Churn(t *RTree) int {
	time.Sleep(time.Millisecond)
	return chaosMutate(t, 1)
}

// HasDeadline reports whether the server-side call context carries a
// deadline — the direct observable for wire propagation.
func (g *GateService) HasDeadline(ctx context.Context, t *RTree) int {
	if _, ok := ctx.Deadline(); ok {
		return 1
	}
	return 0
}

// degradeEnv is one server+client world over a netsim link.
type degradeEnv struct {
	net    *netsim.Network
	srv    *Server
	svc    *GateService
	client *Client
}

func newDegradeEnv(t *testing.T, srvOpt, clOpt func(*Options)) *degradeEnv {
	t.Helper()
	reg := wire.NewRegistry()
	if err := reg.Register("RTree", RTree{}); err != nil {
		t.Fatal(err)
	}
	base := Options{Core: core.Options{Registry: reg}}
	n := netsim.NewNetwork()
	t.Cleanup(func() { n.Close() })

	sopts := base
	if srvOpt != nil {
		srvOpt(&sopts)
	}
	srv, err := NewServer("server", sopts)
	if err != nil {
		t.Fatal(err)
	}
	svc := newGateService()
	if err := srv.Export("gate", svc); err != nil {
		t.Fatal(err)
	}
	ln, err := n.Listen("server")
	if err != nil {
		t.Fatal(err)
	}
	srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	copts := base
	if clOpt != nil {
		clOpt(&copts)
	}
	cl, err := NewClient(n.Dial, copts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return &degradeEnv{net: n, srv: srv, svc: svc, client: cl}
}

type callResult struct {
	rets []any
	err  error
}

// TestShutdownDrainsInflightAndRejectsLate is acceptance criterion (a):
// Shutdown lets an in-flight call run to completion (and restore
// correctly) while requests arriving after the drain began fail with the
// typed, retryable ErrUnavailable.
func TestShutdownDrainsInflightAndRejectsLate(t *testing.T) {
	env := newDegradeEnv(t, nil, nil)
	stub := env.client.Stub("server", "gate")
	ctx := context.Background()

	root := chaosTree()
	snap := snapshotTree(t, root)
	inflight := make(chan callResult, 1)
	go func() {
		rets, err := stub.Call(ctx, "Hold", root)
		inflight <- callResult{rets, err}
	}()
	<-env.svc.entered // the call is executing on the server

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- env.srv.Shutdown(ctx) }()

	// Poll with throwaway trees until the drain gate is observably closed;
	// pre-drain polls may legitimately succeed.
	var lateErr error
	for deadline := time.Now().Add(5 * time.Second); ; {
		_, err := stub.Call(ctx, "Quick", chaosTree())
		if errors.Is(err, ErrUnavailable) {
			lateErr = err
			break
		}
		if err != nil {
			t.Fatalf("late call failed with %v, want ErrUnavailable", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("drain gate never closed")
		}
	}
	if !Retryable(lateErr) {
		t.Fatalf("ErrUnavailable must be retryable, got %v", lateErr)
	}
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned %v while a call was still in flight", err)
	default:
	}

	close(env.svc.release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	res := <-inflight
	if res.err != nil {
		t.Fatalf("drained in-flight call failed: %v", res.err)
	}
	if want := chaosMutate(snap, 1); res.rets[0].(int) != want {
		t.Fatalf("in-flight call returned %v, want %d", res.rets[0], want)
	}
	if !treesEqual(t, root, snap) {
		t.Fatal("drained call restored the wrong graph")
	}

	m := env.srv.Metrics()
	if m.CallsUnavailable == 0 {
		t.Fatal("CallsUnavailable not counted")
	}
	if m.DrainDuration <= 0 {
		t.Fatal("DrainDuration not recorded")
	}
	if _, err := stub.Call(ctx, "Quick", chaosTree()); err == nil {
		t.Fatal("call after completed Shutdown succeeded")
	}
}

// TestShutdownRefusesRegistryAndDGC: once a drain began, a naming-service
// Lookup and a DGC Clean are refused with ErrUnavailable like any call, and
// the Clean drops no reference.
func TestShutdownRefusesRegistryAndDGC(t *testing.T) {
	env := newDegradeEnv(t, nil, nil)
	ctx := context.Background()
	reg := env.client.Registry("server")
	env.srv.EnableRegistry()
	if err := reg.Bind(ctx, registry.Entry{Name: "gate", Addr: "server", Object: "gate"}); err != nil {
		t.Fatal(err)
	}
	ref, err := env.srv.Ref(&Counter{})
	if err != nil {
		t.Fatal(err)
	}
	go env.client.Stub("server", "gate").Call(ctx, "Hold", chaosTree())
	<-env.svc.entered
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- env.srv.Shutdown(ctx) }()
	for deadline := time.Now().Add(5 * time.Second); !env.srv.draining.Load(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("drain never began")
		}
	}
	if _, err := reg.Lookup(ctx, "gate"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Lookup while draining = %v, want ErrUnavailable", err)
	}
	if err := env.client.Release(ctx, ref); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Release while draining = %v, want ErrUnavailable", err)
	}
	if env.srv.LiveRefs() != 1 {
		t.Fatal("a refused Clean dropped the reference")
	}
	close(env.svc.release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestShutdownDeadline: a drain that cannot finish within ctx returns
// ctx.Err() and still tears the server down.
func TestShutdownDeadline(t *testing.T) {
	env := newDegradeEnv(t, nil, nil)
	stub := env.client.Stub("server", "gate")
	go stub.Call(context.Background(), "Hold", chaosTree())
	<-env.svc.entered

	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := env.srv.Shutdown(sctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	close(env.svc.release) // unblock the stranded handler goroutine
	if _, err := stub.Call(context.Background(), "Quick", chaosTree()); err == nil {
		t.Fatal("call after expired Shutdown succeeded")
	}
}

// TestCloseLifecycle is the satellite: Close before Serve, twice,
// concurrently from several goroutines, Serve after Close, and Close
// racing in-flight handlers — all clean.
func TestCloseLifecycle(t *testing.T) {
	t.Run("before Serve and twice", func(t *testing.T) {
		srv, err := NewServer("s", Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Close(); err != nil {
			t.Fatalf("Close before Serve: %v", err)
		}
		if err := srv.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
	})
	t.Run("Serve after Close", func(t *testing.T) {
		n := netsim.NewNetwork()
		defer n.Close()
		srv, err := NewServer("server", Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		ln, err := n.Listen("server")
		if err != nil {
			t.Fatal(err)
		}
		srv.Serve(ln) // must not start serving; must close ln
		if _, err := ln.Accept(); err == nil {
			t.Fatal("listener still accepting after Serve-after-Close")
		}
	})
	t.Run("concurrent with in-flight calls", func(t *testing.T) {
		env := newDegradeEnv(t, nil, nil)
		stub := env.client.Stub("server", "gate")
		done := make(chan callResult, 1)
		go func() {
			rets, err := stub.Call(context.Background(), "Hold", chaosTree())
			done <- callResult{rets, err}
		}()
		<-env.svc.entered
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := env.srv.Close(); err != nil {
					t.Errorf("concurrent Close: %v", err)
				}
			}()
		}
		close(env.svc.release)
		wg.Wait()
		<-done // either outcome is fine; it must not hang or race
	})
}

// TestOverloadStormRejectsPromptly is acceptance criterion (b): with both
// slots held, a storm of calls fails fast with typed, retryable
// ErrOverloaded — verified while the blockers still hold their slots, so
// nothing queued unboundedly.
func TestOverloadStormRejectsPromptly(t *testing.T) {
	const storm = 8
	env := newDegradeEnv(t, func(o *Options) { o.MaxConcurrentCalls = 2 }, nil)
	stub := env.client.Stub("server", "gate")
	ctx := context.Background()

	blocked := make(chan callResult, 2)
	for i := 0; i < 2; i++ {
		go func() {
			rets, err := stub.Call(ctx, "Hold", chaosTree())
			blocked <- callResult{rets, err}
		}()
		<-env.svc.entered
	}

	var wg sync.WaitGroup
	errs := make([]error, storm)
	roots := make([]*RTree, storm)
	snaps := make([]*RTree, storm)
	for i := 0; i < storm; i++ {
		roots[i] = chaosTree()
		snaps[i] = snapshotTree(t, roots[i])
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = stub.Call(ctx, "Quick", roots[i])
		}(i)
	}
	wg.Wait() // returns while both Hold calls still occupy their slots

	for i, err := range errs {
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("storm call %d: %v, want ErrOverloaded", i, err)
		}
		if !Retryable(err) {
			t.Fatalf("storm call %d: ErrOverloaded must be retryable", i)
		}
		if !treesEqual(t, roots[i], snaps[i]) {
			t.Fatalf("storm call %d mutated the graph", i)
		}
	}
	close(env.svc.release)
	for i := 0; i < 2; i++ {
		if res := <-blocked; res.err != nil {
			t.Fatalf("admitted call failed: %v", res.err)
		}
	}
	m := env.srv.Metrics()
	if m.CallsRejected != storm {
		t.Fatalf("CallsRejected = %d, want %d", m.CallsRejected, storm)
	}
	if m.CallsServed != 2 {
		t.Fatalf("CallsServed = %d, want 2 (rejections must not count)", m.CallsServed)
	}
}

// TestAdmissionQueueBoundsAndDrains: with one slot and a one-deep queue,
// exactly one over-cap call waits (and eventually runs); the rest reject.
func TestAdmissionQueueBoundsAndDrains(t *testing.T) {
	const storm = 6
	env := newDegradeEnv(t, func(o *Options) {
		o.MaxConcurrentCalls = 1
		o.AdmissionQueue = 1
		o.AdmissionWait = 5 * time.Second
	}, nil)
	stub := env.client.Stub("server", "gate")
	ctx := context.Background()

	blocked := make(chan callResult, 1)
	go func() {
		rets, err := stub.Call(ctx, "Hold", chaosTree())
		blocked <- callResult{rets, err}
	}()
	<-env.svc.entered

	var wg sync.WaitGroup
	var rejected, queuedOK atomic.Int32
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := stub.Call(ctx, "Quick", chaosTree())
			switch {
			case err == nil:
				queuedOK.Add(1)
			case errors.Is(err, ErrOverloaded):
				rejected.Add(1)
			default:
				t.Errorf("unexpected storm error: %v", err)
			}
		}()
	}
	// The queue admits exactly one waiter; everyone else must bounce while
	// the slot is still held. Release once the bounces are all in.
	for rejected.Load() < storm-1 {
		time.Sleep(time.Millisecond)
	}
	close(env.svc.release)
	wg.Wait()
	if res := <-blocked; res.err != nil {
		t.Fatalf("slot-holding call failed: %v", res.err)
	}
	if got := queuedOK.Load(); got != 1 {
		t.Fatalf("%d queued calls ran, want exactly 1", got)
	}
	if m := env.srv.Metrics(); m.CallsRejected != storm-1 {
		t.Fatalf("CallsRejected = %d, want %d", m.CallsRejected, storm-1)
	}
}

// TestAdmissionWaitBudget: a queued call gives up with ErrOverloaded once
// AdmissionWait expires, instead of waiting forever.
func TestAdmissionWaitBudget(t *testing.T) {
	const wait = 40 * time.Millisecond
	env := newDegradeEnv(t, func(o *Options) {
		o.MaxConcurrentCalls = 1
		o.AdmissionQueue = 4
		o.AdmissionWait = wait
	}, nil)
	stub := env.client.Stub("server", "gate")
	ctx := context.Background()

	go stub.Call(ctx, "Hold", chaosTree())
	<-env.svc.entered

	start := time.Now()
	_, err := stub.Call(ctx, "Quick", chaosTree())
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queued call: %v, want ErrOverloaded after wait budget", err)
	}
	if elapsed := time.Since(start); elapsed < wait {
		t.Fatalf("rejected after %v, before the %v wait budget", elapsed, wait)
	}
	close(env.svc.release)
}

// TestQueuedDeadlineBeatsAdmissionWait: the admission wait is bounded by the
// call's own propagated deadline too, not by AdmissionWait alone. A call
// whose caller gave up after 50 ms leaves the queue then — refused, never
// run — although the server would have let it wait five seconds.
func TestQueuedDeadlineBeatsAdmissionWait(t *testing.T) {
	env := newDegradeEnv(t, func(o *Options) {
		o.MaxConcurrentCalls = 1
		o.AdmissionQueue = 1
		o.AdmissionWait = 5 * time.Second
	}, nil)
	stub := env.client.Stub("server", "gate")

	blocked := make(chan callResult, 1)
	go func() {
		rets, err := stub.Call(context.Background(), "Hold", chaosTree())
		blocked <- callResult{rets, err}
	}()
	<-env.svc.entered

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	root := chaosTree()
	snap := snapshotTree(t, root)
	start := time.Now()
	// The server's refusal and the client's own expiry race for the caller.
	_, err := stub.Call(ctx, "Quick", root)
	if !errors.Is(err, ErrOverloaded) && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued call: %v, want ErrOverloaded or its own deadline", err)
	}
	if !treesEqual(t, root, snap) {
		t.Fatal("refused call mutated the graph")
	}
	// The slot is still held: only the deadline can have emptied the queue.
	for env.srv.queued.Load() != 0 || env.srv.Metrics().CallsRejected != 1 {
		if time.Since(start) > time.Second {
			t.Errorf("a second after its caller gave up the call is still queued (queued=%d, rejected=%d)",
				env.srv.queued.Load(), env.srv.Metrics().CallsRejected)
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(env.svc.release) // on every path: the server's Close waits for Hold
	if res := <-blocked; res.err != nil {
		t.Fatalf("slot-holding call failed: %v", res.err)
	}
	if m := env.srv.Metrics(); m.CallsServed != 1 || len(env.srv.callSem) != 0 {
		t.Fatalf("CallsServed = %d with %d slots held, want 1 and 0", m.CallsServed, len(env.srv.callSem))
	}
}

// TestCallerCancelBeatsCallTimeout: CallTimeout is an upper bound derived
// from the caller's context, not a replacement for it. Whatever the shape, a
// call blocked on the server returns context.Canceled when its caller
// cancels, five seconds before the attempt deadline would have fired.
func TestCallerCancelBeatsCallTimeout(t *testing.T) {
	for _, shape := range []callShape{shapeCall, shapeAsync} {
		t.Run(shape.name, func(t *testing.T) {
			env := newDegradeEnv(t, nil, func(o *Options) { o.CallTimeout = 5 * time.Second })
			defer close(env.svc.release)
			stub := env.client.Stub("server", "gate")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go func() {
				<-env.svc.entered
				time.Sleep(20 * time.Millisecond)
				cancel()
			}()
			root := chaosTree()
			snap := snapshotTree(t, root)
			start := time.Now()
			_, err := shape.call(stub, ctx, "Hold", root)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled call: %v, want context.Canceled", err)
			}
			if elapsed := time.Since(start); elapsed > time.Second {
				t.Fatalf("cancel took effect after %v; the call waited on its CallTimeout instead", elapsed)
			}
			if !treesEqual(t, root, snap) {
				t.Fatal("cancelled call mutated the graph")
			}
		})
	}
}

// TestExpiredAttemptLeavesNoTimerBehind: an attempt's deadline is a pooled
// timer, not a context. With no retries the first expiry is the outcome:
// the exact await-phase timeout at CallTimeout, with nothing left pending
// and no pooled buffer held once the server lets the call go. The timer
// that fired goes back to the pool, and no stale tick from it or any other
// fails one of the fast calls that follow.
func TestExpiredAttemptLeavesNoTimerBehind(t *testing.T) {
	const timeout = 250 * time.Millisecond
	for _, shape := range []callShape{shapeCall, shapeAsync} {
		t.Run(shape.name, func(t *testing.T) {
			env := newDegradeEnv(t, nil, func(o *Options) { o.CallTimeout = timeout; o.Retry = RetryPolicy{} })
			stub := env.client.Stub("server", "gate")
			ctx := context.Background()
			start := time.Now()
			_, err := shape.call(stub, ctx, "Hold", chaosTree())
			elapsed := time.Since(start)
			ce, ok := err.(*transport.CallError)
			if !ok || ce.Phase != transport.PhaseAwait || !ce.Sent || ce.Err != context.DeadlineExceeded {
				t.Fatalf("held call: %T %v, want *CallError{await, sent, context.DeadlineExceeded}", err, err)
			}
			if elapsed < timeout || elapsed > timeout+2*time.Second {
				t.Fatalf("held call failed after %v, want CallTimeout (%v)", elapsed, timeout)
			}
			if _, inFlight, _ := connState(env.client, "server"); inFlight != 0 {
				t.Fatalf("%d calls still pending after the expiry", inFlight)
			}
			close(env.svc.release)
			leakcheck.Settle(t)
			for i := 0; i < 200; i++ {
				if _, err := shape.call(stub, ctx, "Quick", chaosTree()); err != nil {
					t.Fatalf("fast call %d after the expiry: %v", i, err)
				}
			}
			leakcheck.Settle(t)
		})
	}
}

// TestMaxRequestBytes: oversize requests are rejected before any decode
// work, as a plain (non-retryable: re-sending the same bytes would fail
// identically) remote error, without touching the argument graph.
func TestMaxRequestBytes(t *testing.T) {
	env := newDegradeEnv(t, func(o *Options) { o.MaxRequestBytes = 8 }, nil)
	stub := env.client.Stub("server", "gate")

	root := chaosTree()
	snap := snapshotTree(t, root)
	_, err := stub.Call(context.Background(), "Quick", root)
	var remote *transport.RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("oversize request: %T %v, want RemoteError", err, err)
	}
	if Retryable(err) {
		t.Fatal("oversize rejection must not be retryable")
	}
	if !treesEqual(t, root, snap) {
		t.Fatal("rejected call mutated the graph")
	}
	m := env.srv.Metrics()
	if m.CallsRejected != 1 || m.CallsServed != 0 {
		t.Fatalf("metrics = %+v, want 1 rejected / 0 served", m)
	}
}

// TestDeadlinePropagatedToServer: the server-side call context carries a
// deadline exactly when the client set one.
func TestDeadlinePropagatedToServer(t *testing.T) {
	withTimeout := newDegradeEnv(t, nil, func(o *Options) { o.CallTimeout = 5 * time.Second })
	rets, err := withTimeout.client.Stub("server", "gate").Call(context.Background(), "HasDeadline", chaosTree())
	if err != nil {
		t.Fatal(err)
	}
	if rets[0].(int) != 1 {
		t.Fatal("CallTimeout did not propagate a deadline to the server context")
	}

	without := newDegradeEnv(t, nil, nil)
	rets, err = without.client.Stub("server", "gate").Call(context.Background(), "HasDeadline", chaosTree())
	if err != nil {
		t.Fatal(err)
	}
	if rets[0].(int) != 0 {
		t.Fatal("server context has a deadline although the client set none")
	}
}

// TestDeadlineCancelsServerWork: when the client abandons a call
// (CallTimeout), the propagated deadline cancels the server-side context,
// the ctx-aware method observes it, and the cancellation is counted.
func TestDeadlineCancelsServerWork(t *testing.T) {
	env := newDegradeEnv(t, nil, func(o *Options) { o.CallTimeout = 60 * time.Millisecond })
	stub := env.client.Stub("server", "gate")

	root := chaosTree()
	snap := snapshotTree(t, root)
	_, err := stub.Call(context.Background(), "WaitCtx", root)
	if err == nil {
		t.Fatal("abandoned call succeeded")
	}
	if !treesEqual(t, root, snap) {
		t.Fatal("abandoned call mutated the graph")
	}
	deadline := time.Now().Add(5 * time.Second)
	for env.svc.cancelled.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server method never observed the propagated cancellation")
		}
		time.Sleep(time.Millisecond)
	}
	for env.srv.Metrics().CallsCancelled == 0 {
		if time.Now().After(deadline) {
			t.Fatal("CallsCancelled never counted")
		}
		time.Sleep(time.Millisecond)
	}
	close(env.svc.release)
}

// TestCtxAwareMethodDispatch: a method declaring context.Context first
// still receives its wire arguments correctly (the ctx parameter is
// injected, not decoded) and restores normally.
func TestCtxAwareMethodDispatch(t *testing.T) {
	env := newDegradeEnv(t, nil, nil)
	close(env.svc.release) // WaitCtx returns via the release branch
	stub := env.client.Stub("server", "gate")

	root := chaosTree()
	snap := snapshotTree(t, root)
	rets, err := stub.Call(context.Background(), "WaitCtx", root)
	if err != nil {
		t.Fatal(err)
	}
	if want := chaosMutate(snap, 1); rets[0].(int) != want {
		t.Fatalf("WaitCtx returned %v, want %d", rets[0], want)
	}
	if !treesEqual(t, root, snap) {
		t.Fatal("ctx-aware call restored the wrong graph")
	}
	// Arity errors must account for the injected parameter.
	if _, err := stub.Call(context.Background(), "WaitCtx", root, 2); err == nil {
		t.Fatal("extra argument accepted")
	}
}

// TestSoakGracefulDegradation is the `make soak` entry point: N clients
// firing M bursts of concurrent calls hammer a server whose admission
// control is deliberately tighter than the offered load (12 concurrent
// calls against 3 slots + a 2-deep queue), with retries on, while the
// server shuts down once half the calls have landed. Every call — served,
// rejected, queued out, or refused mid-drain — must either succeed with a
// correct restore or fail with its argument graph untouched.
func TestSoakGracefulDegradation(t *testing.T) {
	clients, rounds, burst := 4, 16, 3
	if testing.Short() {
		clients, rounds = 2, 6
	}
	totalCalls := int64(clients * rounds * burst)

	reg := wire.NewRegistry()
	if err := reg.Register("RTree", RTree{}); err != nil {
		t.Fatal(err)
	}
	base := Options{Core: core.Options{Registry: reg}}
	n := netsim.NewNetwork()
	defer n.Close()

	sopts := base
	sopts.MaxConcurrentCalls = 3
	sopts.AdmissionQueue = 2
	sopts.AdmissionWait = 5 * time.Millisecond
	srv, err := NewServer("server", sopts)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Export("gate", newGateService()); err != nil {
		t.Fatal(err)
	}
	ln, err := n.Listen("server")
	if err != nil {
		t.Fatal(err)
	}
	srv.Serve(ln)
	defer srv.Close()

	// Shut down once half the calls have completed, so the other half
	// races the drain.
	trigger := make(chan struct{})
	shutdownDone := make(chan error, 1)
	go func() {
		<-trigger
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(sctx)
	}()

	var done, successes, failures atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			copts := base
			copts.Retry = RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Seed: int64(c + 1)}
			copts.CallTimeout = 500 * time.Millisecond
			cl, err := NewClient(n.Dial, copts)
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			stub := cl.Stub("server", "gate")
			for r := 0; r < rounds; r++ {
				var bwg sync.WaitGroup
				for b := 0; b < burst; b++ {
					bwg.Add(1)
					go func(r, b int) {
						defer bwg.Done()
						root := chaosTree()
						snap := snapshotTree(t, root)
						rets, err := stub.Call(context.Background(), "Churn", root)
						if done.Add(1) == totalCalls/2 {
							close(trigger)
						}
						if err != nil {
							failures.Add(1)
							if !treesEqual(t, root, snap) {
								t.Errorf("client %d round %d burst %d: failed call mutated the graph (err was %v)", c, r, b, err)
							}
							return
						}
						successes.Add(1)
						want := chaosMutate(snap, 1)
						if rets[0].(int) != want || !treesEqual(t, root, snap) {
							t.Errorf("client %d round %d burst %d: wrong restore", c, r, b)
						}
					}(r, b)
				}
				bwg.Wait()
			}
		}(c)
	}
	wg.Wait()
	if err := <-shutdownDone; err != nil {
		t.Fatalf("mid-soak Shutdown: %v", err)
	}

	if successes.Load() == 0 {
		t.Fatal("soak produced no successful calls")
	}
	m := srv.Metrics()
	t.Logf("soak: %d ok, %d failed of %d; server metrics %+v",
		successes.Load(), failures.Load(), totalCalls, m)
	if m.CallsServed < successes.Load() {
		t.Fatalf("served %d < client successes %d", m.CallsServed, successes.Load())
	}
	// The reduced short-mode load cannot guarantee contention; only the
	// full soak asserts that the degradation paths actually fired.
	if !testing.Short() {
		if m.CallsRejected == 0 {
			t.Fatal("soak never tripped admission control; load not overloaded")
		}
		if m.CallsUnavailable == 0 {
			t.Fatal("soak never hit the drain gate; shutdown raced nothing")
		}
	}

	// The server is down; a fresh probe must be refused, not hang.
	probe, err := NewClient(n.Dial, base)
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	if _, err := probe.Stub("server", "gate").Call(context.Background(), "Quick", chaosTree()); err == nil {
		t.Fatal("call after soak shutdown succeeded")
	}
}
