// The client call state machine. Every outbound invocation is a Promise
// going through the same three steps:
//
//	issue  encode the arguments once, send attempt 1
//	await  the one retry loop; ends with a reply payload in hand
//	apply  consume the payload: decode, validate, restore commit
//
// and the two call shapes differ only in which steps they run when.
// Stub.Call runs all three back to back on a Promise that never leaves
// its stack frame. Stub.CallAsync returns after issue and leaves await and
// apply to Wait, so several promises in flight on one connection pipeline
// their round trips (K calls cost ~1 network latency instead of K).
// Fire-and-forget is CallAsync followed by Abandon: the request goes out
// and the server runs the method, the reply is recycled unread, and no
// restore ever commits.
//
// Restore semantics are where async gets sharp, and the rules are:
//
//   - A promise's restore commits when the promise is consumed (Wait or
//     All), never in the background: between issue and Wait the caller's
//     graph is untouched, exactly as if the reply had not arrived yet.
//   - Restore commits of concurrently in-flight calls over the same
//     client serialize on one commit lock (core.Call.SetCommitLock), so
//     two promises resolving together cannot interleave their overwrite
//     phases; order follows consumption order.
//   - Each promise keeps the two-phase bit-identical-on-failure
//     guarantee independently, and once its response bytes have been
//     consumed a failure is final (ResponseConsumedError) — the retry
//     loop refuses to re-send.
//
// A Promise is owned by one goroutine at a time, like a *bytes.Buffer:
// issue it, hand it off if you like, but do not share it. (Promise
// resolution is driven lazily by Wait — there is no background goroutine
// racing the owner.)
package rmi

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"nrmi/internal/core"
	"nrmi/internal/obs"
	"nrmi/internal/transport"
)

// ErrPromiseAbandoned is reported by Wait on a promise that was abandoned
// before consumption.
var ErrPromiseAbandoned = errors.New("rmi: promise abandoned")

// promiseState is the settlement state of a Promise.
type promiseState uint8

const (
	promisePending promiseState = iota
	promiseResolved
	promiseRejected
	promiseAbandoned
)

// Promise is an in-flight asynchronous invocation started by CallAsync.
// Consume it exactly once with Wait — which may be called repeatedly
// afterwards and keeps returning the settled outcome — or relinquish it
// with Abandon so its reply payload is recycled. A promise that is neither
// waited nor abandoned keeps its pooled request encoder until garbage
// collected.
type Promise struct {
	st     *Stub
	method string
	oc     *obs.Call
	call   core.Call

	// pc is the transport half of the current attempt (nil once it is
	// awaited or abandoned), sent from slot: a blocking call's own, or for
	// CallAsync the promise's pending. sendErr is the failure when the
	// attempt never went out, deadline the attempt's expiry (zero without
	// CallTimeout).
	pc, slot *transport.PendingCall
	pending  transport.PendingCall
	sendErr  error
	deadline time.Time

	state promiseState
	resp  core.Response
	err   error
}

// begin readies a promise for encode.
func (st *Stub) begin(p *Promise, method string) {
	*p = Promise{st: st, method: method, oc: obs.Begin(st.c.opts.Obs, st.label, method)}
}

// pendingCalls recycles the transport attempts of blocking calls: one is
// settled, and free, by the time its call returns.
var pendingCalls = sync.Pool{New: func() any { return new(transport.PendingCall) }}

// run is the blocking shape, Stub.Call: issue, await and apply back to
// back. The promise stays in this frame, and its attempts go out from a
// pooled slot, so a blocking call allocates no more than its codec does.
func (st *Stub) run(ctx context.Context, method string, args []any) (core.Response, error) {
	var p Promise
	st.begin(&p, method)
	p.slot = pendingCalls.Get().(*transport.PendingCall)
	defer pendingCalls.Put(p.slot)
	err := p.encode(args)
	p.oc.Mark(obs.PhaseEncode, p.call.BytesSent(), 0)
	var resp core.Response
	if err == nil {
		p.send(ctx)
		var payload []byte
		payload, err = p.await(ctx)
		p.oc.Mark(obs.PhaseTransport, int64(len(payload)), 0)
		if err == nil {
			resp, err = p.apply(payload)
		}
	}
	p.settle(resp, err)
	return resp, err
}

// CallAsync encodes method's arguments now — the linear map snapshots the
// argument graphs at issue time, exactly like a synchronous call's encode
// phase — sends the request, and returns without waiting for the reply.
// The returned promise pipelines with other in-flight calls on the same
// connection. An encode failure or a send the transport refuses (no
// connection, ctx done) is returned here, with no promise: a promise always
// has a request in flight, and a Write that tears it reaches Wait to re-send.
// ctx governs the send only; the ctx given to Wait governs the await and
// any re-send. Client interceptors (Options.Intercept) do not wrap async
// calls; the issue/await split has no single call body to wrap.
func (st *Stub) CallAsync(ctx context.Context, method string, args ...any) (*Promise, error) {
	p := new(Promise)
	st.begin(p, method)
	p.slot = &p.pending
	err := p.encode(args)
	if err == nil {
		p.send(ctx)
		err = p.sendErr
	}
	p.oc.Mark(obs.PhaseAsyncIssue, 0, 0)
	if err != nil {
		p.settle(core.Response{}, err)
		return nil, err
	}
	st.c.metrics.asyncIssued.Add(1)
	return p, nil
}

// encode encodes the request, once, into the call's message, which the
// promise holds until it settles. Retries re-send these exact bytes, so a
// retried call can never ship different state than the original, and args
// are not kept past here.
func (p *Promise) encode(args []any) error {
	c := p.st.c
	p.call.Begin(nil, c.opts.Core)
	p.call.SetObs(p.oc)
	if err := p.st.encodeRequest(&p.call, p.method, args); err != nil {
		return err
	}
	if p.call.NumRestorable() > 0 {
		// With promises, several replies can be consumed concurrently:
		// every call carrying restorable arguments, blocking or not,
		// applies its response under the client's commit lock.
		p.call.SetCommitLock(&c.commitMu)
	}
	c.metrics.bytesSent.Add(p.call.BytesSent())
	return nil
}

// send starts one transport attempt over the pooled connection (a dead one
// is evicted and re-dialed: the reconnect path). The attempt's deadline is
// derived here, once: it ships with the frame as the server-side budget
// and bounds the wait for the reply, however long after the send that
// wait begins. A failure is left in sendErr for await, which owns retry
// classification (CallAsync alone reports a failed first send itself).
func (p *Promise) send(ctx context.Context) {
	c := p.st.c
	c.metrics.attempts.Add(1)
	if ct := c.opts.CallTimeout; ct > 0 {
		p.deadline = time.Now().Add(ct)
	}
	tc, err := c.conn(p.st.addr)
	if err == nil {
		err = tc.Send(ctx, p.slot, transport.MsgCall, p.call.Message(), p.deadline)
	}
	if p.sendErr = err; err == nil {
		p.pc = p.slot
	}
}

// attemptTimers holds stopped timers that bound a reply wait by its attempt
// deadline: under Go 1.23 timer semantics a stopped one holds no stale tick.
var attemptTimers = sync.Pool{New: func() any { t := time.NewTimer(time.Hour); t.Stop(); return t }}

// reply blocks for the current attempt's outcome under the caller's
// context and the attempt deadline, whichever ends first. An expiry
// abandons the pending call, so the pooled reply payload is released
// exactly once whichever way the race goes. An attempt that never went
// out has no pending call: its outcome is the send failure.
func (p *Promise) reply(ctx context.Context) ([]byte, error) {
	pc := p.pc
	if pc == nil {
		return nil, p.sendErr
	}
	p.pc = nil
	if !p.deadline.IsZero() && !pc.Ready() {
		t := attemptTimers.Get().(*time.Timer)
		t.Reset(time.Until(p.deadline))
		defer attemptTimers.Put(t)
		defer t.Stop()
		select {
		case <-pc.Done():
		case <-ctx.Done(): // Wait abandons the call
		case <-t.C:
			pc.Abandon()
			return nil, &transport.CallError{Phase: transport.PhaseAwait, Sent: true, Err: context.DeadlineExceeded}
		}
	}
	return pc.Wait(ctx)
}

// await drives the already-sent first attempt to a reply payload, re-
// sending the identical bytes under the client's retry policy.
func (p *Promise) await(ctx context.Context) ([]byte, error) {
	c := p.st.c
	pol := c.opts.Retry.withDefaults()
	for attempt := 1; ; {
		payload, err := p.reply(ctx)
		if err == nil {
			return payload, nil
		}
		if attempt >= pol.MaxAttempts || !Retryable(err) || ctx.Err() != nil {
			return nil, err
		}
		pause := time.NewTimer(c.backoff(pol, attempt))
		select {
		case <-pause.C:
		case <-ctx.Done():
			pause.Stop()
			return nil, err
		}
		attempt++
		c.metrics.retries.Add(1)
		p.send(ctx)
	}
}

// apply consumes the reply payload into the caller's graph. From here the
// call is never re-sent: ApplyResponseBytes validates fully before
// mutating (a failure leaves the graph bit-identical), and the error
// wraps as ResponseConsumedError, which Retryable refuses. The pooled
// payload goes back once ApplyResponseBytes has returned.
func (p *Promise) apply(payload []byte) (core.Response, error) {
	resp, err := p.call.ApplyResponseBytes(payload)
	transport.ReleasePayload(payload)
	if err != nil {
		return resp, &ResponseConsumedError{Method: p.method, Err: err}
	}
	return resp, nil
}

// Wait blocks until the promise settles and returns the remote results.
// The first Wait consumes the reply and commits the restore (under the
// client's commit lock when the call shipped restorable arguments);
// subsequent Waits return the settled outcome without further effect.
func (p *Promise) Wait(ctx context.Context) ([]any, error) {
	resp, err := p.WaitStats(ctx)
	if err != nil {
		return nil, err
	}
	return resp.Returns, nil
}

// WaitStats is Wait, additionally exposing restore statistics and byte
// counts, the async counterpart of CallStats.
func (p *Promise) WaitStats(ctx context.Context) (*core.Response, error) {
	if p.state == promisePending {
		var resp core.Response
		payload, err := p.await(ctx)
		p.oc.Mark(obs.PhaseAsyncAwait, 0, 0)
		if err == nil {
			resp, err = p.apply(payload)
		}
		p.settle(resp, err)
	}
	switch p.state {
	case promiseResolved:
		return &p.resp, nil
	case promiseRejected:
		return nil, p.err
	}
	return nil, ErrPromiseAbandoned
}

// Ready reports, without blocking, whether Wait would settle without
// waiting on the network (reply delivered, or already settled).
func (p *Promise) Ready() bool {
	if p.state != promisePending {
		return true
	}
	return p.pc != nil && p.pc.Ready()
}

// Abandon relinquishes an unconsumed promise: the pending reply payload
// is released exactly once (by the abandon itself or by the read loop,
// whichever side of the race holds it), the caller's graph stays
// untouched — the restore never commits — and later Waits report
// ErrPromiseAbandoned. Abandoning a settled promise is a no-op.
func (p *Promise) Abandon() {
	if p.state != promisePending {
		return
	}
	if p.pc != nil {
		p.pc.Abandon()
		p.pc = nil
	}
	p.st.c.metrics.promisesAbandoned.Add(1)
	p.settle(core.Response{}, ErrPromiseAbandoned)
	p.state = promiseAbandoned
}

// settle records the outcome, on the client's counters and on the observer
// with the call's request and reply sizes, and returns the pooled encoder
// state, request included. Every call shape ends here, abandoned or not.
func (p *Promise) settle(resp core.Response, err error) {
	c := p.st.c
	c.metrics.calls.Add(1)
	p.state, p.resp, p.err = promiseResolved, resp, err
	if err != nil {
		p.state = promiseRejected
		c.metrics.errors.Add(1)
	} else {
		c.metrics.bytesReceived.Add(resp.BytesReceived)
	}
	p.oc.SetIO(resp.BytesReceived, p.call.BytesSent())
	p.oc.Finish(err)
	p.call.Release()
	p.oc = nil
}

// All waits for every promise in order and collects their return values.
// On the first failure the remaining unconsumed promises are abandoned —
// their replies recycled, their restores never committed — and the error
// (annotated with the failing index) is returned. Restores of the
// promises consumed before the failure remain committed: All is a join,
// not a transaction.
func All(ctx context.Context, ps ...*Promise) ([][]any, error) {
	results := make([][]any, len(ps))
	var firstErr error
	for i, p := range ps {
		if p == nil {
			continue
		}
		if firstErr != nil {
			p.Abandon()
			continue
		}
		rets, err := p.Wait(ctx)
		if err != nil {
			firstErr = fmt.Errorf("rmi: promise %d: %w", i, err)
			continue
		}
		results[i] = rets
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}
