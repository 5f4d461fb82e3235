// Server-side batch dispatch (Options.BatchCalls): when several calls to
// the same export are in flight at once, the first becomes the batch
// leader and executes the queued followers back to back on its own
// goroutine — the server-side analog of the pipelined client amortizing
// round trips.
//
// Coalescing is opportunistic and bounded: a call finding a live leader
// for its export enqueues only while the leader's enrollment budget
// (BatchCalls-1 followers) lasts; past that it runs unbatched and
// concurrent, exactly as without batching. Batching therefore changes
// scheduling, never admission: every batched call was individually
// admitted, counted, and deadline-checked by handle before it reached
// the batcher, and each keeps its own context, reply, and restore
// section.
//
// Delivery is exactly-once by construction: followers can only enqueue
// while the leader is live (same mutex), and the leader drains the queue
// to empty before retiring, answering every follower on its channel —
// including ones whose deadline expired while queued, which get a typed
// abandonment error instead of a method run nobody awaits.
package rmi

import (
	"context"
	"fmt"
	"sync"

	"nrmi/internal/core"
)

// batchResult is one batched call's outcome, delivered to the follower's
// handler goroutine.
type batchResult struct {
	out []byte
	err error
}

// batchReq is one queued follower. Its payload stays valid while the
// handler goroutine blocks on done: the transport releases a request
// payload only after the handler returns.
type batchReq struct {
	ctx     context.Context
	payload []byte
	done    chan batchResult
}

// batchQueue is the per-export coalescing point.
type batchQueue struct {
	// live is true while a leader is draining this queue; enqueueing is
	// only legal then (the leader guarantees delivery before retiring).
	live bool
	// enrolled counts followers accepted by the current leader; it caps
	// the leader's extra work at BatchCalls-1 calls.
	enrolled int
	reqs     []*batchReq
}

// batcher holds the per-export queues. Entries are one small struct per
// export ever called while batching — bounded by the export table, so
// they are never reclaimed.
type batcher struct {
	mu sync.Mutex
	q  map[string]*batchQueue
}

func newBatcher() *batcher { return &batcher{q: make(map[string]*batchQueue)} }

// dispatchMsgCall routes an admitted MsgCall through the batcher when
// batching is on, else straight to handleCall.
func (s *Server) dispatchMsgCall(ctx context.Context, payload []byte) ([]byte, error) {
	b := s.batcher
	if b == nil {
		return s.handleCall(ctx, payload)
	}
	objKey, ok := s.peekObjectKey(payload)
	if !ok {
		// Undecodable header: let the normal path produce the real error.
		return s.handleCall(ctx, payload)
	}
	b.mu.Lock()
	q := b.q[objKey]
	if q == nil {
		q = &batchQueue{}
		b.q[objKey] = q
	}
	if q.live {
		if q.enrolled < s.opts.BatchCalls-1 {
			q.enrolled++
			r := &batchReq{ctx: ctx, payload: payload, done: make(chan batchResult, 1)}
			q.reqs = append(q.reqs, r)
			b.mu.Unlock()
			res := <-r.done
			return res.out, res.err
		}
		b.mu.Unlock()
		// Leader's budget is spent: run unbatched and concurrent.
		return s.handleCall(ctx, payload)
	}
	q.live = true
	q.enrolled = 0
	b.mu.Unlock()
	return s.leadBatch(ctx, payload, q)
}

// leadBatch runs the leader's own call and then drains the follower queue
// to empty. The leader's reply is returned to its own caller; each
// follower's reply goes out on its channel.
func (s *Server) leadBatch(ctx context.Context, payload []byte, q *batchQueue) ([]byte, error) {
	out, err := s.handleCall(ctx, payload)
	followers := 0
	for {
		s.batcher.mu.Lock()
		if len(q.reqs) == 0 {
			q.live = false
			s.batcher.mu.Unlock()
			break
		}
		r := q.reqs[0]
		q.reqs = q.reqs[1:]
		s.batcher.mu.Unlock()
		followers++
		if cerr := r.ctx.Err(); cerr != nil {
			// The follower's client gave up while it queued; don't run work
			// nobody awaits. Its handler goroutine reports the error (and
			// the cancellation) through the usual metrics path.
			r.done <- batchResult{err: fmt.Errorf("rmi: batched call abandoned: %w", cerr)}
			continue
		}
		fout, ferr := s.handleCall(r.ctx, r.payload)
		r.done <- batchResult{out: fout, err: ferr}
	}
	if followers > 0 {
		s.metrics.batches.Add(1)
		s.metrics.batchedCalls.Add(int64(followers) + 1)
	}
	return out, err
}

// peekObjectKey decodes just the dispatch key from a call payload, the
// batcher's coalescing key. The full handler re-decodes it.
func (s *Server) peekObjectKey(payload []byte) (string, bool) {
	sc := core.AcceptCallBytes(payload, s.opts.Core)
	defer sc.Release()
	key, err := sc.DecodeString()
	if err != nil {
		return "", false
	}
	return key, true
}
