// Package transport implements NRMI's message layer: a framed, multiplexed
// request/response protocol over any net.Conn (real TCP, loopback, or a
// netsim pipe). It corresponds to the connection-management layer of
// Java RMI's JRMP.
//
// Frame layout (big-endian):
//
//	magic    u16  0x4E52 ("NR")
//	type     u8   message type, caller-defined
//	flags    u8   0x01 = error reply, 0x04 = deadline extension present,
//	              0x08 = status byte; 0x02 and 0x10 are retired (refused)
//	reqID    u64  request correlation id
//	length   u32  payload byte count
//	[deadline u64] remaining call budget in microseconds (flag 0x04 only)
//	payload  []byte
//
// A Write carries one or more whole frames: all that its connection end
// queued since the previous Write (netsim charges per Write). Both ends
// read through one readBufSize buffer per connection, so a frame that fits
// costs one read and frames that arrive together share one.
//
// Every request gets exactly one reply frame. A server connection's read
// loop hands each request to a parked worker goroutine of that connection
// or, when none is parked, starts one, so no request queues. A finished
// worker parks and keeps its grown stack; at most maxIdleWorkers park per
// connection (one more exits instead: a counter, no timer), and all exit
// when the read loop returns.
package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"nrmi/internal/bufpool"
)

// Message types used across the NRMI stack. The transport treats them as
// opaque; they are centralized here to keep the protocol in one place.
// Types 3 and 4 are retired (the naming service and the DGC are calls on
// reserved exports), as is 7 (a ping: any call is one); 5 and 6 are
// reserved.
const (
	// MsgCall is a remote method invocation request.
	MsgCall byte = 1
	// MsgReply is a successful invocation reply.
	MsgReply byte = 2
)

const (
	frameMagic = 0x4E52
	headerSize = 2 + 1 + 1 + 8 + 4
	flagError  = 0x01
	// flagsRetired were DEFLATE (0x02) and one-way, no reply (0x10): no
	// writer sets them, readFrame refuses either.
	flagsRetired = 0x02 | 0x10
	flagDeadline = 0x04
	flagStatus   = 0x08
	maxFrameSize = 64 << 20

	// readBufSize lets a 256-node paper frame (about 1.5 KB) arrive in one read.
	readBufSize = 4 << 10
	// maxSpareBatch is the largest batch buffer a sender keeps for reuse.
	maxSpareBatch = 64 << 10
	// maxIdleWorkers bounds the workers (and stacks) one connection parks.
	maxIdleWorkers = 16
)

// Errors reported by the transport.
var (
	// ErrClosed is reported when using a closed conn or server.
	ErrClosed = errors.New("transport: connection closed")
	// ErrBadFrame is reported for malformed frames.
	ErrBadFrame = errors.New("transport: malformed frame")
	// ErrFrameTooLarge guards the frame size limit.
	ErrFrameTooLarge = errors.New("transport: frame exceeds size limit")
	// ErrUnavailable is the typed refusal of a server that is draining or
	// stopped. The call was never dispatched, so it is always safe to
	// retry against another (or a restarted) endpoint.
	ErrUnavailable = errors.New("transport: server unavailable (draining or stopped)")
	// ErrOverloaded is the typed refusal of admission control: the server
	// shed the call before dispatch rather than queue it unboundedly. Like
	// ErrUnavailable, the call provably never executed.
	ErrOverloaded = errors.New("transport: server overloaded")
)

// Status codes carried by status-flagged error replies, so well-known
// refusals cross the wire as types rather than strings.
const (
	// StatusApp is a plain application error (never put on the wire; such
	// replies omit the status flag entirely).
	StatusApp byte = 0
	// StatusUnavailable: the server is draining or stopped.
	StatusUnavailable byte = 1
	// StatusOverloaded: admission control rejected the call.
	StatusOverloaded byte = 2
	// StatusCancelled: the propagated client deadline expired and the
	// server abandoned the call.
	StatusCancelled byte = 3
)

// statusOf classifies a handler error for the wire.
func statusOf(err error) byte {
	switch {
	case errors.Is(err, ErrUnavailable):
		return StatusUnavailable
	case errors.Is(err, ErrOverloaded):
		return StatusOverloaded
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return StatusCancelled
	}
	return StatusApp
}

// statusName returns the human label of a status code.
func statusName(code byte) string {
	switch code {
	case StatusUnavailable:
		return "unavailable"
	case StatusOverloaded:
		return "overloaded"
	case StatusCancelled:
		return "cancelled"
	}
	return fmt.Sprintf("status-%d", code)
}

// StatusError is a peer refusal carrying a protocol status code. Unwrap
// maps the code back onto the matching sentinel (ErrUnavailable,
// ErrOverloaded, context.DeadlineExceeded), so retry layers classify with
// errors.Is instead of string matching.
type StatusError struct {
	// Code is one of the Status* constants.
	Code byte
	// Msg is the peer-reported error text.
	Msg string
}

// Error implements the error interface.
func (e *StatusError) Error() string {
	return fmt.Sprintf("remote [%s]: %s", statusName(e.Code), e.Msg)
}

// Unwrap exposes the sentinel behind the code to errors.Is.
func (e *StatusError) Unwrap() error {
	switch e.Code {
	case StatusUnavailable:
		return ErrUnavailable
	case StatusOverloaded:
		return ErrOverloaded
	case StatusCancelled:
		return context.DeadlineExceeded
	}
	return nil
}

// RemoteError carries an error string returned by the peer, preserving the
// paper's position that remote exceptions must stay visible to programmers
// (Section 6.2, the Waldo et al. discussion).
type RemoteError struct {
	// Msg is the peer-reported error text.
	Msg string
}

// Error implements the error interface.
func (e *RemoteError) Error() string { return "remote: " + e.Msg }

// Call phases recorded in CallError.
const (
	// PhaseSend covers everything before the request frame was fully
	// written; the server cannot have seen the call.
	PhaseSend = "send"
	// PhaseAwait covers waiting for the reply; the server may or may not
	// have executed the call.
	PhaseAwait = "await"
)

// CallError classifies a failed Call for the resilience layers above the
// transport: Phase says how far the call got, and Sent reports whether
// the request frame was fully written. A retry of an unsent request can
// never double-execute; a retry of a sent one is at-least-once territory
// and is the caller's policy decision.
type CallError struct {
	// Phase is PhaseSend or PhaseAwait.
	Phase string
	// Sent reports whether the request frame may have been fully written.
	// A frame ending past the bytes a failed Write got out was not: the
	// peer never saw it complete and cannot have dispatched the call.
	Sent bool
	// Err is the underlying cause: a context error, an I/O error, or
	// ErrClosed.
	Err error
}

// Error implements the error interface.
func (e *CallError) Error() string {
	return fmt.Sprintf("transport: call failed (%s, sent=%t): %v", e.Phase, e.Sent, e.Err)
}

// Unwrap exposes the cause to errors.Is / errors.As.
func (e *CallError) Unwrap() error { return e.Err }

// frame is one decoded protocol frame.
type frame struct {
	msgType byte
	flags   byte
	reqID   uint64
	// deadline is the caller's remaining call budget: zero means none, below
	// zero spent on arrival. On the wire it travels as a relative duration,
	// not an absolute time, so unsynchronized clocks cannot corrupt it.
	deadline time.Duration
	payload  []byte
}

// ReleasePayload returns a payload obtained from Conn.Call (or handed to a
// Handler) to the frame buffer pool. Ownership contract: the transport
// allocates reply/request payloads from a shared pool; the layer that
// finishes consuming a payload should release it so the steady state
// allocates nothing per frame. Releasing is always optional (an unreleased
// buffer is just garbage collected) and safe for any byte slice — buffers
// that did not come from the pool are dropped. Never release a payload that
// is still referenced, including one echoed back as a reply.
func ReleasePayload(p []byte) { bufpool.Put(p) }

// appendFrame appends f, header and deadline extension included, to dst.
func appendFrame(dst []byte, f frame) ([]byte, error) {
	if len(f.payload) > maxFrameSize {
		return dst, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(f.payload))
	}
	if f.deadline > 0 {
		f.flags |= flagDeadline
	}
	dst = binary.BigEndian.AppendUint16(dst, frameMagic)
	dst = append(dst, f.msgType, f.flags)
	dst = binary.BigEndian.AppendUint64(dst, f.reqID)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(f.payload)))
	if f.deadline > 0 {
		// In microseconds, rounded up: a budget under 1 µs is not a zero.
		dst = binary.BigEndian.AppendUint64(dst, (uint64(f.deadline)+999)/1000)
	}
	return append(dst, f.payload...), nil
}

// queuedFrame is a frame in a batch: its request id and where it ends.
type queuedFrame struct {
	id  uint64
	end int
}

// sender is the write side of one connection end: enqueue copies whole
// frames into the batch, and the writer goroutine (run) sends each batch
// with one Write. Two buffers take turns, one written while one fills.
type sender struct {
	conn net.Conn
	sent func(frames []queuedFrame, n int, err error) // settles a Write of n bytes, under flushMu
	wake chan struct{}                                // capacity 1: frames wait for the writer

	flushMu     sync.Mutex // one batch on the conn at a time; guards the spares
	spare       []byte
	spareFrames []queuedFrame

	mu     sync.Mutex
	batch  []byte
	frames []queuedFrame
	closed bool
}

// run is the writer goroutine, until close.
func (s *sender) run() {
	for range s.wake {
		// Let the callers and workers already runnable queue their frames:
		// under GOMAXPROCS=1 the woken writer runs next and would send each
		// frame alone. A blocked handler is not runnable, so none is waited for.
		runtime.Gosched()
		s.write()
	}
}

// enqueue appends f to the batch; the first frame of an empty batch wakes
// the writer.
func (s *sender) enqueue(f frame) (err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.batch, err = appendFrame(s.batch, f); err != nil {
		return err
	}
	if len(s.frames) == 0 {
		select {
		case s.wake <- struct{}{}:
		default: // the writer holds a token already
		}
	}
	s.frames = append(s.frames, queuedFrame{f.reqID, len(s.batch)})
	return nil
}

// write sends the batch with one Write and settles it.
func (s *sender) write() {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	s.mu.Lock()
	batch, frames := s.batch, s.frames
	if len(batch) == 0 {
		s.mu.Unlock()
		return
	}
	s.batch, s.frames = s.spare[:0], s.spareFrames[:0]
	s.mu.Unlock()
	n, err := s.conn.Write(batch)
	s.sent(frames, n, err)
	if cap(batch) > maxSpareBatch {
		batch, frames = nil, nil // one large frame must not pin its size
	}
	s.spare, s.spareFrames = batch, frames
}

// close stops the writer and refuses frames from now on; it returns those
// still queued, which no Write will carry.
func (s *sender) close() (unsent []queuedFrame) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		close(s.wake)
		unsent, s.batch, s.frames = s.frames, nil, nil
	}
	return unsent
}

// readFrameInto reads one frame, its header and deadline extension into a
// read loop's scratch. The returned payload comes from the shared buffer
// pool; see ReleasePayload for the ownership contract.
func readFrameInto(r io.Reader, hdr *[headerSize + 8]byte) (frame, error) {
	if _, err := io.ReadFull(r, hdr[:headerSize]); err != nil {
		return frame{}, err
	}
	if magic := binary.BigEndian.Uint16(hdr[0:2]); magic != frameMagic || hdr[3]&flagsRetired != 0 {
		return frame{}, fmt.Errorf("%w: magic %#04x, flags %#02x", ErrBadFrame, magic, hdr[3])
	}
	length := binary.BigEndian.Uint32(hdr[12:16])
	if length > maxFrameSize {
		return frame{}, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, length)
	}
	var deadline time.Duration
	if hdr[3]&flagDeadline != 0 {
		if _, err := io.ReadFull(r, hdr[headerSize:]); err != nil {
			return frame{}, inFrame(err)
		}
		us := binary.BigEndian.Uint64(hdr[headerSize:]) // a flagged zero is spent, a hostile budget clamps
		if deadline = time.Duration(min(us, math.MaxInt64/1000)) * time.Microsecond; us == 0 {
			deadline = -1
		}
	}
	payload := bufpool.Get(int(length))
	if _, err := io.ReadFull(r, payload); err != nil {
		bufpool.Put(payload)
		return frame{}, inFrame(err)
	}
	return frame{
		msgType:  hdr[2],
		flags:    hdr[3] &^ flagDeadline,
		reqID:    binary.BigEndian.Uint64(hdr[4:12]),
		deadline: deadline,
		payload:  payload,
	}, nil
}

// inFrame reports the EOF of a read that began after a frame's header as
// io.ErrUnexpectedEOF: a clean io.EOF exists only between frames.
func inFrame(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Conn is the client side of a transport connection: concurrent Call
// invocations are multiplexed over one net.Conn and matched to replies by
// request id.
type Conn struct {
	c      net.Conn
	s      sender
	nextID atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]*PendingCall
	err     error // the root cause once the conn has failed or closed
}

// NewConn wraps an established net.Conn as a client transport connection
// and starts its read loop and writer.
func NewConn(c net.Conn) *Conn {
	tc := &Conn{c: c, pending: make(map[uint64]*PendingCall)}
	tc.s = sender{conn: c, sent: tc.sent, wake: make(chan struct{}, 1)}
	go tc.s.run()
	go tc.readLoop()
	return tc
}

func (c *Conn) readLoop() {
	r := bufio.NewReaderSize(c.c, readBufSize)
	hdr := new([headerSize + 8]byte)
	for {
		f, err := readFrameInto(r, hdr)
		if err != nil {
			c.fail(err)
			return
		}
		c.mu.Lock()
		e, ok := c.pending[f.reqID]
		delete(c.pending, f.reqID)
		c.mu.Unlock()
		if ok {
			e.f = f
			close(e.done)
		} else {
			// Unmatched reply: the caller abandoned the call and moved on, so
			// nothing will ever read the payload — recycle it.
			ReleasePayload(f.payload)
		}
	}
}

// settle fails id's pending call, if it still has one, in phase (sent
// unless PhaseSend); the caller holds c.mu.
func (c *Conn) settle(id uint64, phase string, err error) {
	if e, ok := c.pending[id]; ok {
		delete(c.pending, id)
		e.err = &CallError{Phase: phase, Sent: phase == PhaseAwait, Err: err}
		close(e.done)
	}
}

// sent settles a Write: after a failed one, each frame ending past the n
// bytes that went out is unsent. The stream may hold a partial frame, so
// the conn is done; closing it ends the read loop, whose fail does the rest.
func (c *Conn) sent(frames []queuedFrame, n int, err error) {
	if err == nil {
		return
	}
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	for _, f := range frames {
		if f.end > n {
			c.settle(f.id, PhaseSend, err)
		}
	}
	c.mu.Unlock()
	_ = c.c.Close()
}

// fail ends the conn with root cause err (unless it has one) and fails every
// pending call: closing the socket returns a Write in progress, which sent
// settles first; then a queued frame is unsent, and the rest went out whole.
func (c *Conn) fail(err error) error {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
	cerr := c.c.Close()
	c.s.flushMu.Lock()
	defer c.s.flushMu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, f := range c.s.close() {
		c.settle(f.id, PhaseSend, c.err)
	}
	for id := range c.pending {
		c.settle(id, PhaseAwait, c.err)
	}
	return cerr
}

// Err is the connection health check: it returns nil while the connection
// is usable and the terminal error once it has failed or been closed. A
// closed conn never recovers, so callers should discard it and dial anew.
func (c *Conn) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// PendingCall is one in-flight request started by Conn.Send, the transport
// half of a promise: its slot in the pending map until the read loop, a
// failed Write or fail fills f or err and closes done. Consume it with Wait
// or relinquish it with Abandon — exactly one, or the pooled reply payload
// leaks; after either, Send may reuse it. It is owned by one goroutine (Done
// may be polled from anywhere).
type PendingCall struct {
	c       *Conn
	id      uint64
	done    chan struct{}
	f       frame
	err     *CallError
	settled bool
}

// Send queues one request frame: every request this connection sends goes
// through here. The frame's budget is the time left until deadline or
// until ctx's own deadline, whichever is earlier (a zero deadline leaves it
// to ctx); ctx is not monitored after Send returns, pass it again to Wait.
// The reply, or the failure of the Write carrying the frame, is claimed
// through pc, which Send fills: a new one, or one whose last call was
// settled by Wait or Abandon. A failure Send returns itself is a
// *CallError{Phase: PhaseSend, Sent: false} — the frame provably never went
// out whole, so it is safe to retry — and leaves nothing to abandon.
func (c *Conn) Send(ctx context.Context, pc *PendingCall, msgType byte, payload []byte, deadline time.Time) error {
	if err := ctx.Err(); err != nil {
		return &CallError{Phase: PhaseSend, Err: err}
	}
	if dl, ok := ctx.Deadline(); ok && (deadline.IsZero() || dl.Before(deadline)) {
		deadline = dl
	}
	var budget time.Duration
	if !deadline.IsZero() {
		if budget = time.Until(deadline); budget <= 0 {
			return &CallError{Phase: PhaseSend, Err: context.DeadlineExceeded}
		}
	}
	f := frame{msgType: msgType, deadline: budget, payload: payload}
	c.mu.Lock()
	if err := c.err; err != nil {
		c.mu.Unlock()
		return &CallError{Phase: PhaseSend, Err: err}
	}
	f.reqID = c.nextID.Add(1)
	*pc = PendingCall{c: c, id: f.reqID, done: make(chan struct{})}
	c.pending[f.reqID] = pc
	c.mu.Unlock()

	if err := c.s.enqueue(f); err != nil {
		c.mu.Lock()
		delete(c.pending, f.reqID)
		c.mu.Unlock()
		// ErrFrameTooLarge is refused before any byte is queued and leaves
		// the conn usable; anything else has already ended it.
		return &CallError{Phase: PhaseSend, Err: err}
	}
	return nil
}

// Done returns a channel closed once the reply (or the connection's
// terminal error) has been delivered, so promise layers can poll or select
// on readiness without consuming the reply.
func (p *PendingCall) Done() <-chan struct{} { return p.done }

// Ready reports, without blocking, whether Wait would return immediately.
func (p *PendingCall) Ready() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// Wait blocks for the reply (or ctx expiration) and consumes it. On ctx
// expiry the call is abandoned exactly as by Abandon, so Wait never
// strands a pooled payload; the pending call is settled either way and
// must not be waited on again. Error mapping matches Conn.Call.
func (p *PendingCall) Wait(ctx context.Context) ([]byte, error) {
	if p.settled {
		return nil, &CallError{Phase: PhaseAwait, Sent: true, Err: ErrClosed}
	}
	select {
	case <-p.done:
		p.settled = true
		return p.consume()
	case <-ctx.Done():
		p.Abandon()
		return nil, &CallError{Phase: PhaseAwait, Sent: true, Err: ctx.Err()}
	}
}

// consume interprets the delivered reply. Ownership of a success payload
// passes to the caller; error replies are decoded into typed errors and
// their payloads recycled here.
func (p *PendingCall) consume() ([]byte, error) {
	if p.err != nil {
		return nil, p.err
	}
	f := p.f
	if f.flags&flagError != 0 {
		// The error strings copy out of the payload, so it is recycled here.
		defer ReleasePayload(f.payload)
		if f.flags&flagStatus != 0 && len(f.payload) >= 1 {
			return nil, &StatusError{Code: f.payload[0], Msg: string(f.payload[1:])}
		}
		return nil, &RemoteError{Msg: string(f.payload)}
	}
	// Ownership of the reply payload passes to the caller, who may hand
	// it back via ReleasePayload once fully consumed.
	return f.payload, nil
}

// Abandon relinquishes a pending call without consuming its reply,
// guaranteeing the pooled payload is released exactly once whichever side
// of the reply/abandon race wins:
//
//   - abandon first: the entry is removed from the pending map here, so a
//     reply landing later is unmatched and the read loop recycles it;
//   - reply first: the read loop (or fail) already claimed the entry
//     and is delivering, so Abandon waits for the imminent close of done
//     and recycles the payload itself.
//
// Abandon is idempotent on a settled call.
func (p *PendingCall) Abandon() {
	if p.settled {
		return
	}
	p.settled = true
	c := p.c
	c.mu.Lock()
	_, pendingStill := c.pending[p.id]
	delete(c.pending, p.id)
	c.mu.Unlock()
	if pendingStill {
		return
	}
	<-p.done
	if p.err == nil {
		ReleasePayload(p.f.payload)
	}
}

// Call sends one request frame and blocks for its reply (or ctx
// expiration). A ctx deadline additionally travels with the frame as the
// call's remaining budget, so the server can abandon work this caller has
// already given up on. An error-flagged reply surfaces as *RemoteError
// (or *StatusError when the peer sent a status code); every
// transport-level failure surfaces as *CallError, whose Sent field tells
// retry layers whether the server could have seen the request. Call is
// Send followed by Wait, so the synchronous and promise paths share one
// reply/abandon implementation.
func (c *Conn) Call(ctx context.Context, msgType byte, payload []byte) ([]byte, error) {
	pc := new(PendingCall)
	if err := c.Send(ctx, pc, msgType, payload, time.Time{}); err != nil {
		return nil, err
	}
	return pc.Wait(ctx)
}

// Close tears the connection down; in-flight calls fail with ErrClosed.
func (c *Conn) Close() error {
	return c.fail(ErrClosed)
}

// reqCtx is the context of a request whose frame carried a budget: it is
// observably context.WithDeadline(parent, deadline) ended when the handler
// returns, but only the first Done builds that context and its timer.
type reqCtx struct {
	parent   context.Context
	deadline time.Time
	mu       sync.Mutex
	armed    context.Context // once Done is called, or Value after c ended
	cancel   context.CancelFunc
	err      error // the first non-nil Err
}

func (c *reqCtx) Deadline() (time.Time, bool) { return c.deadline, true }
func (c *reqCtx) Done() <-chan struct{}       { return c.use(true).Done() }
func (c *reqCtx) Value(key any) any           { return c.use(false).Value(key) }

func (c *reqCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.errLocked()
}

// use returns the context to ask: the parent until c is armed, by Done or
// by having ended (context.Cause finds the cause through Value). One armed
// after c ended is born ended, with the error Err reported as its cause.
func (c *reqCtx) use(arm bool) context.Context {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.armed == nil {
		if !arm && c.errLocked() == nil {
			return c.parent
		}
		if c.armed, c.cancel = context.WithDeadlineCause(c.parent, c.deadline, c.err); c.err != nil {
			c.cancel()
		}
	}
	return c.armed
}

// errLocked settles err from the armed context, or the parent and the clock.
func (c *reqCtx) errLocked() error {
	if c.err == nil {
		if c.armed != nil {
			c.err = c.armed.Err()
		} else if c.err = c.parent.Err(); c.err == nil && !time.Now().Before(c.deadline) {
			c.err = context.DeadlineExceeded
		}
	}
	return c.err
}

// stop ends c once its handler has returned.
func (c *reqCtx) stop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.armed != nil {
		c.cancel()
	} else if c.errLocked() == nil {
		c.err = context.Canceled
	}
}

// Handler processes one inbound request and produces a reply payload.
// Returning an error sends an error-flagged reply carrying err.Error()
// (plus a status code for the typed refusals, see statusOf). The context
// carries the caller's propagated deadline when the request frame shipped
// one, and is cancelled when the server closes; handlers doing real work
// should observe it.
//
// The request payload is pool-owned: it stays valid through the handler
// call and the copy of the reply into the batch (a reply may alias it), after
// which the server recycles it. Handlers must copy anything they need to
// keep past their return.
type Handler func(ctx context.Context, msgType byte, payload []byte) ([]byte, error)

// Server accepts transport connections and dispatches frames to a Handler.
// Requests run concurrently, like RMI's per-call threads, on kept workers.
type Server struct {
	ln      net.Listener
	handler Handler
	pooled  bool // replies are the server's to release (ServePooled)

	// baseCtx parents every request context; cancelled by Close so
	// in-flight handlers learn the server is going away.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	conns    map[*srvConn]struct{}
	closed   bool
	lnClosed bool
	wg       sync.WaitGroup

	// reqs counts live requests until the Write that carried the reply
	// has returned; Drain polls it so graceful shutdown can wait for
	// replies to flush before connections are torn down.
	reqs            atomic.Int64
	served, started atomic.Int64 // see Stats
}

// srvConn is one accepted connection, its workers and its writer.
type srvConn struct {
	c net.Conn
	s sender
	// work is unbuffered: a send succeeds only while a worker is parked on it.
	work    chan frame
	idle    atomic.Int32 // workers parked on work
	workers sync.WaitGroup
}

// Stats counts worker reuse: Started/Served of the requests had a cold stack.
type Stats struct {
	Served  int64 // requests run to completion, reply written
	Started int64 // worker goroutines started
	Parked  int64 // workers idle right now, over all connections
}

// Stats returns a snapshot of the server's worker counters.
func (s *Server) Stats() Stats {
	st := Stats{Served: s.served.Load(), Started: s.started.Load()}
	s.mu.Lock()
	defer s.mu.Unlock()
	for sc := range s.conns {
		st.Parked += int64(sc.idle.Load())
	}
	return st
}

// Serve starts accepting connections on ln. It returns immediately; use
// Close to stop.
func Serve(ln net.Listener, h Handler) *Server { return serve(ln, h, false) }

// ServePooled is Serve for a handler whose replies are pool-owned: each is
// released once the batch holds its copy. A reply that aliases its request
// payload (an echo) is released once, as the request.
func ServePooled(ln net.Listener, h Handler) *Server { return serve(ln, h, true) }

func serve(ln net.Listener, h Handler, pooled bool) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{ln: ln, handler: h, pooled: pooled, conns: make(map[*srvConn]struct{}), baseCtx: ctx, baseCancel: cancel}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = c.Close()
			return
		}
		sc := &srvConn{c: c, work: make(chan frame)}
		sc.s = sender{conn: c, wake: make(chan struct{}, 1), sent: func(frames []queuedFrame, _ int, _ error) { s.done(len(frames)) }}
		s.conns[sc] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(2)
		go s.serveConn(sc)
		go func() { defer s.wg.Done(); sc.s.run() }()
	}
}

func (s *Server) serveConn(sc *srvConn) {
	defer s.wg.Done()
	defer func() {
		// Parked workers exit on the close, busy ones after queueing their
		// reply; the last batch goes out before the connection closes.
		close(sc.work)
		sc.workers.Wait()
		sc.s.write()
		sc.s.close()
		_ = sc.c.Close()
		s.mu.Lock()
		delete(s.conns, sc)
		s.mu.Unlock()
	}()
	r := bufio.NewReaderSize(sc.c, readBufSize)
	hdr := new([headerSize + 8]byte)
	for {
		f, err := readFrameInto(r, hdr)
		if err != nil {
			return
		}
		s.reqs.Add(1)
		select {
		case sc.work <- f:
		default:
			s.started.Add(1)
			sc.workers.Add(1)
			go s.worker(sc, f)
		}
	}
}

// worker serves f and then, on the same grown stack, every frame the read
// loop hands it while parked. The reply is queued before the worker parks,
// so the caller's next frame can overtake it and start a second worker.
func (s *Server) worker(sc *srvConn, f frame) {
	defer sc.workers.Done()
	for ok := true; ok; {
		s.serve(sc, f)
		if sc.idle.Add(1) > maxIdleWorkers {
			sc.idle.Add(-1)
			return
		}
		f, ok = <-sc.work
		sc.idle.Add(-1)
	}
}

// done counts k requests served, each once the Write carrying its reply returned.
func (s *Server) done(k int) { s.served.Add(int64(k)); s.reqs.Add(-int64(k)) }

// serve runs one request; f.payload is its to release after the reply.
func (s *Server) serve(sc *srvConn, f frame) {
	ctx := s.baseCtx
	if f.deadline != 0 {
		rc := &reqCtx{parent: ctx, deadline: time.Now().Add(f.deadline)}
		defer rc.stop()
		ctx = rc
	}
	reply, err := s.safeHandle(ctx, f.msgType, f.payload)
	out := frame{msgType: MsgReply, reqID: f.reqID, payload: reply}
	if err != nil {
		out.flags = flagError
		if code := statusOf(err); code != StatusApp {
			out.flags |= flagStatus
			out.payload = append([]byte{code}, err.Error()...)
		} else {
			out.payload = []byte(err.Error())
		}
	}
	if err = sc.s.enqueue(out); errors.Is(err, ErrFrameTooLarge) {
		// A plain error, not a status: the handler ran, so no retry.
		err = sc.s.enqueue(frame{msgType: MsgReply, flags: flagError, reqID: f.reqID,
			payload: fmt.Appendf(nil, "transport: reply of %d bytes exceeds the %d-byte frame limit", len(out.payload), maxFrameSize)})
	}
	// The handler has returned and the batch holds a copy of the reply, so
	// both buffers are free; a ServePooled reply that echoes its request is
	// released once, as the request.
	if s.pooled && unsafe.SliceData(reply) != unsafe.SliceData(f.payload) {
		ReleasePayload(reply)
	}
	ReleasePayload(f.payload)
	if err != nil {
		s.done(1) // the connection is closed: nothing to write
	}
}

// safeHandle runs the handler, converting panics into error replies: one
// hostile or buggy request must never take the whole server process down,
// nor leave its profiler labels on the worker for the next request.
func (s *Server) safeHandle(ctx context.Context, msgType byte, payload []byte) (reply []byte, err error) {
	defer func() {
		pprof.SetGoroutineLabels(s.baseCtx)
		if r := recover(); r != nil {
			reply = nil
			err = fmt.Errorf("transport: handler panicked: %v", r)
		}
	}()
	return s.handler(ctx, msgType, payload)
}

// StopAccepting closes the listener so no new connections are admitted,
// while established connections keep being served — the first phase of a
// graceful drain: late requests on live connections can still be answered
// (typically with ErrUnavailable) instead of seeing a torn stream. Close
// completes the teardown.
func (s *Server) StopAccepting() error {
	s.mu.Lock()
	if s.lnClosed {
		s.mu.Unlock()
		return nil
	}
	s.lnClosed = true
	s.mu.Unlock()
	return s.ln.Close()
}

// Drain blocks until no request is running — every admitted
// request has had its reply written to the connection — or ctx expires.
// The graceful-shutdown companion to Close: stop admitting work first
// (StopAccepting plus a handler-level gate), Drain, then Close, and no
// in-flight reply is ever cut off by the connection teardown. New
// requests arriving during Drain (typically answered with ErrUnavailable)
// briefly re-raise the count; the poll converges once the caller's gate
// refuses them faster than they arrive.
func (s *Server) Drain(ctx context.Context) error {
	for {
		if s.reqs.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// Close stops accepting, cancels the context of in-flight handlers, closes
// all connections, and waits for in-flight handlers to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for sc := range s.conns {
		conns = append(conns, sc.c)
	}
	s.mu.Unlock()
	s.baseCancel()
	err := s.StopAccepting()
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
	return err
}
