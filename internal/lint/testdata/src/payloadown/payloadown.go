// Package payloadown exercises the payload-ownership check: pooled
// buffers must reach exactly one release or ownership transfer on every
// path. The frame type mirrors the transport frame by shape (a struct
// with a payload []byte field), which is what the source matcher keys on.
package payloadown

import (
	"errors"
	"io"

	"nrmi/internal/lint/testdata/src/payloadown/bufpool"
)

// frame mirrors the transport frame: its payload field is pool-owned.
type frame struct {
	id      uint64
	payload []byte
}

// readFrame mirrors the transport source: the returned frame's payload
// is owned by the caller. The inline Get inside the composite literal
// transfers straight into the returned value.
func readFrame(r io.Reader) (frame, error) {
	p := bufpool.Get(16)
	if _, err := io.ReadFull(r, p); err != nil {
		bufpool.Put(p)
		return frame{}, err
	}
	return frame{id: 1, payload: p}, nil
}

// ReleasePayload mirrors the transport release entry point.
func ReleasePayload(p []byte) { bufpool.Put(p) }

func work(p []byte) bool      { return len(p) > 0 }
func consume(p []byte)        { _ = p }
func inflate(p []byte) []byte { return append([]byte(nil), p...) }

// LeakOnError forgets the buffer on the error return — the classic
// early-return leak the check exists for.
func LeakOnError(r io.Reader, n int) error {
	p := bufpool.Get(n)
	if _, err := r.Read(p); err != nil {
		return err // want `p \(from bufpool\.Get at line \d+\) may not be released on a path reaching this return`
	}
	bufpool.Put(p)
	return nil
}

// LeakFallOff drops the buffer on the implicit fall-through exit.
func LeakFallOff(n int) {
	p := bufpool.Get(n) // want `p obtained from bufpool\.Get may never be released`
	consume(p)
}

// DoublePut releases the same buffer twice, handing it out to two
// future callers at once.
func DoublePut(n int) {
	p := bufpool.Get(n)
	bufpool.Put(p)
	bufpool.Put(p) // want `second release is a double put`
}

// DoublePutBranch releases on one branch and then unconditionally.
func DoublePutBranch(n int, cond bool) {
	p := bufpool.Get(n)
	if cond {
		bufpool.Put(p)
	}
	bufpool.Put(p) // want `may already have been released on a path`
}

// OverwriteInLoop reassigns the variable while the previous iteration's
// buffer is still owned, dropping the only reference to it.
func OverwriteInLoop(rounds int) {
	p := bufpool.Get(8)
	for i := 0; i < rounds; i++ {
		p = bufpool.Get(8) // want `p is overwritten while it may still own a pooled payload`
	}
	bufpool.Put(p)
}

// readFramePtr mirrors source functions that hand the frame out by
// pointer: the obligation is the same.
func readFramePtr(r io.Reader) (*frame, error) {
	f, err := readFrame(r)
	if err != nil {
		return nil, err
	}
	return &f, nil
}

// LeakPtrStructOnError leaks a pointer-returned frame's payload on the
// rejection path.
func LeakPtrStructOnError(r io.Reader) error {
	f, err := readFramePtr(r)
	if err != nil {
		return err
	}
	if !work(f.payload) {
		return errors.New("rejected") // want `f \(from readFramePtr at line \d+\) may not be released on a path reaching this return`
	}
	ReleasePayload(f.payload)
	return nil
}

// LeakStructOnError reads a frame and forgets its payload when the
// handler rejects it.
func LeakStructOnError(r io.Reader) error {
	f, err := readFrame(r)
	if err != nil {
		return err
	}
	if !work(f.payload) {
		return errors.New("rejected") // want `f \(from readFrame at line \d+\) may not be released on a path reaching this return`
	}
	ReleasePayload(f.payload)
	return nil
}

// ReleaseBothPaths is clean: every path releases exactly once.
func ReleaseBothPaths(n int, cond bool) error {
	p := bufpool.Get(n)
	if cond {
		bufpool.Put(p)
		return nil
	}
	bufpool.Put(p)
	return errors.New("cold path")
}

// GuardedSource is clean: the error path of a checked source hands out
// no buffer, so returning early there is not a leak.
func GuardedSource(r io.Reader) error {
	f, err := readFrame(r)
	if err != nil {
		return err
	}
	consume(f.payload)
	ReleasePayload(f.payload)
	return nil
}

// TransferReturn is clean: returning the buffer moves ownership to the
// caller.
func TransferReturn(n int) []byte {
	p := bufpool.Get(n)
	return p
}

// TransferChannel is clean: the receiver now owns the buffer.
func TransferChannel(ch chan []byte, n int) {
	p := bufpool.Get(n)
	ch <- p
}

// TransferGoroutine is clean: the goroutine outlives this frame and
// takes the obligation with it.
func TransferGoroutine(n int) {
	p := bufpool.Get(n)
	go consume(p)
}

// TransferCapture is clean: the closure captures the buffer.
func TransferCapture(n int) func() {
	p := bufpool.Get(n)
	return func() { consume(p) }
}

// DeferRelease is clean: a deferred release covers every return after
// its registration point.
func DeferRelease(n int) error {
	p := bufpool.Get(n)
	defer bufpool.Put(p)
	if work(p) {
		return errors.New("early")
	}
	return nil
}

// ReassignAfterRelease is clean and mirrors the transport inflate path:
// the released buffer's variable is rebound to a fresh allocation that
// the pool does not own.
func ReassignAfterRelease(n int) []byte {
	payload := bufpool.Get(n)
	inflated := inflate(payload)
	bufpool.Put(payload)
	payload = inflated
	return payload
}

// BorrowOnly is clean: passing a buffer as a call argument lends it
// without moving the obligation.
func BorrowOnly(n int) {
	p := bufpool.Get(n)
	consume(p)
	if work(p) {
		consume(p)
	}
	bufpool.Put(p)
}
