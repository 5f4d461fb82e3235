package wire

import (
	"io"
	"sync"
)

// Codec pooling. An Encoder carries two maps, an object table with its
// identity index, and its message buffer; a Decoder carries three tables.
// The copy-restore protocol builds one of each per call
// on each endpoint, which dominates the constant part of the per-call
// allocation profile. Acquire / Release recycle fully reset codecs instead.
//
// Reset discipline differs per direction because ownership differs:
//
//   - The encoder's object table holds *detached* reference cells
//     (graph.StableRef); the cells are zeroed (dropping the user's graph) but
//     kept for reuse by intern. A reply encoder's table starts with the
//     request decoder's objects (SeedDecoded): those entries are dropped.
//   - The decoder's table holds the decoded objects themselves — they belong
//     to the caller — so the entries are dropped outright, never written to.
//
// Callers must not retain anything obtained from a codec (Objects(),
// decoded-but-unconsumed values referenced only by the table) after
// releasing it. The core layer only releases codecs whose results have been
// fully extracted or committed.

var encoderPool = sync.Pool{New: func() any { return nil }}

// AcquireEncoder returns a pooled Encoder writing to w, equivalent to
// NewEncoder but allocation-free in the steady state. Release with
// ReleaseEncoder once the message is flushed, or its Bytes are no longer
// needed.
func AcquireEncoder(w io.Writer, opts Options) *Encoder {
	e, _ := encoderPool.Get().(*Encoder)
	if e == nil {
		return NewEncoder(w, opts)
	}
	e.arm(w, opts)
	return e
}

// ReleaseEncoder resets e and returns it to the pool. Passing nil is a
// no-op.
func ReleaseEncoder(e *Encoder) {
	if e == nil {
		return
	}
	e.reset()
	encoderPool.Put(e)
}

// reset is ReleaseEncoder short of the pool.
func (e *Encoder) reset() {
	e.ids.Reset()
	clear(e.typeTable)
	clear(e.strTable)
	e.memo = kernelMemo{}
	// Drop the decoded objects SeedDecoded adopted; zero the detached
	// reference cells — dropping the user's objects — but keep them parked in
	// the table's capacity for intern to reuse. Cells beyond len were already
	// zeroed by an earlier release.
	clear(e.objs[:e.adopted])
	for _, cell := range e.objs[e.adopted:] {
		if cell.IsValid() && cell.CanSet() {
			cell.SetZero()
		}
	}
	e.objs, e.adopted = e.objs[:0], 0
	e.dst = nil // do not retain the caller's writer
	if cap(e.w.buf) > maxSpareBuf {
		e.w.buf = nil
	}
	e.w.buf = e.w.buf[:0]
}

var decoderPool = sync.Pool{New: func() any { return nil }}

// reuse resets the per-stream state of a pooled decoder whose reader has
// been pointed at a new stream.
func (d *Decoder) reuse(o Options) {
	d.opts = o
	d.headerDone = false
	d.engine = 0
	d.access = 0
	d.bare, d.cached = false, false
	d.numSeeded = 0
}

// AcquireDecoderBytes returns a pooled Decoder reading an in-memory
// message, equivalent to NewDecoderBytes but allocation-free in the steady
// state. Release with ReleaseDecoder once every decoded value has been
// extracted. The caveat of NewDecoderBytes applies: data must outlive all
// decoding.
func AcquireDecoderBytes(data []byte, opts Options) *Decoder {
	d, _ := decoderPool.Get().(*Decoder)
	if d == nil {
		return NewDecoderBytes(data, opts)
	}
	o := opts.withDefaults()
	*d.r = reader{data: data} // the engine is unknown until the header is read
	d.reuse(o)
	return d
}

// ReleaseDecoder resets d and returns it to the pool. Passing nil is a
// no-op.
func ReleaseDecoder(d *Decoder) {
	if d == nil {
		return
	}
	// The staged temporaries are committed: their slab is zeroed and kept.
	// Releasing the arena only drops the slab references: objects the caller
	// extracted stay alive through ordinary reachability.
	d.stage.end(true)
	d.stage.left = 0
	clear(d.staged)
	d.staged = d.staged[:0]
	d.ReleaseArena()
	d.shadow.reset()
	// The table entries are the decoded objects themselves (or seeded user
	// objects): drop the references, keep the slice capacity.
	clear(d.table)
	d.table = d.table[:0]
	clear(d.typeTable)
	d.typeTable = d.typeTable[:0]
	clear(d.strTable)
	d.strTable = d.strTable[:0]
	d.memo = kernelMemo{}
	*d.r = reader{} // do not retain the caller's payload
	decoderPool.Put(d)
}
