package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"nrmi/internal/bufpool"
)

// writerBufSize is the spill threshold of the buffered engines' writer.
const writerBufSize = 4096

// writer is the byte-emission layer. Engine V1 uses an unbuffered,
// fixed-width implementation (every primitive is a separate small Write to
// the underlying stream, like the layered JDK 1.3 path); engines V2 and V3
// append to buf — a fixed-capacity slice that stays with a pooled Encoder —
// and spill it to the destination whenever it fills, using varints for the
// raw protocol primitives (V3's value payloads live inside flat frames and
// never reach writeUint). Under V1 buf is nil, so every fast path below
// fails its room check and lands in the slow function that owns the V1 form.
type writer struct {
	raw     io.Writer
	buf     []byte // V2/V3: pending bytes, cap writerBufSize
	engine  Engine
	scratch [8]byte // V1 fixed-width staging
	flushed int64   // bytes handed to raw so far
	err     error   // first spill failure; sticky, as bufio's was
}

func newWriter(w io.Writer, engine Engine) *writer {
	wr := &writer{}
	wr.reset(w, engine)
	return wr
}

// reset re-arms a pooled writer onto a new destination, reusing the
// buffered engines' buffer.
func (w *writer) reset(dst io.Writer, engine Engine) {
	w.raw = dst
	w.engine = engine
	w.flushed = 0
	w.err = nil
	switch {
	case engine == EngineV1:
		w.buf = nil
	case w.buf == nil:
		w.buf = make([]byte, 0, writerBufSize)
	default:
		w.buf = w.buf[:0]
	}
}

// bytesWritten returns the number of payload bytes emitted so far,
// including bytes still sitting in the buffer.
func (w *writer) bytesWritten() int64 { return w.flushed + int64(len(w.buf)) }

// spill hands the pending bytes to the destination. A failure leaves the
// buffer full, so every later write reaches a slow path and reports the
// same error.
func (w *writer) spill() error {
	if w.err == nil && len(w.buf) > 0 {
		if _, w.err = w.raw.Write(w.buf); w.err != nil {
			w.buf = w.buf[:cap(w.buf)]
			return w.err
		}
		w.flushed += int64(len(w.buf))
		w.buf = w.buf[:0]
	}
	return w.err
}

// room makes sure n more bytes (n <= writerBufSize) fit the buffer.
func (w *writer) room(n int) error {
	if w.err != nil || cap(w.buf)-len(w.buf) < n {
		return w.spill()
	}
	return nil
}

func (w *writer) write(p []byte) error {
	if w.engine != EngineV1 && len(p) < writerBufSize {
		if err := w.room(len(p)); err != nil {
			return err
		}
		w.buf = append(w.buf, p...)
		return nil
	}
	// V1, or a block that would never fit: straight to the destination.
	if err := w.spill(); err != nil {
		return err
	}
	n, err := w.raw.Write(p)
	w.flushed += int64(n)
	if w.engine != EngineV1 {
		w.err = err
	}
	return err
}

func (w *writer) writeByte(b byte) error {
	if len(w.buf) < cap(w.buf) {
		w.buf = append(w.buf, b)
		return nil
	}
	return w.writeByteSlow(b)
}

func (w *writer) writeByteSlow(b byte) error {
	if w.engine == EngineV1 {
		return w.write([]byte{b})
	}
	if err := w.spill(); err != nil {
		return err
	}
	w.buf = append(w.buf, b)
	return nil
}

// writeTagged emits a lead byte followed by an unsigned integer: the shape
// of a back-reference and of a type-table reference.
func (w *writer) writeTagged(tag byte, v uint64) error {
	if v < 0x80 && cap(w.buf)-len(w.buf) >= 2 {
		w.buf = append(w.buf, tag, byte(v))
		return nil
	}
	if err := w.writeByte(tag); err != nil {
		return err
	}
	return w.writeUint(v)
}

// writeUint emits an unsigned integer: uvarint under V2/V3, fixed 8 bytes
// big-endian under V1.
func (w *writer) writeUint(v uint64) error {
	if v < 0x80 && len(w.buf) < cap(w.buf) {
		w.buf = append(w.buf, byte(v))
		return nil
	}
	return w.writeUintSlow(v)
}

func (w *writer) writeUintSlow(v uint64) error {
	if w.engine == EngineV1 {
		binary.BigEndian.PutUint64(w.scratch[:8], v)
		return w.write(w.scratch[:8])
	}
	if err := w.room(binary.MaxVarintLen64); err != nil {
		return err
	}
	w.buf = binary.AppendUvarint(w.buf, v)
	return nil
}

// writeInt emits a signed integer: zigzag varint under V2, fixed 8 bytes
// under V1.
func (w *writer) writeInt(v int64) error {
	if w.engine == EngineV1 {
		return w.writeUintSlow(uint64(v))
	}
	return w.writeUint(uint64(v)<<1 ^ uint64(v>>63))
}

func (w *writer) writeFloat(v float64) error {
	if w.engine == EngineV1 {
		return w.writeUintSlow(math.Float64bits(v))
	}
	if err := w.room(8); err != nil {
		return err
	}
	w.buf = binary.BigEndian.AppendUint64(w.buf, math.Float64bits(v))
	return nil
}

func (w *writer) writeString(s string) error {
	if err := w.writeUint(uint64(len(s))); err != nil {
		return err
	}
	if w.engine == EngineV1 {
		// Byte-at-a-time emission: the deliberate V1 inefficiency.
		for i := 0; i < len(s); i++ {
			if err := w.writeByte(s[i]); err != nil {
				return err
			}
		}
		return nil
	}
	// V2 copies straight from the string, a buffer-full at a time.
	for len(s) > 0 {
		if err := w.room(1); err != nil {
			return err
		}
		n := copy(w.buf[len(w.buf):cap(w.buf)], s)
		w.buf = w.buf[:len(w.buf)+n]
		s = s[n:]
	}
	return nil
}

// reader is the byte-consumption layer, adapting to the engine announced in
// the stream header. It has two source modes: stream mode (an io.Reader,
// buffered for V2/V3) and bytes mode (the whole message held in data, as
// when the transport hands over a pooled payload). Bytes mode parses
// straight out of the slice and lets slice return windows of the payload
// without copying — the zero-copy input for engine V3's flat frames. Both
// modes report running out of input as io.ErrUnexpectedEOF.
type reader struct {
	raw      io.Reader
	br       *bufio.Reader
	data     []byte // bytes mode: the full message (never nil in that mode)
	dpos     int    // bytes mode: read position == bytes consumed
	engine   Engine
	scratch  [8]byte
	count    int64 // stream mode: bytes consumed
	maxElems int
	// spare parks the bufio.Reader between pooled uses: reset cannot
	// leave br set (the engine of the next stream is unknown until its
	// header arrives), but the 4K buffer is worth keeping.
	spare *bufio.Reader
}

func newReader(r io.Reader, maxElems int) *reader {
	return &reader{raw: r, maxElems: maxElems}
}

// setEngine finalizes the reader once the header announced the engine.
func (r *reader) setEngine(e Engine) {
	r.engine = e
	if e != EngineV1 && r.data == nil {
		if r.spare != nil {
			r.spare.Reset(r.raw)
			r.br, r.spare = r.spare, nil
		} else {
			r.br = bufio.NewReaderSize(r.raw, 4096)
		}
	}
}

// reset re-arms a pooled reader onto a new source. The engine reverts to
// unknown until the next header is read.
func (r *reader) reset(src io.Reader, maxElems int) {
	if r.br != nil {
		r.br.Reset(nil) // do not retain the caller's reader
		r.spare, r.br = r.br, nil
	}
	r.raw = src
	r.data = nil
	r.dpos = 0
	r.engine = 0
	r.count = 0
	r.maxElems = maxElems
}

// resetBytes re-arms a pooled reader onto an in-memory message.
func (r *reader) resetBytes(data []byte, maxElems int) {
	r.reset(nil, maxElems)
	if data == nil {
		data = []byte{}
	}
	r.data = data
}

func (r *reader) bytesRead() int64 { return r.count + int64(r.dpos) }

// eof maps the end of a stream source onto the error bytes mode reports.
func eof(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

func (r *reader) readFull(p []byte) error {
	if r.data != nil {
		if len(r.data)-r.dpos < len(p) {
			r.dpos = len(r.data)
			return io.ErrUnexpectedEOF
		}
		copy(p, r.data[r.dpos:])
		r.dpos += len(p)
		return nil
	}
	src := r.raw
	if r.br != nil {
		src = r.br
	}
	n, err := io.ReadFull(src, p)
	r.count += int64(n)
	return eof(err)
}

func (r *reader) readByte() (byte, error) {
	switch {
	case r.dpos < len(r.data):
		r.dpos++
		return r.data[r.dpos-1], nil
	case r.data != nil:
		return 0, io.ErrUnexpectedEOF
	case r.br != nil:
		b, err := r.br.ReadByte()
		if err != nil {
			return 0, eof(err)
		}
		r.count++
		return b, nil
	}
	err := r.readFull(r.scratch[:1])
	return r.scratch[0], err
}

// slice returns the next n bytes of the message. In bytes mode the returned
// slice is a window of the underlying payload (zero-copy; owned reports
// false, and the bytes stay valid for as long as the payload does). In
// stream mode the bytes are staged through a pooled buffer (owned reports
// true, and the caller must bufpool.Put it when done).
func (r *reader) slice(n int) (p []byte, owned bool, err error) {
	if n == 0 {
		return nil, false, nil
	}
	if r.data != nil {
		if len(r.data)-r.dpos < n {
			return nil, false, io.ErrUnexpectedEOF
		}
		p = r.data[r.dpos : r.dpos+n : r.dpos+n]
		r.dpos += n
		return p, false, nil
	}
	p = bufpool.Get(n)
	if err := r.readFull(p); err != nil {
		bufpool.Put(p)
		return nil, false, err
	}
	return p, true, nil
}

// errVarint is the overlong-varint error of both source modes.
var errVarint = fmt.Errorf("%w: varint overflows 64 bits", ErrBadStream)

// readUint reads an unsigned integer: uvarint under V2/V3, fixed 8 bytes
// big-endian under V1. The one-byte uvarint of bytes mode — nearly every
// tag operand, index and small scalar — is answered here.
func (r *reader) readUint() (uint64, error) {
	if r.dpos < len(r.data) && r.engine != EngineV1 {
		if b := r.data[r.dpos]; b < 0x80 {
			r.dpos++
			return uint64(b), nil
		}
	}
	return r.readUintSlow()
}

func (r *reader) readUintSlow() (uint64, error) {
	if r.engine == EngineV1 {
		if err := r.readFull(r.scratch[:8]); err != nil {
			return 0, err
		}
		return binary.BigEndian.Uint64(r.scratch[:8]), nil
	}
	if r.data != nil {
		// In-slice parse, binary.Uvarint with the stream loop's accounting:
		// an overlong varint consumes its ten bytes, a truncated one all.
		v, n := binary.Uvarint(r.data[r.dpos:])
		switch {
		case n > 0:
			r.dpos += n
			return v, nil
		case n == 0 && len(r.data)-r.dpos < binary.MaxVarintLen64:
			r.dpos = len(r.data)
			return 0, io.ErrUnexpectedEOF
		default:
			r.dpos += binary.MaxVarintLen64
			return 0, errVarint
		}
	}
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		b, err := r.readByte()
		if err != nil {
			return 0, err
		}
		if b < 0x80 {
			if shift == 63 && b > 1 {
				break
			}
			return v | uint64(b)<<shift, nil
		}
		v |= uint64(b&0x7f) << shift
	}
	return 0, errVarint
}

// readInt reads a signed integer: zigzag varint under V2, fixed 8 bytes
// under V1.
func (r *reader) readInt() (int64, error) {
	u, err := r.readUint()
	if err != nil || r.engine == EngineV1 {
		return int64(u), err
	}
	return int64(u>>1) ^ -int64(u&1), nil
}

func (r *reader) readFloat() (float64, error) {
	if err := r.readFull(r.scratch[:8]); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.BigEndian.Uint64(r.scratch[:8])), nil
}

// readLen reads a length field and enforces the sanity limit.
func (r *reader) readLen() (int, error) {
	v, err := r.readUint()
	if err != nil {
		return 0, err
	}
	if v > uint64(r.maxElems) {
		return 0, fmt.Errorf("%w: length %d > max %d", ErrLimit, v, r.maxElems)
	}
	return int(v), nil
}

func (r *reader) readString() (string, error) {
	n, err := r.readLen()
	if err != nil {
		return "", err
	}
	if n == 0 {
		return "", nil
	}
	if r.data != nil {
		// The conversion makes the one copy that escapes.
		p, _, err := r.slice(n)
		return string(p), err
	}
	// Stage through a pooled buffer; string(p) makes the only copy that
	// escapes, so the scratch space is recycled immediately.
	p := bufpool.Get(n)
	err = r.readFull(p)
	s := ""
	if err == nil {
		s = string(p)
	}
	bufpool.Put(p)
	return s, err
}
