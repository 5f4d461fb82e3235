package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"reflect"
)

// writerBufSize is a fresh encoder's capacity: a call's message fits it.
// maxSpareBuf is the largest buffer ReleaseEncoder keeps, so one huge
// message is not pinned by the pool.
const (
	writerBufSize = 4096
	maxSpareBuf   = 64 << 10
)

// writer is the byte-emission layer: it appends one whole message to buf,
// and nothing it does can fail. Engine V1 writes every integer fixed-width,
// 8 bytes big-endian; engine V2 writes varints.
type writer struct {
	buf    []byte
	engine Engine
}

// reset re-arms a writer for a new message, reusing its buffer.
func (w *writer) reset(engine Engine) {
	w.engine = engine
	if w.buf == nil {
		w.buf = make([]byte, 0, writerBufSize)
	}
	w.buf = w.buf[:0]
}

func (w *writer) writeByte(b byte) { w.buf = append(w.buf, b) }

// writeTagged emits a lead byte followed by an unsigned integer: the shape
// of a back-reference and of a type-table reference.
func (w *writer) writeTagged(tag byte, v uint64) {
	w.buf = append(w.buf, tag)
	w.writeUint(v)
}

// writeUint emits an unsigned integer: uvarint under V2, fixed 8 bytes
// big-endian under V1.
func (w *writer) writeUint(v uint64) {
	switch {
	case w.engine == EngineV1:
		w.writeFixed(v)
	case v < 0x80:
		w.buf = append(w.buf, byte(v))
	default:
		w.buf = binary.AppendUvarint(w.buf, v)
	}
}

// writeInt emits a signed integer: zigzag varint under V2, fixed 8 bytes
// under V1.
func (w *writer) writeInt(v int64) {
	u := uint64(v)
	if w.engine != EngineV1 {
		u = u<<1 ^ uint64(v>>63)
	}
	w.writeUint(u)
}

func (w *writer) writeFloat(v float64) { w.writeFixed(math.Float64bits(v)) }

// writeFixed emits 8 bytes, big-endian.
func (w *writer) writeFixed(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }

func (w *writer) writeString(s string) {
	w.writeUint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// reader is the byte-consumption layer. It parses a whole message held in
// data — the payload the transport hands over, or a source read to its end —
// adapting to the engine announced in the stream header, and lets readBytes
// return windows of the payload without copying. Running out of input is
// io.ErrUnexpectedEOF.
type reader struct {
	data   []byte
	dpos   int // read position == bytes consumed
	engine Engine
	// claimed and unbacked are what admit has granted of the message so far.
	claimed, unbacked int
}

func (r *reader) bytesRead() int64 { return int64(r.dpos) }

func (r *reader) readByte() (byte, error) {
	if r.dpos < len(r.data) {
		r.dpos++
		return r.data[r.dpos-1], nil
	}
	return 0, io.ErrUnexpectedEOF
}

// errVarint is the overlong-varint error.
var errVarint = fmt.Errorf("%w: varint overflows 64 bits", ErrBadStream)

// readUint reads an unsigned integer: uvarint under V2, fixed 8 bytes
// big-endian under V1. The one-byte uvarint — nearly every tag operand,
// index and small scalar — is answered here.
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
		return r.readFixed()
	}
	// An overlong varint consumes its ten bytes, a truncated one all.
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

// readInt reads a signed integer: zigzag varint under V2, fixed 8 bytes
// under V1.
func (r *reader) readInt() (int64, error) {
	u, err := r.readUint()
	if err != nil || r.engine == EngineV1 {
		return int64(u), err
	}
	return int64(u>>1) ^ -int64(u&1), nil
}

// readFixed reads 8 bytes, big-endian; a truncated field consumes the rest.
func (r *reader) readFixed() (uint64, error) {
	if len(r.data)-r.dpos < 8 {
		r.dpos = len(r.data)
		return 0, io.ErrUnexpectedEOF
	}
	r.dpos += 8
	return binary.BigEndian.Uint64(r.data[r.dpos-8:]), nil
}

func (r *reader) readFloat() (float64, error) {
	u, err := r.readFixed()
	return math.Float64frombits(u), err
}

// errShort refuses a length the bytes that follow cannot carry. A truncated
// message and a hostile one look the same from here, so the error is both.
var errShort = fmt.Errorf("%w: %w", ErrLimit, io.ErrUnexpectedEOF)

// readLen reads a count of bytes that follow: the length of a string.
func (r *reader) readLen() (int, error) {
	v, err := r.readUint()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(r.data)-r.dpos) {
		return 0, fmt.Errorf("%w: length %d with %d bytes left", errShort, v, len(r.data)-r.dpos)
	}
	return int(v), nil
}

// admit is the rule for a count off the stream, applied before anything is
// allocated: n values of type t, at least least bytes each (kernel.min), are
// admitted when n*least of the left bytes that follow are there and no earlier
// admission has claimed them. Each value is claimed for once, against bytes of
// its own, so an honest message's claims never exceed its length, and any
// message makes the decoder allocate at most Size/min times its length: 24 (a
// nil slice, one byte for three words) for a type a descriptor can spell.
// Values with no encoded part (least 0) are nothing a byte vouches for, and
// whoever holds them loops over them: a message may carry maxUnbacked, each
// counted by its bulk.
func (r *reader) admit(n uint64, least int, t reflect.Type, left int) error {
	if least == 0 {
		b := bulk(t)
		if n > maxUnbacked || n*b > uint64(maxUnbacked-r.unbacked) {
			return fmt.Errorf("%w: %d more values of type %s, which occupy none of the message", ErrLimit, n, t)
		}
		r.unbacked += int(n * b)
		return nil
	}
	// n*least > left in full, where n > left/least would divide per object.
	left = min(left, len(r.data)-r.claimed)
	if hi, lo := bits.Mul64(n, uint64(least)); hi != 0 || lo > uint64(left) {
		return fmt.Errorf("%w: %d values of at least %d bytes each with %d bytes left", errShort, n, least, left)
	}
	r.claimed += int(n) * least
	return nil
}

const maxUnbacked = 1 << 16

// bulk is the memory of a value of type t or, if it is an array, the number
// of its elements, whichever is more; no more than maxUnbacked+1 squared.
func bulk(t reflect.Type) uint64 {
	n := uint64(1)
	for ; t.Kind() == reflect.Array && n <= maxUnbacked; t = t.Elem() {
		n *= uint64(min(t.Len(), maxUnbacked+1))
	}
	return n * uint64(min(max(t.Size(), 1), maxUnbacked+1))
}

func (r *reader) readString() (string, error) {
	// The conversion makes the one copy that escapes.
	p, err := r.readBytes()
	return string(p), err
}

// readBytes reads a string as a view of the message, copying nothing: a
// window of the payload, valid for as long as the payload is.
func (r *reader) readBytes() ([]byte, error) {
	n, err := r.readLen()
	if err != nil {
		return nil, err
	}
	p := r.data[r.dpos : r.dpos+n : r.dpos+n]
	r.dpos += n
	return p, nil
}
