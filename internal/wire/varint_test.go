package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
)

// errClass names the class of a decode error; both codec paths must agree
// on it for every input.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, io.ErrUnexpectedEOF):
		return "truncated"
	case errors.Is(err, ErrBadStream):
		return "bad-stream"
	case errors.Is(err, ErrLimit):
		return "limit"
	default:
		return "other: " + err.Error()
	}
}

// v2Reader returns a V2 reader over buf.
func v2Reader(buf []byte) *reader {
	return &reader{data: buf, engine: EngineV2}
}

// bothPaths returns a kernel-path and a generic-path decoder over a V2 stream
// holding one described uint64 whose payload is buf, and the length of what
// precedes the payload.
func bothPaths(buf []byte) (map[string]*Decoder, int64) {
	stream := append([]byte{headerMagic, formatV2, 0, tagScalar, byte(reflect.Uint64)}, buf...)
	decs := make(map[string]*Decoder)
	for path, opts := range bothPathOptions(nil) {
		decs[path] = NewDecoderBytes(stream, opts)
	}
	return decs, int64(len(stream) - len(buf))
}

func rep(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }

// TestVarintHostileBuffers feeds a table of hostile and boundary buffers to
// the varint parser under both codec paths: same value and bytes consumed, or
// errors of the same class, and never a panic or an out-of-range slice.
func TestVarintHostileBuffers(t *testing.T) {
	type want struct {
		class string
		value uint64
		read  int64
	}
	cases := []struct {
		name string
		buf  []byte
		want want
	}{
		{"empty", nil, want{class: "truncated"}},
		{"empty non-nil", []byte{}, want{class: "truncated"}},
		{"one byte", []byte{0x7f}, want{"ok", 0x7f, 1}},
		{"one byte then junk", []byte{0x05, 0xff, 0xff}, want{"ok", 5, 1}},
		{"two bytes", []byte{0x80, 0x01}, want{"ok", 0x80, 2}},
		{"non-minimal zero", []byte{0x80, 0x00}, want{"ok", 0, 2}},
		{"ten-byte maximum", append(rep(0xff, 9), 0x01), want{"ok", math.MaxUint64, 10}},
		{"overflow in the tenth byte", append(rep(0xff, 9), 0x02), want{"bad-stream", 0, 10}},
		{"ten continuation bytes", rep(0x80, 10), want{"bad-stream", 0, 10}},
		{"eleven-byte overlong", append(rep(0x80, 10), 0x01), want{"bad-stream", 0, 10}},
		{"overlong run", rep(0xff, 64), want{"bad-stream", 0, 10}},
	}
	for n := 1; n <= 9; n++ {
		cases = append(cases, struct {
			name string
			buf  []byte
			want want
		}{"truncated after " + string(rune('0'+n)), rep(0x80, n), want{"truncated", 0, int64(n)}})
	}
	for _, tc := range cases {
		decs, prefix := bothPaths(tc.buf)
		for path, dec := range decs {
			v, err := dec.Decode()
			got := want{class: errClass(err), read: dec.BytesRead() - prefix}
			if err == nil {
				got.value = v.(uint64)
			}
			if got != tc.want {
				t.Errorf("%s, %s path: got %+v, want %+v", tc.name, path, got, tc.want)
			}
		}
	}
}

// TestVarintSignedAndLengths: zig-zag extremes decode to themselves, and a
// length is accepted up to the number of bytes that follow it and refused just
// above it.
func TestVarintSignedAndLengths(t *testing.T) {
	for _, x := range []int64{0, 1, -1, 63, -64, 64, -65, math.MaxInt64, math.MinInt64} {
		buf := binary.AppendVarint(nil, x)
		r := v2Reader(buf)
		if got, err := r.readInt(); err != nil || got != x || r.bytesRead() != int64(len(buf)) {
			t.Errorf("readInt(%d): got %d, %v after %d bytes", x, got, err, r.bytesRead())
		}
		// The writer must have produced the same bytes.
		w := writer{engine: EngineV2}
		if w.writeInt(x); !bytes.Equal(w.buf, buf) {
			t.Errorf("writeInt(%d) = % x, want % x", x, w.buf, buf)
		}
	}
	// Refused, a length is both over the limit and past the end of the input.
	const follow = 1 << 12
	for n, ok := range map[uint64]bool{0: true, follow: true, follow + 1: false, math.MaxUint64: false} {
		buf := binary.AppendUvarint(nil, n)
		r := v2Reader(append(buf, make([]byte, follow)...))
		got, err := r.readLen()
		refused := errors.Is(err, ErrLimit) && errors.Is(err, io.ErrUnexpectedEOF)
		if (ok && (err != nil || uint64(got) != n)) || (!ok && !refused) || r.bytesRead() != int64(len(buf)) {
			t.Errorf("readLen(%d): got %d, %v after %d bytes; want ok=%t", n, got, err, r.bytesRead(), ok)
		}
	}
	// A string whose announced length outruns the input.
	if _, err := v2Reader([]byte{0x05, 'a', 'b'}).readString(); !errors.Is(err, ErrLimit) || errClass(err) != "truncated" {
		t.Errorf("short string: %v", err)
	}
}

// TestWriterBytes: every primitive appends exactly its bytes in each
// engine's form, past the buffer's starting capacity as below it;
// BytesWritten counts them all, and Flush hands them to the destination in
// one Write.
func TestWriterBytes(t *testing.T) {
	long := string(rep('s', writerBufSize+17))
	for _, engine := range []Engine{EngineV1, EngineV2} {
		var out writeCounter
		enc := NewEncoder(&out, Options{Engine: engine})
		if err := enc.EncodeUint(0); err != nil { // the header, then a 0
			t.Fatal(err)
		}
		want := append([]byte(nil), enc.Bytes()...)
		putUint := func(v uint64) {
			if engine == EngineV1 {
				want = binary.BigEndian.AppendUint64(want, v)
			} else {
				want = binary.AppendUvarint(want, v)
			}
		}
		w := &enc.w
		for i := 0; len(want) < 3*writerBufSize; i++ {
			w.writeByte(byte(i))
			want = append(want, byte(i))
			w.writeUint(uint64(i) * 0x1fff)
			putUint(uint64(i) * 0x1fff)
			w.writeInt(-int64(i))
			if engine == EngineV1 {
				want = binary.BigEndian.AppendUint64(want, uint64(-int64(i)))
			} else {
				want = binary.AppendVarint(want, -int64(i))
			}
			w.writeTagged(tagRef, uint64(i))
			want = append(want, tagRef)
			putUint(uint64(i))
			w.writeFloat(float64(i))
			want = binary.BigEndian.AppendUint64(want, math.Float64bits(float64(i)))
			w.writeFixed(uint64(i))
			want = binary.BigEndian.AppendUint64(want, uint64(i))
			s := long[:i%7]
			if i%97 == 0 {
				s = long
			}
			w.writeString(s)
			putUint(uint64(len(s)))
			want = append(want, s...)
			if got := enc.BytesWritten(); got != int64(len(want)) {
				t.Fatalf("%s step %d: BytesWritten %d, want %d", engine, i, got, len(want))
			}
		}
		if !bytes.Equal(enc.Bytes(), want) {
			t.Fatalf("%s: message differs from the reference (%d vs %d bytes)", engine, len(enc.Bytes()), len(want))
		}
		if err := enc.Flush(); err != nil || out.writes != 1 || !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("%s: Flush: %v after %d Writes of %d bytes, want one of %d", engine, err, out.writes, out.Len(), len(want))
		}
	}
}

// TestFlushFailure: encoding cannot fail on I/O; the destination's error
// comes back from Flush, once per Flush, and a later Flush sends what no
// Flush has sent yet.
func TestFlushFailure(t *testing.T) {
	boom := errors.New("boom")
	dst := &failingWriter{err: boom}
	enc := NewEncoder(dst, Options{})
	for i := 0; i < writerBufSize; i++ {
		if err := enc.Encode(i); err != nil {
			t.Fatalf("Encode onto a failing destination: %v", err)
		}
	}
	if err := enc.Flush(); err != boom || dst.calls != 1 {
		t.Fatalf("Flush: %v after %d Writes, want %v after one", err, dst.calls, boom)
	}
	dst.err = nil
	for i := 0; i < 3; i++ { // each Flush sends what is new since the last
		if err := enc.Encode(i); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil || dst.calls != 2+i || dst.n != len(enc.Bytes()) {
			t.Fatalf("Flush %d: %v after %d Writes of %d bytes, want %d Writes of %d", i+2, err, dst.calls, dst.n, 2+i, len(enc.Bytes()))
		}
	}
}

// failingWriter fails every Write with err while err is set.
type failingWriter struct {
	err      error
	calls, n int
}

func (f *failingWriter) Write(p []byte) (int, error) {
	f.calls++
	if f.err != nil {
		return 0, f.err
	}
	f.n += len(p)
	return len(p), nil
}

// writeCounter is a bytes.Buffer that counts its Writes.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}
