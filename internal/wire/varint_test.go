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
		var out bytes.Buffer
		w := newWriter(&out, EngineV2)
		if err := w.writeInt(x); err != nil || w.spill() != nil || !bytes.Equal(out.Bytes(), buf) {
			t.Errorf("writeInt(%d) = % x (%v), want % x", x, out.Bytes(), err, buf)
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

// TestWriterSpills: the append buffer spills at its threshold without
// losing, reordering or miscounting a byte, whatever mix of primitives
// crosses it, and reports a destination failure on every later write.
func TestWriterSpills(t *testing.T) {
	var out, want bytes.Buffer
	w := newWriter(&out, EngineV2)
	long := string(rep('s', 3*writerBufSize+17))
	block := rep('b', writerBufSize+1)
	for i := 0; want.Len() < 5*writerBufSize; i++ {
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		must(w.writeByte(byte(i)))
		want.WriteByte(byte(i))
		must(w.writeUint(uint64(i) * 0x1fff))
		want.Write(binary.AppendUvarint(nil, uint64(i)*0x1fff))
		must(w.writeTagged(tagRef, uint64(i)))
		want.WriteByte(tagRef)
		want.Write(binary.AppendUvarint(nil, uint64(i)))
		must(w.writeFloat(float64(i)))
		want.Write(binary.BigEndian.AppendUint64(nil, math.Float64bits(float64(i))))
		if i%97 == 0 {
			must(w.writeString(long))
			want.Write(binary.AppendUvarint(nil, uint64(len(long))))
			want.WriteString(long)
			must(w.write(block))
			want.Write(block)
		}
		if got := w.bytesWritten(); got != int64(want.Len()) {
			t.Fatalf("step %d: bytesWritten %d, want %d", i, got, want.Len())
		}
		if len(w.buf) > writerBufSize || cap(w.buf) != writerBufSize {
			t.Fatalf("step %d: buffer len %d cap %d", i, len(w.buf), cap(w.buf))
		}
	}
	if err := w.spill(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want.Bytes()) {
		t.Fatalf("spilled stream differs from the reference (%d vs %d bytes)", out.Len(), want.Len())
	}

	boom := errors.New("boom")
	w.reset(failingWriter{boom}, EngineV2)
	var err error
	for i := 0; i <= writerBufSize && err == nil; i++ {
		err = w.writeByte(0)
	}
	if err != boom {
		t.Fatalf("first spill onto a failing destination: %v", err)
	}
	for name, e := range map[string]error{
		"writeByte": w.writeByte(1), "writeUint": w.writeUint(1), "writeUint wide": w.writeUint(1 << 40),
		"writeTagged": w.writeTagged(1, 1), "writeFloat": w.writeFloat(1), "writeString": w.writeString("x"),
		"write": w.write([]byte{1}), "flush": w.spill(),
	} {
		if e != boom {
			t.Errorf("%s after a failed spill: %v, want the sticky error", name, e)
		}
	}
}

type failingWriter struct{ err error }

func (f failingWriter) Write([]byte) (int, error) { return 0, f.err }
