package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"
	"testing/iotest"
	"time"

	"nrmi/internal/bufpool"
	"nrmi/internal/leakcheck"
)

// frameErrClass names the class of a readFrame error; every way of
// delivering the same bytes must produce the same class.
func frameErrClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case err == io.EOF:
		return "eof"
	case errors.Is(err, io.ErrUnexpectedEOF):
		return "truncated"
	case errors.Is(err, ErrBadFrame):
		return "bad-frame"
	case errors.Is(err, ErrFrameTooLarge):
		return "too-large"
	default:
		return "other: " + err.Error()
	}
}

// frameShape is one frame as handed to appendFrame, and so (deadline rounded
// to the wire's microseconds, transport-internal flags stripped) as readFrame
// must hand it back.
type frameShape struct {
	name string
	f    frame
}

func (s frameShape) wire(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, s.f); err != nil {
		t.Fatalf("%s: appendFrame: %v", s.name, err)
	}
	return buf.Bytes()
}

// writeFrame writes f to buf the way a sender queues it.
func writeFrame(buf *bytes.Buffer, f frame) error {
	wire, err := appendFrame(buf.AvailableBuffer(), f)
	buf.Write(wire)
	return err
}

// fill returns n bytes that differ from offset to offset, so a mis-sliced
// payload shows.
func fill(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + i>>8)
	}
	return p
}

// frameShapes covers every flag the header knows and every way a frame can
// sit relative to the read buffer.
func frameShapes() []frameShape {
	return []frameShape{
		{name: "plain", f: frame{msgType: MsgCall, reqID: 1, payload: []byte("hello")}},
		{name: "deadline extension", f: frame{msgType: MsgCall, reqID: 2, deadline: 1500 * time.Microsecond, payload: []byte("budget")}},
		{name: "error with status", f: frame{msgType: MsgReply, flags: flagError | flagStatus, reqID: 3, payload: append([]byte{StatusOverloaded}, "shed"...)}},
		{name: "error with deadline", f: frame{msgType: MsgReply, flags: flagError, reqID: 4, deadline: time.Second, payload: []byte("refused")}},
		{name: "zero length", f: frame{msgType: MsgCall, reqID: 6}},
		{name: "zero length with deadline", f: frame{msgType: MsgCall, reqID: 7, deadline: time.Millisecond}},
		{name: "exactly the buffer", f: frame{msgType: MsgCall, reqID: 8, payload: fill(readBufSize - headerSize)}},
		{name: "buffer plus one", f: frame{msgType: MsgCall, reqID: 9, payload: fill(readBufSize - headerSize + 1)}},
		{name: "three buffers", f: frame{msgType: MsgCall, reqID: 10, payload: fill(3*readBufSize - headerSize)}},
		{name: "max request id", f: frame{msgType: MsgCall, reqID: ^uint64(0), payload: []byte{0}}},
	}
}

func sameFrame(got, want frame) error {
	if got.msgType != want.msgType || got.flags != want.flags || got.reqID != want.reqID ||
		got.deadline != want.deadline || !bytes.Equal(got.payload, want.payload) {
		return fmt.Errorf("got {type %d flags %#x id %d deadline %v, %d payload bytes}, want {type %d flags %#x id %d deadline %v, %d payload bytes}",
			got.msgType, got.flags, got.reqID, got.deadline, len(got.payload),
			want.msgType, want.flags, want.reqID, want.deadline, len(want.payload))
	}
	return nil
}

// chunkReader delivers its chunks one per Read (less when the caller's
// buffer is smaller): what a socket does when several frames arrived since
// the last read.
type chunkReader struct{ chunks [][]byte }

func (r *chunkReader) Read(p []byte) (int, error) {
	for len(r.chunks) > 0 && len(r.chunks[0]) == 0 {
		r.chunks = r.chunks[1:]
	}
	if len(r.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.chunks[0])
	r.chunks[0] = r.chunks[0][n:]
	return n, nil
}

// TestFrameShapesHoweverDelivered: the same frames come out of the same
// bytes whether they arrive at once, a byte at a time, three frames to a
// read, in halves, or with the EOF riding on the last data — through the
// per-connection read buffer and without it — and the stream ends with a
// clean io.EOF.
func TestFrameShapesHoweverDelivered(t *testing.T) {
	shapes := frameShapes()
	var stream []byte
	var perFrame [][]byte
	for _, s := range shapes {
		w := s.wire(t)
		perFrame = append(perFrame, w)
		stream = append(stream, w...)
	}
	var triples [][]byte
	for i := 0; i < len(perFrame); i += 3 {
		triples = append(triples, bytes.Join(perFrame[i:min(i+3, len(perFrame))], nil))
	}
	deliveries := []struct {
		name string
		new  func() io.Reader
	}{
		{"at once", func() io.Reader { return bytes.NewReader(stream) }},
		{"byte by byte", func() io.Reader { return iotest.OneByteReader(bytes.NewReader(stream)) }},
		{"three frames to a read", func() io.Reader {
			return &chunkReader{chunks: append([][]byte(nil), triples...)}
		}},
		{"halves", func() io.Reader { return iotest.HalfReader(bytes.NewReader(stream)) }},
		{"EOF with the last data", func() io.Reader { return iotest.DataErrReader(bytes.NewReader(stream)) }},
	}
	for _, d := range deliveries {
		for _, buffered := range []bool{false, true} {
			r := d.new()
			if buffered {
				r = bufio.NewReaderSize(r, readBufSize)
			}
			for i, s := range shapes {
				got, err := readFrame(r)
				if err != nil {
					t.Fatalf("%s (buffered=%t): frame %d (%s): %v", d.name, buffered, i, s.name, err)
				}
				if err := sameFrame(got, s.f); err != nil {
					t.Errorf("%s (buffered=%t): frame %d (%s): %v", d.name, buffered, i, s.name, err)
				}
				ReleasePayload(got.payload)
			}
			if _, err := readFrame(r); err != io.EOF {
				t.Errorf("%s (buffered=%t): after the last frame: %v, want io.EOF", d.name, buffered, err)
			}
		}
	}
	leakcheck.Settle(t)
}

// TestFrameTruncatedAtEveryOffset cuts every shape at every offset behind
// one whole frame: the whole frame still comes out, then io.EOF if the cut
// fell on the frame boundary and io.ErrUnexpectedEOF anywhere inside —
// header, deadline extension or payload — and a failed read keeps no buffer.
func TestFrameTruncatedAtEveryOffset(t *testing.T) {
	first := frameShapes()[0]
	prefix := first.wire(t)
	for _, s := range frameShapes() {
		w := s.wire(t)
		for cut := 0; cut < len(w); cut++ {
			stream := append(append([]byte(nil), prefix...), w[:cut]...)
			want := "truncated"
			if cut == 0 {
				want = "eof"
			}
			for name, r := range map[string]io.Reader{
				"unbuffered":            bytes.NewReader(stream),
				"buffered":              bufio.NewReaderSize(bytes.NewReader(stream), readBufSize),
				"buffered, EOF on data": bufio.NewReaderSize(iotest.DataErrReader(bytes.NewReader(stream)), readBufSize),
				"buffered, one chunk":   bufio.NewReaderSize(&chunkReader{chunks: [][]byte{stream}}, readBufSize),
			} {
				got, err := readFrame(r)
				if err != nil {
					t.Fatalf("%s cut at %d, %s: whole frame before the cut: %v", s.name, cut, name, err)
				}
				if err := sameFrame(got, first.f); err != nil {
					t.Fatalf("%s cut at %d, %s: whole frame before the cut: %v", s.name, cut, name, err)
				}
				ReleasePayload(got.payload)
				got, err = readFrame(r)
				if class := frameErrClass(err); class != want {
					t.Fatalf("%s cut at %d of %d, %s: %s (%v), want %s", s.name, cut, len(w), name, class, err, want)
				}
				if got.payload != nil {
					t.Fatalf("%s cut at %d, %s: a failed read returned a payload", s.name, cut, name)
				}
			}
		}
	}
	leakcheck.Settle(t)
}

// The two retired header flags, each refused alone: 0x02 was DEFLATE,
// 0x10 a request with no reply frame.
const retiredDeflate, retiredNoReply = 0x02, 0x10

// header builds a raw frame header, valid or not.
func header(magic uint16, flags byte, length uint32) []byte {
	h := make([]byte, headerSize)
	binary.BigEndian.PutUint16(h[0:2], magic)
	h[2] = MsgCall
	h[3] = flags
	binary.BigEndian.PutUint64(h[4:12], 42)
	binary.BigEndian.PutUint32(h[12:16], length)
	return h
}

// TestFrameHostileHeaders: a header that lies is refused by class before the
// length it claims is believed — no pool buffer is taken for it — and the
// parser never panics, with the read buffer or without.
func TestFrameHostileHeaders(t *testing.T) {
	junk := bytes.Repeat([]byte{0xAB}, 64)
	cases := []struct {
		name string
		buf  []byte
		want string
	}{
		{"empty", nil, "eof"},
		{"bad magic", append(header(0x4E53, 0, 4), junk...), "bad-frame"},
		{"zero magic, zero length", header(0, 0, 0), "bad-frame"},
		{"swapped magic bytes", append(header(0x524E, 0, 4), junk...), "bad-frame"},
		{"one byte over the limit", append(header(frameMagic, 0, maxFrameSize+1), junk...), "too-large"},
		{"length all ones", append(header(frameMagic, 0, ^uint32(0)), junk...), "too-large"},
		{"length all ones with deadline flag", append(header(frameMagic, flagDeadline, ^uint32(0)), junk...), "too-large"},
		{"bad magic wins over oversize", append(header(0xFFFF, 0xFF, ^uint32(0)), junk...), "bad-frame"},
		{"deadline flag, nothing follows", header(frameMagic, flagDeadline, 0), "truncated"},
		{"deadline flag, half an extension", append(header(frameMagic, flagDeadline, 0), 1, 2, 3, 4), "truncated"},
		{"length promises more than follows", append(header(frameMagic, 0, 65), junk...), "truncated"},
		{"retired flag over junk", append(header(frameMagic, retiredDeflate, 64), junk...), "bad-frame"},
		{"retired flag over nothing", header(frameMagic, retiredDeflate, 0), "bad-frame"},
		{"retired flag with deadline flag", append(append(header(frameMagic, retiredDeflate|flagDeadline, 56), make([]byte, 8)...), junk[:56]...), "bad-frame"},
		{"retired flag wins over oversize", append(header(frameMagic, retiredDeflate, ^uint32(0)), junk...), "bad-frame"},
		{"retired one-way flag over junk", append(header(frameMagic, retiredNoReply, 64), junk...), "bad-frame"},
		{"retired one-way flag over nothing", header(frameMagic, retiredNoReply, 0), "bad-frame"},
		{"retired one-way flag with deadline flag", append(append(header(frameMagic, retiredNoReply|flagDeadline, 56), make([]byte, 8)...), junk[:56]...), "bad-frame"},
		{"every flag set over junk", append(append(header(frameMagic, 0xFF, 56), make([]byte, 8)...), junk[:56]...), "bad-frame"},
	}
	for _, tc := range cases {
		for name, r := range map[string]io.Reader{
			"unbuffered":   bytes.NewReader(tc.buf),
			"buffered":     bufio.NewReaderSize(bytes.NewReader(tc.buf), readBufSize),
			"byte by byte": bufio.NewReaderSize(iotest.OneByteReader(bytes.NewReader(tc.buf)), readBufSize),
		} {
			before := bufpool.DebugSnapshot().Gets
			f, err := readFrame(r)
			if class := frameErrClass(err); class != tc.want {
				t.Errorf("%s, %s: %s (%v), want %s", tc.name, name, class, err, tc.want)
			}
			if f.payload != nil {
				t.Errorf("%s, %s: a refused frame returned a payload", tc.name, name)
			}
			refusedByHeader := tc.want == "too-large" || tc.want == "bad-frame"
			if took := bufpool.DebugSnapshot().Gets - before; refusedByHeader && took != 0 {
				t.Errorf("%s, %s: took %d pool buffers for a frame its header already condemns", tc.name, name, took)
			}
		}
	}
	leakcheck.Settle(t)
}

// TestRetiredFlagFrameAllocatesNothing: flag 0x02 once asked the receiver to
// inflate the payload. This frame is 65 030 bytes of DEFLATE (one dynamic
// block of length-258 matches on zeros, two bits each) that inflated to
// 64 MiB before any size limit above the transport saw it; refused from the
// header, it costs less than its own length.
func TestRetiredFlagFrameAllocatesNothing(t *testing.T) {
	bomb := append([]byte{0xec, 0xc1, 0x01, 0x01, 0, 0, 0, 0x80, 0x90, 0xfe, 0xaf, 0xee, 0x08, 0x0a}, make([]byte, 65000)...)
	wire := append(header(frameMagic, retiredDeflate, uint32(len(bomb))), bomb...)
	r := bytes.NewReader(wire)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f, err := readFrame(r)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadFrame) || f.payload != nil {
		t.Fatalf("readFrame: payload %d bytes, err %v; want ErrBadFrame and no payload", len(f.payload), err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(len(wire)) {
		t.Fatalf("readFrame allocated %d bytes for a %d-byte frame", grew, len(wire))
	}
	if r.Len() != len(bomb) {
		t.Fatalf("readFrame consumed %d payload bytes of a frame its header condemns", len(bomb)-r.Len())
	}
}

// TestFrameReadsPerFrame pins what the buffer is for: a frame that fits
// costs one Read of the connection, frames that arrived together share one,
// and a larger frame costs the buffered part plus the remainder, read
// straight into its payload.
func TestFrameReadsPerFrame(t *testing.T) {
	small := frameShape{f: frame{msgType: MsgCall, reqID: 1, deadline: time.Second, payload: fill(300)}}.wire(t)
	tree256 := frameShape{f: frame{msgType: MsgCall, reqID: 2, deadline: time.Second, payload: fill(4035 - headerSize - 8)}}.wire(t)
	big := frameShape{f: frame{msgType: MsgCall, reqID: 3, payload: fill(11 << 10)}}.wire(t)
	for _, tc := range []struct {
		name   string
		chunks [][]byte
		frames int
		reads  int
	}{
		{"one small frame", [][]byte{small}, 1, 1},
		{"a 256-node request frame", [][]byte{tree256}, 1, 1},
		{"eight pipelined frames in the socket", [][]byte{bytes.Repeat(small, 8)}, 8, 1},
		{"an 11 KiB frame", [][]byte{big}, 1, 2},
	} {
		counted := &countingReader{r: &chunkReader{chunks: tc.chunks}}
		r := bufio.NewReaderSize(counted, readBufSize)
		for i := 0; i < tc.frames; i++ {
			f, err := readFrame(r)
			if err != nil {
				t.Fatalf("%s: frame %d: %v", tc.name, i, err)
			}
			ReleasePayload(f.payload)
		}
		if counted.reads != tc.reads {
			t.Errorf("%s: %d reads of the connection, want %d", tc.name, counted.reads, tc.reads)
		}
	}
}

type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// FuzzReadFrame is differential: arbitrary bytes parsed straight from a
// bytes.Reader and through the per-connection read buffer over a reader that
// delivers them in input-chosen chunk sizes must yield the same frames and
// then the same error class at the same frame index. Neither side may panic,
// and every payload handed out is released.
func FuzzReadFrame(f *testing.F) {
	// Seeds stay near the buffer size: the engine minimizes every interesting
	// input byte by byte, and a 12 KiB one costs it the whole fuzz budget.
	var small []byte
	for _, s := range frameShapes() {
		w := s.wire(f)
		if len(w) > readBufSize+1 {
			continue
		}
		if len(w) < readBufSize/2 {
			small = append(small, w...)
		}
		f.Add(byte(0), w)
		f.Add(byte(3), w[:len(w)/2])
	}
	f.Add(byte(1), small)
	f.Add(byte(200), small)
	// A Write carries whole frames back to back: a batch of three, cut
	// anywhere.
	var batch []byte
	for _, s := range frameShapes()[:3] {
		batch = append(batch, s.wire(f)...)
	}
	for cut := 0; cut <= len(batch); cut++ {
		f.Add(byte(cut), batch[:cut])
	}
	f.Add(byte(0), []byte{})
	f.Add(byte(7), header(0x4E53, 0, 4))
	f.Add(byte(7), header(frameMagic, flagDeadline|retiredDeflate, 1<<20))
	f.Add(byte(9), append(header(frameMagic, retiredDeflate, 8), 1, 2, 3, 4, 5, 6, 7, 8))
	f.Add(byte(0), header(frameMagic, retiredDeflate, 0))
	// Budgets at both ends of the extension: a flagged zero, and one past
	// time.Duration's range.
	f.Add(byte(0), append(header(frameMagic, flagDeadline, 0), make([]byte, 8)...))
	f.Add(byte(5), append(header(frameMagic, flagDeadline, 0), bytes.Repeat([]byte{0xFF}, 8)...))
	f.Add(byte(3), append(small[:len(small):len(small)], header(frameMagic, retiredDeflate|flagError, 4)...))
	f.Fuzz(func(t *testing.T, chunk byte, data []byte) {
		plain := bytes.NewReader(data)
		var chunks [][]byte
		for rest, size := data, 1+int(chunk)*37; len(rest) > 0; {
			n := min(size, len(rest))
			chunks = append(chunks, rest[:n])
			rest = rest[n:]
		}
		buffered := bufio.NewReaderSize(&chunkReader{chunks: chunks}, readBufSize)
		for i := 0; ; i++ {
			want, werr := readFrame(plain)
			got, gerr := readFrame(buffered)
			if wc, gc := frameErrClass(werr), frameErrClass(gerr); wc != gc {
				t.Fatalf("frame %d: unbuffered %s (%v), buffered %s (%v)", i, wc, werr, gc, gerr)
			}
			if werr != nil {
				if want.payload != nil || got.payload != nil {
					t.Fatalf("frame %d: a failed read returned a payload", i)
				}
				return
			}
			err := sameFrame(got, want)
			ReleasePayload(want.payload)
			ReleasePayload(got.payload)
			if err != nil {
				t.Fatalf("frame %d: buffered differs from unbuffered: %v", i, err)
			}
		}
	})
}
