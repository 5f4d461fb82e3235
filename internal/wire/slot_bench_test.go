package wire

import (
	"bytes"
	"testing"
)

// BenchmarkInterfaceSlots: the one shape of message that still pays a
// descriptor per value — a []any of alternating *wnode / int, every element a
// described value. It is the number the encoder's dense type index (a table
// reference without a map probe, ISSUE 13) was judged and deleted on in
// ISSUE 20; see CHANGES.md.
func BenchmarkInterfaceSlots(b *testing.B) {
	reg := NewRegistry()
	if err := reg.Register("wnode", wnode{}); err != nil {
		b.Fatal(err)
	}
	opts := Options{Registry: reg}
	vals := make([]any, 512)
	for i := range vals {
		if i%2 == 0 {
			vals[i] = &wnode{Data: i}
		} else {
			vals[i] = i
		}
	}
	var buf bytes.Buffer
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			enc := AcquireEncoder(&buf, opts)
			if err := enc.Encode(vals); err != nil {
				b.Fatal(err)
			}
			if err := enc.Flush(); err != nil {
				b.Fatal(err)
			}
			ReleaseEncoder(enc)
		}
		b.ReportMetric(float64(buf.Len()), "B/msg")
	})
	stream := append([]byte(nil), buf.Bytes()...)
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dec := AcquireDecoderBytes(stream, opts)
			if _, err := dec.Decode(); err != nil {
				b.Fatal(err)
			}
			ReleaseDecoder(dec)
		}
	})
}
