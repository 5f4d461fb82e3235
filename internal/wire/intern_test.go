package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// String interning: V2 deduplicates repeated string values per stream.

func TestInterningDeduplicatesRepeatedStrings(t *testing.T) {
	reg := testRegistry(t)
	repeated := make([]string, 100)
	for i := range repeated {
		repeated[i] = "the-same-fairly-long-string-value"
	}
	size := func(eng Engine) int64 {
		var buf bytes.Buffer
		enc := NewEncoder(&buf, Options{Engine: eng, Registry: reg})
		if err := enc.Encode(repeated); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		return enc.BytesWritten()
	}
	v2 := size(EngineV2)
	v1 := size(EngineV1)
	// 100 copies of a 33-byte string: V2 should pay for one literal plus
	// 99 back-references; far below 100 full copies.
	if v2 > 33+100*4+64 {
		t.Fatalf("v2 interning ineffective: %d bytes", v2)
	}
	if v1 < 100*33 {
		t.Fatalf("v1 must not intern: %d bytes", v1)
	}
}

func TestInterningRoundTrip(t *testing.T) {
	reg := testRegistry(t)
	for _, eng := range []Engine{EngineV1, EngineV2} {
		opts := Options{Engine: eng, Registry: reg}
		v := []string{"a", "", "a", "b", "", "a", "long-" + string(make([]byte, 50)), "b"}
		got := roundTrip(t, opts, v).([]string)
		if !reflect.DeepEqual(got, v) {
			t.Fatalf("engine %s: %q != %q", eng, got, v)
		}
	}
}

func TestInterningInMapKeysAndStructFields(t *testing.T) {
	reg := testRegistry(t)
	type labeled struct {
		A, B, C string
	}
	if err := reg.Register("labeled", labeled{}); err != nil {
		t.Fatal(err)
	}
	v := &labeled{A: "dup", B: "dup", C: "dup"}
	got := roundTrip(t, Options{Registry: reg}, v).(*labeled)
	if got.A != "dup" || got.B != "dup" || got.C != "dup" {
		t.Fatalf("%+v", got)
	}
	m := map[string]string{"k": "k"} // key and value collide in the table
	gm := roundTrip(t, Options{Registry: reg}, m).(map[string]string)
	if gm["k"] != "k" {
		t.Fatalf("%v", gm)
	}
}

func TestInterningBadBackReference(t *testing.T) {
	reg := testRegistry(t)
	var buf bytes.Buffer
	enc := NewEncoder(&buf, Options{Engine: EngineV2, Registry: reg})
	if err := enc.Encode("seed"); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	// Append a scalar string with an out-of-range back-reference.
	raw := buf.Bytes()
	raw = append(raw, tagScalar, byte(reflect.String), 0x7F) // head=127 -> idx 126
	dec := NewDecoderBytes(raw, Options{Registry: reg})
	if _, err := dec.Decode(); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode(); !errors.Is(err, ErrBadStream) {
		t.Fatalf("want ErrBadStream, got %v", err)
	}
}
