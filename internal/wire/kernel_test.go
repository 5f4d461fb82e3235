package wire

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"nrmi/internal/graph"
	"nrmi/internal/raceflag"
)

// kernelOptions returns matched option pairs: identical in every respect
// except the plan cache, whose absence (the portable configuration) selects
// the generic reflective codec. The wire format must be byte-for-byte
// identical between them; only the CPU/allocation profile may differ.
func kernelOptions(t *testing.T) (on, off Options) {
	reg := testRegistry(t)
	on = Options{Engine: EngineV2, Registry: reg}
	off = Options{Engine: EngineV2, Registry: reg, DisablePlanCache: true}
	return on, off
}

func wireZoo() []any {
	cyc := &wnode{Data: 1}
	cyc.Left = &wnode{Data: 2, Right: cyc}

	dag := &wnode{Data: 10}
	shared := &wnode{Data: 11}
	dag.Left, dag.Right = shared, shared

	bag := &wbag{
		Name:   "zoo",
		Items:  []int{1, 2, 3},
		Table:  map[string]*wnode{"x": {Data: 5}},
		Any:    int64(-9),
		Nested: inner{X: 1, Y: 2},
		Arr:    [3]int16{7, 8, 9},
		F:      2.5,
		C:      complex(1, -2),
		B:      true,
		U:      1 << 30,
	}

	return []any{
		nil,
		42,
		"interned", "interned", // string interning must behave identically
		cyc,
		dag,
		bag,
		[]*wnode{cyc, nil, dag},
		map[string]int{"a": 1, "b": 2},
		[]int{5, 4, 3},
		namedInt(3),
	}
}

// TestKernelEncodeByteIdentity: a stream encoded with compiled kernels must
// be byte-for-byte identical to the generic reflective encoder's stream —
// the kernels are a pure performance substitution, never a format change.
func TestKernelEncodeByteIdentity(t *testing.T) {
	on, off := kernelOptions(t)
	encodeAll := func(opts Options) []byte {
		var buf bytes.Buffer
		enc := NewEncoder(&buf, opts)
		for _, v := range wireZoo() {
			if err := enc.Encode(v); err != nil {
				t.Fatalf("encode %T: %v", v, err)
			}
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	fast, slow := encodeAll(on), encodeAll(off)
	if !bytes.Equal(fast, slow) {
		n := len(fast)
		if len(slow) < n {
			n = len(slow)
		}
		i := 0
		for i < n && fast[i] == slow[i] {
			i++
		}
		t.Fatalf("kernel stream diverges from generic stream at byte %d (lens %d vs %d)", i, len(fast), len(slow))
	}
}

// TestKernelDecodeEquivalence: both decoder paths must reconstruct graphs
// Equal to each other and to the original, from the same byte stream,
// regardless of which encoder produced it.
func TestKernelDecodeEquivalence(t *testing.T) {
	on, off := kernelOptions(t)
	for i, v := range wireZoo() {
		var buf bytes.Buffer
		enc := NewEncoder(&buf, on)
		if err := enc.Encode(v); err != nil {
			t.Fatalf("zoo[%d]: encode: %v", i, err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		stream := buf.Bytes()

		decFast, err := NewDecoderBytes(stream, on).Decode()
		if err != nil {
			t.Fatalf("zoo[%d]: kernel decode: %v", i, err)
		}
		decSlow, err := NewDecoderBytes(stream, off).Decode()
		if err != nil {
			t.Fatalf("zoo[%d]: generic decode: %v", i, err)
		}
		for name, got := range map[string]any{"kernel": decFast, "generic": decSlow} {
			eq, err := graph.Equal(graph.AccessExported, v, got)
			if err != nil || !eq {
				t.Fatalf("zoo[%d]: %s decode not Equal to original (%v %v)", i, name, eq, err)
			}
		}
	}
}

// TestEncodeAllocsSteadyState: after the kernel cache is warm, a pooled
// encode of a cached type into a reused buffer must stay within a small
// fixed allocation budget.
func TestEncodeAllocsSteadyState(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are not meaningful under -race (sync.Pool drops Puts)")
	}
	on, _ := kernelOptions(t)
	tree := &wnode{Data: 1}
	cur := tree
	for i := 2; i <= 64; i++ {
		cur.Left = &wnode{Data: i}
		cur = cur.Left
	}
	var buf bytes.Buffer
	encodeOnce := func() {
		buf.Reset()
		enc := AcquireEncoder(&buf, on)
		if err := enc.Encode(tree); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		ReleaseEncoder(enc)
	}
	for i := 0; i < 5; i++ {
		encodeOnce() // warm the kernel cache, the codec pool, and the buffer
	}
	avg := testing.AllocsPerRun(20, func() { encodeOnce() })
	// The per-node work (object registration, varints, field dispatch) must
	// all run allocation-free; a handful of allocs of slack covers
	// map-internal growth in the identity table.
	const budget = 8
	if avg > budget {
		t.Fatalf("steady-state encode allocates %.1f/run, budget %d", avg, budget)
	}
}

// TestKernelCodecConcurrentStress runs pooled encode/decode round trips
// from many goroutines sharing the compiled-kernel caches and codec pools
// (exercised under -race by make test).
func TestKernelCodecConcurrentStress(t *testing.T) {
	on, _ := kernelOptions(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				bag := &wbag{
					Name:  fmt.Sprintf("g%d-i%d", g, i),
					Items: []int{g, i},
					Table: map[string]*wnode{"n": {Data: g*100 + i}},
					Any:   "payload",
				}
				var buf bytes.Buffer
				enc := AcquireEncoder(&buf, on)
				err := enc.Encode(bag)
				if err == nil {
					err = enc.Flush()
				}
				ReleaseEncoder(enc)
				if err != nil {
					t.Errorf("encode: %v", err)
					continue
				}
				dec := AcquireDecoderBytes(buf.Bytes(), on)
				out, err := dec.Decode()
				ReleaseDecoder(dec)
				if err != nil {
					t.Errorf("decode: %v", err)
					continue
				}
				if eq, err := graph.Equal(graph.AccessExported, bag, out); err != nil || !eq {
					t.Errorf("round trip not Equal (%v %v)", eq, err)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestMapEncodingDeterministic: map entries serialize in canonical key
// order (mapkeys.go), so repeated encodings of the same value — on either
// encoder path — produce identical bytes. Before keys were sorted, every
// multi-key map inherited Go's randomized iteration order and this test
// (and TestKernelEncodeByteIdentity) failed intermittently.
func TestMapEncodingDeterministic(t *testing.T) {
	on, off := kernelOptions(t)
	value := map[string]any{
		"alpha": 1, "bravo": 2, "charlie": 3, "delta": 4,
		"echo": map[string]int{"x": 1, "y": 2, "z": 3},
		"fox":  &wnode{Data: 9},
		"golf": []int{3, 1, 4}, "hotel": true,
	}
	encodeOnce := func(opts Options) []byte {
		var buf bytes.Buffer
		enc := NewEncoder(&buf, opts)
		if err := enc.Encode(value); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := encodeOnce(on)
	for i := 0; i < 20; i++ {
		for name, opts := range map[string]Options{"kernel": on, "generic": off} {
			if got := encodeOnce(opts); !bytes.Equal(got, want) {
				t.Fatalf("iteration %d: %s stream differs from first kernel stream", i, name)
			}
		}
	}
}
