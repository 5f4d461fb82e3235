package wire

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"nrmi/internal/graph"
)

// Types whose layouts between them reach every step of a fingerprint:
// recursion by back-index through a slice and a pointer, a named scalar as
// a field and a map key, an array, a map, a named interface, a named func,
// an anonymous struct, an embedded field, and unexported fields — one of
// them a chan — that only AccessUnsafe fingerprints.
type (
	goldTree struct {
		Kids  []*goldTree
		Label goldName
		Peer  *goldPeer
	}
	goldName string
	goldPeer struct {
		Back  *goldTree
		Score [2]float32
		hits  map[goldName]int
		wake  chan int
	}
	goldShape  interface{ Area() int }
	goldFunc   func() int
	goldHolder struct {
		Shape goldShape
		Fn    goldFunc
		Anon  struct{ X, y int8 }
		goldName
	}
)

// goldenSums are the layout fingerprints of the types below, exported and
// unsafe, under goldenRegistry's names. They pin the wire: a fingerprint is
// in every V2 NAMED descriptor, so a change to how one is computed is a
// change of format.
var goldenSums = []struct {
	t                reflect.Type
	exported, unsafe uint64
}{
	{reflect.TypeFor[goldTree](), 0x388e417f91f9fb11, 0xacd9ca269e766495},
	{reflect.TypeFor[goldPeer](), 0xc47c858d2fa50970, 0xcf3462f3badab3cf},
	{reflect.TypeFor[goldHolder](), 0x9b697df80e353bfa, 0x06a1db5d7b6fe5ef},
	{reflect.TypeFor[goldName](), 0x38e067f8e62ef3ef, 0x38e067f8e62ef3ef},
	{reflect.TypeFor[goldFunc](), 0xaaa2bca2051b070b, 0xaaa2bca2051b070b},
	{reflect.TypeFor[wnode](), 0x5261d5d1b514d925, 0x5261d5d1b514d925},
	{reflect.TypeFor[wbag](), 0xdd8d943780ccf3d0, 0xdd8d943780ccf3d0},
	{reflect.TypeFor[hidden](), 0xa12ebd26fc5c051a, 0x01f1421458697191},
	{reflect.TypeFor[kmatrix](), 0x1e4cc15bcf2555c4, 0x534b196c8a0d9367},
	{reflect.TypeFor[kmLink](), 0xeef074c72dd10204, 0x6e9bd353513113df},
	{reflect.TypeFor[recSlice](), 0xb810a242ef1db6e1, 0xb810a242ef1db6e1},
	{reflect.TypeFor[arrayHolder](), 0x998e61715dcc1fe5, 0x998e61715dcc1fe5},
	{reflect.TypeFor[ptrPtr](), 0xccd4c603727aa47e, 0xccd4c603727aa47e},
	{reflect.TypeFor[namedMap](), 0x832b8e7a3e61015c, 0x832b8e7a3e61015c},
	{reflect.TypeFor[[]map[int][4]*goldTree](), 0x3e1a7aa13bbfec32, 0x2556400e31128dc6},
}

func goldenRegistry(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	for _, sample := range []any{goldTree{}, goldName(""), goldPeer{}, goldFunc(nil), goldHolder{},
		wnode{}, wbag{}, inner{}, hidden{}, kmatrix{}, kmLink(nil), recSlice{}, arrayHolder{}, ptrPtr{}, namedMap{}} {
		st := reflect.TypeOf(sample)
		if err := r.RegisterType("gold."+st.Name(), st); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// sumOf is the fingerprint of t under mode as the codec computes it: a bound
// type's through its record, any other type's through a record of its own.
func sumOf(reg *Registry, t reflect.Type, mode graph.AccessMode, cached bool) (uint64, error) {
	rec := reg.record(t)
	if rec == nil {
		rec = &typeRec{t: t}
	}
	return reg.sum(rec, mode, cached)
}

// TestFingerprintGolden: every configuration computes the recorded sums —
// cached twice (the second, for a bound type, from its record) and
// portable.
func TestFingerprintGolden(t *testing.T) {
	reg := goldenRegistry(t)
	for _, g := range goldenSums {
		for mode, want := range map[graph.AccessMode]uint64{graph.AccessExported: g.exported, graph.AccessUnsafe: g.unsafe} {
			for _, cached := range []bool{true, true, false} {
				sum, err := sumOf(reg, g.t, mode, cached)
				if err != nil || sum != want {
					t.Errorf("%s, mode %d, cached %t: %#016x (%v), want %#016x", g.t, mode, cached, sum, err, want)
				}
			}
		}
	}
}

// TestLayoutMatchesReflection: the layout the fingerprint hashes off a
// kernel — cached, or compiled afresh as the portable configuration does —
// is the one the reference walk reads off raw reflection, for every kernel
// reached from the golden types, the zoo and the slot cases' holders.
func TestLayoutMatchesReflection(t *testing.T) {
	var roots []reflect.Type
	for _, g := range goldenSums {
		roots = append(roots, g.t)
	}
	for _, v := range wireZoo() {
		if v != nil {
			roots = append(roots, reflect.TypeOf(v))
		}
	}
	for _, c := range slotCases(t, NewRegistry()) {
		for _, hs := range c.holders {
			for _, h := range hs {
				roots = append(roots, reflect.TypeOf(h))
			}
		}
	}
	seen := map[*kernel]bool{}
	var check func(k *kernel, mode graph.AccessMode)
	check = func(k *kernel, mode graph.AccessMode) {
		if seen[k] {
			return
		}
		seen[k] = true
		want := layout{sum: fnvOffset}
		want.reflectWalk(k.t, mode)
		for name, walked := range map[string]*kernel{"cached": k, "portable": freshKernel(k.t, mode)} {
			got := layout{sum: fnvOffset}
			got.walk(walked)
			if got.sum != want.sum || !slices.Equal(got.named, want.named) {
				t.Errorf("%s, mode %d, %s: %#016x %v, reflection %#016x %v", k.t, mode, name, got.sum, got.named, want.sum, want.named)
			}
		}
		for _, part := range k.parts {
			check(part, mode)
		}
	}
	for _, mode := range []graph.AccessMode{graph.AccessExported, graph.AccessUnsafe} {
		for _, rt := range roots {
			check(kernelFor(rt, mode), mode)
		}
	}
	if len(seen) < 100 {
		t.Fatalf("only %d kernels checked", len(seen))
	}
}

// TestNamedDescriptorGolden pins a named descriptor by bytes: a registered
// struct described twice in one V2 stream is defined once, with its wire
// name and fingerprint, then referenced by table index. The encoding is
// those bytes whether the type's record is cold (no sum kept yet) or warm,
// and from an encoder re-armed after its release; the decoder accepts them.
func TestNamedDescriptorGolden(t *testing.T) {
	want := []byte{headerMagic, formatV2, 0,
		tagStruct, dTableDef, dNamed, 6, 'i', 'n', 'n', 'e', 'r', 'U',
		0x1d, 0xe5, 0xfc, 0x3c, 0x67, 0x30, 0x11, 0x05, // fingerprint
		6, // X: 3, zigzag
		tagStruct, dTableRef, 0,
		6,
	}
	v := innerU{X: 3}
	opts := Options{Registry: stateRegistry(t, map[string]any{"innerU": innerU{}})}
	encode := func(name string, enc *Encoder) {
		t.Helper()
		for range 2 {
			if err := enc.Encode(v); err != nil {
				t.Fatalf("%s encoder: %v", name, err)
			}
		}
		if !bytes.Equal(enc.Bytes(), want) {
			t.Errorf("%s encoder:\n% x, want\n% x", name, enc.Bytes(), want)
		}
	}
	encode("cold", NewEncoder(nil, opts))
	enc := AcquireEncoder(nil, opts)
	encode("warm", enc)
	enc.reset() // ReleaseEncoder short of the pool
	enc.arm(nil, opts)
	encode("re-armed", enc)
	ReleaseEncoder(enc)

	dec := NewDecoderBytes(want, opts)
	for i := range 2 {
		if got, err := dec.Decode(); err != nil || got != v {
			t.Errorf("value %d decoded to %#v, %v", i, got, err)
		}
	}
}
