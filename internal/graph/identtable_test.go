package graph

import (
	"math/rand"
	"testing"
)

// identOracle drives an IdentTable and a Go map keyed by Ident side by side
// and fails on the first answer that differs. The map is the reference
// implementation the table replaced.
type identOracle struct {
	t     *testing.T
	table IdentTable
	ref   map[Ident]uint32
}

func newIdentOracle(t *testing.T) *identOracle {
	return &identOracle{t: t, ref: make(map[Ident]uint32)}
}

func (o *identOracle) getOrPut(ident Ident) {
	o.t.Helper()
	next := len(o.ref)
	want, seen := o.ref[ident]
	if !seen {
		o.ref[ident], want = uint32(next), uint32(next)
	}
	if id, got := o.table.GetOrPut(ident, next); id != int(want) || got != seen {
		o.t.Fatalf("GetOrPut(%+v, %d) = %d, %t; the map says %d, %t", ident, next, id, got, want, seen)
	}
	o.len()
}

func (o *identOracle) get(ident Ident) {
	o.t.Helper()
	want, ok := o.ref[ident]
	if id, got := o.table.Get(ident); id != int(want) || got != ok {
		o.t.Fatalf("Get(%+v) = %d, %t; the map says %d, %t", ident, id, got, want, ok)
	}
}

func (o *identOracle) reset() {
	o.t.Helper()
	o.table.Reset()
	clear(o.ref)
	o.len()
}

func (o *identOracle) len() {
	o.t.Helper()
	if o.table.Len() != len(o.ref) {
		o.t.Fatalf("Len() = %d, the map holds %d", o.table.Len(), len(o.ref))
	}
	if 2*o.table.Len() > len(o.table.slots) {
		o.t.Fatalf("%d entries in %d slots: more than half full", o.table.Len(), len(o.table.slots))
	}
}

// getAll checks every recorded identity, and for each the two other kinds
// at its address and a neighbouring address, which must miss unless the map
// has them too.
func (o *identOracle) getAll() {
	o.t.Helper()
	for ident := range o.ref {
		for k := KindPtr; k <= KindSlice; k++ {
			o.get(Ident{ident.addr, k})
			o.get(Ident{ident.addr + 8, k})
		}
	}
}

// clusteredIdent draws an identity the way a heap hands them out: a few
// size-class spans, objects a fixed stride apart, so that consecutive
// addresses hash from a common prefix and probe chains form.
func clusteredIdent(rng *rand.Rand, objects int) Ident {
	strides := [...]uintptr{8, 16, 24}
	span := rng.Intn(len(strides))
	base := uintptr(0xc000000000) + uintptr(span)<<20
	return Ident{base + uintptr(rng.Intn(objects))*strides[span], Kind(rng.Intn(3))}
}

func TestIdentTableAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	o := newIdentOracle(t)
	o.get(Ident{0xc000000010, KindPtr}) // the zero value is an empty table
	for round := 0; round < 50; round++ {
		objects := 1 << (1 + rng.Intn(10))
		for op := 0; op < 4*objects; op++ {
			switch ident := clusteredIdent(rng, objects); rng.Intn(8) {
			case 0, 1, 2:
				o.get(ident)
			case 3:
				if rng.Intn(objects) == 0 {
					o.reset()
				}
			default:
				o.getOrPut(ident)
			}
		}
		o.getAll()
		o.reset()
	}
}

// TestIdentTableKindsShareAnAddress: the three kinds at one address are
// three identities (a pointer to an array and a slice of it, say).
func TestIdentTableKindsShareAnAddress(t *testing.T) {
	o := newIdentOracle(t)
	const addr = 0xc000123450
	o.getOrPut(Ident{addr, KindMap})
	o.get(Ident{addr, KindPtr})
	o.get(Ident{addr, KindSlice})
	o.getOrPut(Ident{addr, KindSlice})
	o.getOrPut(Ident{addr, KindPtr})
	o.getOrPut(Ident{addr, KindMap})
	o.getAll()
	if o.table.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", o.table.Len())
	}
}

// TestIdentTableGrowth fills the table from empty through 2^16 live entries,
// twice with a Reset in between: the second round re-uses the grown slots,
// none of which may read as live.
func TestIdentTableGrowth(t *testing.T) {
	o := newIdentOracle(t)
	const n = 1<<16 + 100
	for round := 0; round < 2; round++ {
		slots := len(o.table.slots)
		for i := 0; i < n; i++ {
			// Round 1 shifts every address by one object, so most of its
			// identities were round 0's and all sit in stale slots.
			o.getOrPut(Ident{0xc000000000 + uintptr(i+round)*16, Kind(i % 3)})
			if i&(i+1) == 0 || i&(i-1) == 0 {
				o.getAll() // just before and just after each doubling
			}
		}
		o.getAll()
		if round == 1 && len(o.table.slots) != slots {
			t.Fatalf("refilling to the same size moved the table from %d to %d slots", slots, len(o.table.slots))
		}
		o.reset()
		o.get(Ident{0xc000000000, KindPtr})
	}
}

// TestIdentTableEpochWrap forces the epoch counter over its limit: the one
// Reset in 2^30 that has to clear the slots, after which stamps of the first
// epoch are in use again and must not match what an earlier epoch left.
func TestIdentTableEpochWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	o := newIdentOracle(t)
	for i := 0; i < 300; i++ {
		o.getOrPut(clusteredIdent(rng, 256))
	}
	o.reset() // epoch 1: slots stamped with epoch 0 stay behind
	o.table.epoch = identMaxEpoch - 2
	for o.table.epoch != 1 {
		for i := 0; i < 300; i++ {
			o.getOrPut(clusteredIdent(rng, 256))
		}
		o.getAll()
		before := o.table.epoch
		o.reset()
		if before == identMaxEpoch && o.table.epoch != 0 {
			t.Fatalf("epoch %d after the wrap, want 0", o.table.epoch)
		}
		for i := 0; i < 64; i++ {
			o.get(clusteredIdent(rng, 256)) // empty, whatever the slots hold
		}
	}
}

// FuzzIdentTable drives the oracle from a byte string: two bytes per step,
// the first choosing the operation and kind, the second the object, on the
// clustered address layout of the table tests.
func FuzzIdentTable(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 4, 1, 8, 0, 0, 1})
	f.Add([]byte{1, 7, 2, 7, 0, 7, 5, 7, 6, 7, 12, 0, 4, 7})
	f.Fuzz(func(t *testing.T, steps []byte) {
		o := newIdentOracle(t)
		o.table.epoch = identMaxEpoch - 1 // a few resets away from the wrap
		for ; len(steps) >= 2; steps = steps[2:] {
			op, obj := steps[0], uintptr(steps[1])
			stride := [...]uintptr{8, 16, 24}[op>>4%3]
			ident := Ident{0xc000000000 + uintptr(op>>6)<<20 + obj*stride, Kind(op % 3)}
			switch op >> 2 & 3 {
			case 0, 1:
				o.getOrPut(ident)
			case 2:
				o.get(ident)
			default:
				if obj < 16 {
					o.reset()
				}
			}
		}
		o.getAll()
	})
}
