package graph

import "math/bits"

// IdentTable maps object identities to dense IDs: the index of every linear
// map (the codec's object table, LinearMap, Copier). It is open-addressed
// with linear probing, so one probe sequence finds an identity or ends at
// the slot it goes into. Addresses are stored as integers: the table keeps
// nothing alive — its owner's object list does, for as long as an address is
// a key — and holds nothing a pooled owner must zero. The zero value is an
// empty table.
type IdentTable struct {
	slots []identSlot // power-of-two length, at most half full
	n     int
	shift uint8 // 64 - log2(len(slots))
	// epoch makes Reset O(1): a slot is live only while its stamp carries
	// the current epoch, so a pooled owner keeps its slots across messages
	// and clears them once per identMaxEpoch resets.
	epoch uint32
}

// identSlot is 16 bytes, four to a cache line. stamp is (epoch+1)<<2 | kind;
// 0 marks a slot never written.
type identSlot struct {
	addr  uintptr
	id    int32
	stamp uint32
}

const identMaxEpoch = 1<<30 - 2

// Len returns the number of identities in the table.
func (t *IdentTable) Len() int { return t.n }

// Reset empties the table, keeping its slots.
func (t *IdentTable) Reset() {
	t.n = 0
	if t.epoch++; t.epoch > identMaxEpoch {
		clear(t.slots)
		t.epoch = 0
	}
}

// find returns the slot holding ident or, if there is none, the free slot
// that ends its probe sequence, with the stamp that marks it ident's.
func (t *IdentTable) find(ident Ident) (s *identSlot, stamp uint32, found bool) {
	stamp = (t.epoch+1)<<2 | uint32(ident.kind)
	// Fibonacci hashing: the product's high bits mix every address bit, so
	// aligned and clustered addresses spread.
	i := int(uint64(ident.addr) * 0x9E3779B97F4A7C15 >> t.shift)
	for ; ; i = (i + 1) & (len(t.slots) - 1) {
		if s = &t.slots[i]; s.stamp>>2 != stamp>>2 {
			return s, stamp, false
		} else if s.addr == ident.addr && s.stamp == stamp {
			return s, stamp, true
		}
	}
}

// Get returns the ID recorded for ident.
func (t *IdentTable) Get(ident Ident) (id int, ok bool) {
	if t.n > 0 {
		if s, _, found := t.find(ident); found {
			return int(s.id), true
		}
	}
	return 0, false
}

// GetOrPut returns the ID recorded for ident and seen=true, or records
// nextID for it and returns that: a first visit costs the one probe a
// repeat visit does.
func (t *IdentTable) GetOrPut(ident Ident, nextID int) (id int, seen bool) {
	if 2*t.n >= len(t.slots) {
		t.grow()
	}
	s, stamp, found := t.find(ident)
	if !found {
		*s = identSlot{ident.addr, int32(nextID), stamp}
		t.n++
	}
	return int(s.id), found
}

// grow doubles the slots and re-places the live entries.
func (t *IdentTable) grow() {
	old := t.slots
	t.slots = make([]identSlot, max(2*len(old), 64))
	t.shift = uint8(64 - bits.TrailingZeros(uint(len(t.slots))))
	for _, o := range old {
		if o.stamp>>2 == t.epoch+1 {
			s, _, _ := t.find(Ident{o.addr, Kind(o.stamp & 3)})
			*s = o
		}
	}
}
