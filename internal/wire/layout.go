package wire

import (
	"reflect"
	"slices"

	"nrmi/internal/graph"
)

// A V2 stream describes a type only at top-level values and under interface
// slots; everything below travels bare and is read by the receiver's own
// declaration of the type. The layout fingerprint that follows each NAMED
// descriptor is what makes that safe: a hash of the compiled kernel program
// the reader of those bare slots will run without being told — kinds, array
// lengths, field count and order under the stream's access mode, the wire
// names of the named types reached, recursion by back-index — stopping at
// interface slots, whose values describe themselves. It is FNV-1a over a
// canonical byte string, so equal on every process and Go version.

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// layout is the registry-independent part of a fingerprint: the sum over the
// kernel graph, and the named types it reaches in first-visit order, whose
// wire names complete it per stream.
type layout struct {
	sum   uint64
	named []reflect.Type
}

func (l *layout) put(v uint64) {
	for i := 0; i < 8; i++ {
		l.sum = (l.sum ^ v&0xff) * fnvPrime
		v >>= 8
	}
}

func (l *layout) walk(k *kernel) {
	if k.kind == reflect.Interface {
		l.put(uint64(dIface))
		return
	}
	if named(k.t) {
		if i := slices.Index(l.named, k.t); i >= 0 {
			l.put(uint64(dTableRef))
			l.put(uint64(i))
			return
		}
		l.named = append(l.named, k.t)
		l.put(uint64(dNamed))
	}
	l.put(uint64(k.kind))
	switch k.tag {
	case tagArray:
		l.put(uint64(k.t.Len()))
	case tagStruct:
		l.put(uint64(len(k.fields)))
	}
	for _, part := range k.parts {
		l.walk(part)
	}
}

// sum is the fingerprint of rec's type under mode: its kernel's layout
// completed with the names r binds. Cached, it is computed once per registry
// and kept in rec if it succeeds; portable, it is recomputed from a fresh
// kernel on every use. An unregistered named type anywhere below fails here,
// at the sender, although no bare slot would ever have spelled its name.
func (r *Registry) sum(rec *typeRec, mode graph.AccessMode, cached bool) (uint64, error) {
	var k *kernel
	if !cached {
		k = freshKernel(rec.t, mode)
	} else if kept := rec.sums[mode].Load(); kept != nil {
		return *kept, nil
	} else {
		k = kernelFor(rec.t, mode)
	}
	l := layout{sum: fnvOffset}
	l.walk(k)
	sum := l.sum
	for _, nt := range l.named {
		name, err := r.NameOf(nt)
		if err != nil {
			return 0, err
		}
		for i := 0; i < len(name); i++ {
			sum = (sum ^ uint64(name[i])) * fnvPrime
		}
		sum = (sum ^ 0xff) * fnvPrime // in no UTF-8 name: a terminator
	}
	if cached {
		rec.sums[mode].Store(&sum)
	}
	return sum, nil
}
