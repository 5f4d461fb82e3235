package wire

import (
	"reflect"
	"slices"
	"sync"

	"nrmi/internal/graph"
)

// A V2 stream describes a type only at top-level values and under interface
// slots; everything below travels bare and is read by the receiver's own
// declaration of the type. The layout fingerprint that follows each NAMED
// descriptor is what makes that safe: a hash of everything the reader of
// those bare slots will assume without being told — kinds, array lengths,
// field count and order under the stream's access mode, the wire names of
// the named types reached, recursion by back-index — stopping at interface
// slots, whose values describe themselves. It is FNV-1a over a canonical
// byte string, so equal on every process and Go version.

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// layout is the registry-independent part of a fingerprint: the sum over the
// type's structure, and the named types it reaches in first-visit order,
// whose wire names complete it per stream.
type layout struct {
	sum   uint64
	named []reflect.Type
}

var layoutCache sync.Map // kernelKey -> *layout

// layoutFor returns t's layout under mode; the portable configuration
// (cached false) recomputes it from raw reflection, as it does kernels.
func layoutFor(t reflect.Type, mode graph.AccessMode, cached bool) *layout {
	key := kernelKey{t, mode}
	if cached {
		if l, ok := layoutCache.Load(key); ok {
			return l.(*layout)
		}
	}
	l := &layout{sum: fnvOffset}
	l.walk(t, mode)
	if cached {
		layoutCache.Store(key, l)
	}
	return l
}

func (l *layout) put(v uint64) {
	for i := 0; i < 8; i++ {
		l.sum = (l.sum ^ v&0xff) * fnvPrime
		v >>= 8
	}
}

func (l *layout) walk(t reflect.Type, mode graph.AccessMode) {
	kind := t.Kind()
	if kind == reflect.Interface {
		l.put(uint64(dIface))
		return
	}
	if named(t) {
		if i := slices.Index(l.named, t); i >= 0 {
			l.put(uint64(dTableRef))
			l.put(uint64(i))
			return
		}
		l.named = append(l.named, t)
		l.put(uint64(dNamed))
	}
	l.put(uint64(kind))
	switch kind {
	case reflect.Ptr, reflect.Slice:
		l.walk(t.Elem(), mode)
	case reflect.Array:
		l.put(uint64(t.Len()))
		l.walk(t.Elem(), mode)
	case reflect.Map:
		l.walk(t.Key(), mode)
		l.walk(t.Elem(), mode)
	case reflect.Struct:
		var fields []reflect.Type
		for i := 0; i < t.NumField(); i++ {
			if sf := t.Field(i); !excluded(sf, mode) {
				fields = append(fields, sf.Type)
			}
		}
		l.put(uint64(len(fields)))
		for _, ft := range fields {
			l.walk(ft, mode)
		}
	}
}

// fingerprint completes t's layout with the names reg binds. An unregistered
// named type anywhere below t fails here — at the sender, before a byte of t
// is written — although no bare slot would ever have spelled its name.
func fingerprint(reg *Registry, t reflect.Type, mode graph.AccessMode, cached bool) (uint64, error) {
	key := kernelKey{t, mode}
	if cached {
		if sum, ok := reg.sums.Load(key); ok {
			return sum.(uint64), nil
		}
	}
	l := layoutFor(t, mode, cached)
	sum := l.sum
	for _, nt := range l.named {
		name, err := reg.NameOf(nt)
		if err != nil {
			return 0, err
		}
		for i := 0; i < len(name); i++ {
			sum = (sum ^ uint64(name[i])) * fnvPrime
		}
		sum = (sum ^ 0xff) * fnvPrime // in no UTF-8 name: a terminator
	}
	if cached {
		reg.sums.Store(key, sum)
	}
	return sum, nil
}
