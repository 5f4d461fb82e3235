package wire

// Canonical map-entry order. Go randomizes map iteration, so an encoder
// that serializes entries in iteration order emits a different byte stream
// on every run, and no two encoders agree. kernel.encMap (and the test
// oracle) route through acquireSortedKeys instead, so a given map always
// serializes in one canonical order: streams are reproducible, and
// comparable byte for byte (TestMapEncodingDeterministic).
//
// Keys order by their kind's natural order — bools false-first, integers
// and floats numerically (NaN first, like cmp.Compare), strings and
// complex values lexicographically by component. Interface keys order by
// dynamic type name, then by value within a type, with untyped nil first.
// Key kinds with no natural order (structs, arrays, pointers) keep Go's
// iteration order among themselves: those maps still decode correctly, the
// stream just is not canonical for them.

import (
	"cmp"
	"reflect"
	"sort"
	"strings"
	"sync"

	"nrmi/internal/graph"
)

// keySlicePool recycles the scratch slices acquireSortedKeys sorts in.
// Slices are per-map, not per-encoder, because map encoding recurses: a
// map-valued entry starts sorting its own keys while the outer map is
// still ranging over its slice.
var keySlicePool = sync.Pool{New: func() any { s := make([]reflect.Value, 0, 16); return &s }}

// acquireSortedKeys returns v's keys in canonical encoding order. The
// caller must hand the slice back with releaseKeys once the entry loop is
// done.
func acquireSortedKeys(v reflect.Value) *[]reflect.Value {
	kp := keySlicePool.Get().(*[]reflect.Value)
	keys := *kp
	iter := graph.AcquireMapIter(v)
	for iter.Next() {
		keys = append(keys, iter.Key())
	}
	graph.ReleaseMapIter(iter)
	// Stable, so unorderable kinds (compareKeys == 0) keep iteration order
	// rather than an arbitrary permutation of it.
	sort.SliceStable(keys, func(i, j int) bool { return compareKeys(keys[i], keys[j]) < 0 })
	*kp = keys
	return kp
}

// releaseKeys drops the key references — they belong to the caller's map —
// and parks the slice for reuse.
func releaseKeys(kp *[]reflect.Value) {
	s := *kp
	for i := range s {
		s[i] = reflect.Value{}
	}
	*kp = s[:0]
	keySlicePool.Put(kp)
}

// compareKeys is the comparator behind the canonical order. Both arguments
// are keys of the same map, so their static types agree; dynamic types may
// differ only under an interface key type.
func compareKeys(a, b reflect.Value) int {
	if a.Kind() == reflect.Interface {
		// Untyped nil keys sort first; otherwise unwrap and order by
		// dynamic type name so each type forms a contiguous, internally
		// ordered run.
		an, bn := a.IsNil(), b.IsNil()
		if an || bn {
			return boolToInt(!an) - boolToInt(!bn)
		}
		a, b = a.Elem(), b.Elem()
		if a.Type() != b.Type() {
			return strings.Compare(a.Type().String(), b.Type().String())
		}
	}
	switch a.Kind() {
	case reflect.Bool:
		return boolToInt(a.Bool()) - boolToInt(b.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return cmp.Compare(a.Int(), b.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return cmp.Compare(a.Uint(), b.Uint())
	case reflect.Float32, reflect.Float64:
		return cmp.Compare(a.Float(), b.Float())
	case reflect.Complex64, reflect.Complex128:
		c, d := a.Complex(), b.Complex()
		if r := cmp.Compare(real(c), real(d)); r != 0 {
			return r
		}
		return cmp.Compare(imag(c), imag(d))
	case reflect.String:
		return strings.Compare(a.String(), b.String())
	}
	return 0
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
