package model

import (
	"fmt"
	"math"
	"reflect"

	"nrmi/internal/graph"
)

// maxDepth bounds the nesting of values within one object, as graph's
// traversals do; cycles through references consume no depth.
const maxDepth = 10000

// Equal reports whether the object graphs rooted at a and b are isomorphic:
// same shapes, same scalar values, and the same aliasing structure (if two
// paths reach one object in a, the corresponding paths must reach one object
// in b, and vice versa). This is the correctness oracle of the whole system:
// a remote call under copy-restore must leave the client graph Equal to what
// the same call would have produced locally. Floats and the parts of complex
// numbers compare by value and by sign, so a lost −0.0 shows, and two NaNs
// are equal.
//
// Map keys must be free of identity-bearing values (no pointer keys); such
// maps produce an error.
func Equal(mode graph.AccessMode, a, b any) (bool, error) {
	av := reflect.ValueOf(a)
	bv := reflect.ValueOf(b)
	if !av.IsValid() || !bv.IsValid() {
		return av.IsValid() == bv.IsValid(), nil
	}
	e := &equaler{access: mode, aToB: make(map[graph.Ident]graph.Ident), bToA: make(map[graph.Ident]graph.Ident)}
	return e.equal(av, bv, 0)
}

type equaler struct {
	access graph.AccessMode
	aToB   map[graph.Ident]graph.Ident
	bToA   map[graph.Ident]graph.Ident
}

func (e *equaler) equal(a, b reflect.Value, depth int) (bool, error) {
	if depth > maxDepth {
		return false, graph.ErrDepthExceeded
	}
	if a.Kind() == reflect.Interface {
		if a.IsNil() || b.Kind() != reflect.Interface || b.IsNil() {
			return a.Kind() == b.Kind() && a.IsNil() && b.IsNil(), nil
		}
		return e.equal(a.Elem(), b.Elem(), depth+1)
	}
	if a.Type() != b.Type() {
		return false, nil
	}
	switch a.Kind() {
	case reflect.Ptr, reflect.Map, reflect.Slice:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil(), nil
		}
		ida, _ := graph.IdentOf(a)
		idb, _ := graph.IdentOf(b)
		mappedB, seenA := e.aToB[ida]
		mappedA, seenB := e.bToA[idb]
		if seenA || seenB {
			// Aliasing structure must match: both sides must have seen
			// these objects, paired with each other.
			return seenA && seenB && mappedB == idb && mappedA == ida, nil
		}
		e.aToB[ida] = idb
		e.bToA[idb] = ida
		return e.equalContents(a, b, depth)

	case reflect.Struct:
		// Reflection reads an unexported field without laundering it:
		// nothing here calls Interface or Set.
		for i := 0; i < a.NumField(); i++ {
			fa, fb := a.Field(i), b.Field(i)
			if sf := a.Type().Field(i); !sf.IsExported() && e.access == graph.AccessExported {
				if !fa.IsZero() || !fb.IsZero() {
					return false, fmt.Errorf("%w: field %s.%s", graph.ErrUnexportedField, a.Type(), sf.Name)
				}
				continue
			}
			eq, err := e.equal(fa, fb, depth+1)
			if err != nil || !eq {
				return eq, err
			}
		}
		return true, nil

	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			eq, err := e.equal(a.Index(i), b.Index(i), depth+1)
			if err != nil || !eq {
				return eq, err
			}
		}
		return true, nil

	case reflect.Bool:
		return a.Bool() == b.Bool(), nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int(), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return a.Uint() == b.Uint(), nil
	case reflect.Float32, reflect.Float64:
		return sameFloat(a.Float(), b.Float()), nil
	case reflect.Complex64, reflect.Complex128:
		ca, cb := a.Complex(), b.Complex()
		return sameFloat(real(ca), real(cb)) && sameFloat(imag(ca), imag(cb)), nil
	case reflect.String:
		return a.String() == b.String(), nil
	default:
		return false, fmt.Errorf("%w: cannot compare kind %s", graph.ErrNotSerializable, a.Kind())
	}
}

// sameFloat compares by value and by sign; NaN equals NaN.
func sameFloat(x, y float64) bool {
	if math.IsNaN(x) || math.IsNaN(y) {
		return math.IsNaN(x) && math.IsNaN(y)
	}
	return x == y && math.Signbit(x) == math.Signbit(y)
}

func (e *equaler) equalContents(a, b reflect.Value, depth int) (bool, error) {
	switch a.Kind() {
	case reflect.Ptr:
		return e.equal(a.Elem(), b.Elem(), depth+1)
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false, nil
		}
		for i := 0; i < a.Len(); i++ {
			eq, err := e.equal(a.Index(i), b.Index(i), depth+1)
			if err != nil || !eq {
				return eq, err
			}
		}
		return true, nil
	default: // a map
		if a.Len() != b.Len() {
			return false, nil
		}
		if hasIdentity(a.Type().Key()) {
			return false, fmt.Errorf("model: cannot compare maps with identity-bearing key type %s", a.Type().Key())
		}
		iter := a.MapRange()
		for iter.Next() {
			bv := b.MapIndex(iter.Key())
			if !bv.IsValid() {
				return false, nil
			}
			eq, err := e.equal(iter.Value(), bv, depth+1)
			if err != nil || !eq {
				return eq, err
			}
		}
		return true, nil
	}
}

// hasIdentity reports whether values of the comparable type t can hold a
// reference: a pointer, channel or interface, or an array or struct of one.
func hasIdentity(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Ptr, reflect.Chan, reflect.Interface, reflect.UnsafePointer:
		return true
	case reflect.Array:
		return hasIdentity(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasIdentity(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}
