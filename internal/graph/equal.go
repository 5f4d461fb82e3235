package graph

import (
	"fmt"
	"reflect"
)

// Equal reports whether the object graphs rooted at a and b are isomorphic:
// same shapes, same scalar values, and the same aliasing structure (if two
// paths reach one object in a, the corresponding paths must reach one object
// in b, and vice versa). This is the correctness oracle for the whole
// system: a remote call under copy-restore must leave the client graph Equal
// to what the same call would have produced locally.
//
// Map keys must be free of identity-bearing values (no pointer keys); such
// maps produce an error.
func Equal(mode AccessMode, a, b any) (bool, error) {
	av := reflect.ValueOf(a)
	bv := reflect.ValueOf(b)
	if !av.IsValid() || !bv.IsValid() {
		return av.IsValid() == bv.IsValid(), nil
	}
	e := &equaler{access: mode, aToB: make(map[Ident]Ident), bToA: make(map[Ident]Ident)}
	return e.equal(av, bv, 0)
}

type equaler struct {
	access AccessMode
	aToB   map[Ident]Ident
	bToA   map[Ident]Ident
}

func (e *equaler) equal(a, b reflect.Value, depth int) (bool, error) {
	if depth > maxDepth {
		return false, ErrDepthExceeded
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
		ida, idb := identOf(a), identOf(b)
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
		sa, sb := launder(a), launder(b)
		for i := 0; i < sa.NumField(); i++ {
			fa, oka, err := fieldForRead(sa, i, e.access)
			if err != nil {
				return false, err
			}
			fb, okb, err := fieldForRead(sb, i, e.access)
			if err != nil {
				return false, err
			}
			if oka != okb {
				return false, nil
			}
			if !oka {
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
		return a.Float() == b.Float(), nil
	case reflect.Complex64, reflect.Complex128:
		return a.Complex() == b.Complex(), nil
	case reflect.String:
		return a.String() == b.String(), nil
	default:
		return false, fmt.Errorf("%w: cannot compare kind %s", ErrNotSerializable, a.Kind())
	}
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
	case reflect.Map:
		if a.Len() != b.Len() {
			return false, nil
		}
		if hasIdentityBearing(a.Type().Key()) {
			return false, fmt.Errorf("graph: cannot compare maps with identity-bearing key type %s", a.Type().Key())
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
	default:
		panic(fmt.Sprintf("graph: equalContents on %s", a.Kind()))
	}
}
