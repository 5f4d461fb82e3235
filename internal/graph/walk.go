package graph

import (
	"fmt"
	"reflect"
	"sync"
)

// Walker performs a depth-first reachability traversal, recording every
// identity-bearing object it encounters into a LinearMap.
type Walker struct {
	// Access selects the struct-field access mode.
	Access AccessMode

	lm LinearMap
}

// visit dispatches on the kind of v, registering identity-bearing objects
// and recursing into their contents exactly once per object.
func (w *Walker) visit(v reflect.Value, depth int) error {
	if depth > maxDepth {
		return ErrDepthExceeded
	}
	if !v.IsValid() {
		return nil
	}
	k := v.Kind()
	if forbiddenKind(k) {
		return fmt.Errorf("%w: %s", ErrNotSerializable, v.Type())
	}
	switch k {
	case reflect.Ptr, reflect.Map, reflect.Slice:
		if v.IsNil() {
			return nil
		}
		if _, first, err := w.lm.Add(v); err != nil || !first {
			return err
		}
		return w.visitContents(v, depth)

	case reflect.Interface:
		if v.IsNil() {
			return nil
		}
		return w.visit(v.Elem(), depth+1)

	case reflect.Struct:
		sv := launder(v)
		for i := 0; i < sv.NumField(); i++ {
			f, ok, err := fieldForRead(sv, i, w.Access)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			if err := w.visit(f, depth+1); err != nil {
				return err
			}
		}
		return nil

	case reflect.Array:
		if !hasIdentityBearing(v.Type().Elem()) {
			return checkLeafType(v.Type().Elem())
		}
		for i := 0; i < v.Len(); i++ {
			if err := w.visit(v.Index(i), depth+1); err != nil {
				return err
			}
		}
		return nil

	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64,
		reflect.Complex64, reflect.Complex128,
		reflect.String:
		return nil

	default:
		return fmt.Errorf("%w: unsupported kind %s", ErrNotSerializable, k)
	}
}

// visitContents recurses into the pointee, elements, or entries of an
// identity-bearing object.
func (w *Walker) visitContents(v reflect.Value, depth int) error {
	switch v.Kind() {
	case reflect.Ptr:
		return w.visit(v.Elem(), depth+1)
	case reflect.Slice:
		et := v.Type().Elem()
		if !hasIdentityBearing(et) {
			return checkLeafType(et)
		}
		for i := 0; i < v.Len(); i++ {
			if err := w.visit(v.Index(i), depth+1); err != nil {
				return err
			}
		}
		return nil
	case reflect.Map:
		iter := v.MapRange()
		for iter.Next() {
			if err := w.visit(iter.Key(), depth+1); err != nil {
				return err
			}
			if err := w.visit(iter.Value(), depth+1); err != nil {
				return err
			}
		}
		return nil
	default:
		// visit passes no other kind; one that arrives anyway is reported
		// like any other unserializable value, not by crashing the endpoint.
		return fmt.Errorf("%w: visitContents on non-identity kind %s", ErrNotSerializable, v.Kind())
	}
}

// Walk traverses all roots and returns the resulting linear map.
func Walk(mode AccessMode, roots ...any) (*LinearMap, error) {
	w := &Walker{Access: mode}
	for _, r := range roots {
		if err := w.visit(reflect.ValueOf(r), 0); err != nil {
			return nil, err
		}
	}
	return &w.lm, nil
}

// identityCache memoizes hasIdentityBearing per type (reflect.Type -> bool).
// Traversals over large homogeneous slices (benchmark trees) query the same
// types repeatedly.
var identityCache sync.Map

// hasIdentityBearing reports whether values of type t can contain (directly
// or transitively, by value) pointers, maps, slices, or interfaces — i.e.,
// whether element-wise traversal of a container of t can discover objects.
func hasIdentityBearing(t reflect.Type) bool {
	if v, ok := identityCache.Load(t); ok {
		return v.(bool)
	}
	res := computeHasIdentity(t, make(map[reflect.Type]bool))
	identityCache.Store(t, res)
	return res
}

func computeHasIdentity(t reflect.Type, inProgress map[reflect.Type]bool) bool {
	if inProgress[t] {
		return false // cycle through value types is impossible; be safe
	}
	inProgress[t] = true
	defer delete(inProgress, t)
	switch t.Kind() {
	case reflect.Ptr, reflect.Map, reflect.Slice, reflect.Interface,
		reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return true
	case reflect.Array:
		return computeHasIdentity(t.Elem(), inProgress)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if computeHasIdentity(t.Field(i).Type, inProgress) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// checkLeafType verifies that a pure-value element type is serializable.
func checkLeafType(t reflect.Type) error {
	if forbiddenKind(t.Kind()) {
		return fmt.Errorf("%w: %s", ErrNotSerializable, t)
	}
	return nil
}
