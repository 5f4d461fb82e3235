package graph

import (
	"fmt"
	"reflect"
)

// Copier builds identity-preserving deep copies: aliasing in the source
// graph (two paths reaching the same object) is reproduced exactly in the
// copy, and cycles terminate. It is the in-process equivalent of what the
// wire codec does across a connection.
type Copier struct {
	// Access selects the struct-field access mode.
	Access AccessMode

	memo   IdentTable      // source identity -> index into copies
	copies []reflect.Value // copied references, in first-visit order
}

// Copy deep-copies v, preserving aliasing and cycles. A single Copier may
// copy several roots; aliasing across roots is preserved.
func (c *Copier) Copy(v any) (any, error) {
	if v == nil {
		return nil, nil
	}
	out, err := c.copyValue(reflect.ValueOf(v), 0)
	if err != nil {
		return nil, err
	}
	return out.Interface(), nil
}

// Copy is the one-shot convenience: an identity-preserving deep copy of v.
func Copy(mode AccessMode, v any) (any, error) {
	return (&Copier{Access: mode}).Copy(v)
}

func (c *Copier) copyValue(v reflect.Value, depth int) (reflect.Value, error) {
	if depth > maxDepth {
		return reflect.Value{}, ErrDepthExceeded
	}
	if !v.IsValid() {
		return v, nil
	}
	k := v.Kind()
	if forbiddenKind(k) {
		return reflect.Value{}, fmt.Errorf("%w: %s", ErrNotSerializable, v.Type())
	}
	switch k {
	case reflect.Ptr, reflect.Map, reflect.Slice:
		if v.IsNil() {
			return reflect.Zero(v.Type()), nil
		}
		if i, seen := c.memo.GetOrPut(identOf(v), len(c.copies)); seen {
			// A copy has its source's type and length: it stands in for it.
			if same, err := Aliases(c.copies[i], v); same || err != nil {
				return c.copies[i], err
			}
		}
		return c.copyObject(v, depth)

	case reflect.Interface:
		if v.IsNil() {
			return reflect.Zero(v.Type()), nil
		}
		inner, err := c.copyValue(v.Elem(), depth+1)
		if err != nil {
			return reflect.Value{}, err
		}
		out := reflect.New(v.Type()).Elem()
		out.Set(inner)
		return out, nil

	case reflect.Struct:
		src := launder(v)
		out := reflect.New(v.Type()).Elem()
		for i := 0; i < src.NumField(); i++ {
			f, ok, err := fieldForRead(src, i, c.Access)
			if err != nil {
				return reflect.Value{}, err
			}
			if !ok {
				continue
			}
			cf, err := c.copyValue(f, depth+1)
			if err != nil {
				return reflect.Value{}, err
			}
			dst, ok, err := fieldForWrite(out, i, c.Access)
			if err != nil {
				return reflect.Value{}, err
			}
			if ok {
				dst.Set(cf)
			}
		}
		return out, nil

	case reflect.Array:
		out := reflect.New(v.Type()).Elem()
		if !hasIdentityBearing(v.Type().Elem()) {
			out.Set(launder(v))
			return out, nil
		}
		for i := 0; i < v.Len(); i++ {
			ce, err := c.copyValue(v.Index(i), depth+1)
			if err != nil {
				return reflect.Value{}, err
			}
			out.Index(i).Set(ce)
		}
		return out, nil

	default:
		// Scalars and strings: value semantics, a plain copy.
		return launder(v), nil
	}
}

// copyObject copies an object on its first visit. The copy joins copies —
// at the position the memo has just recorded — before its contents are
// copied, so cycles terminate.
func (c *Copier) copyObject(v reflect.Value, depth int) (reflect.Value, error) {
	switch v.Kind() {
	case reflect.Ptr:
		out := reflect.New(v.Type().Elem())
		c.copies = append(c.copies, out)
		elem, err := c.copyValue(v.Elem(), depth+1)
		if err != nil {
			return reflect.Value{}, err
		}
		out.Elem().Set(elem)
		return out, nil

	case reflect.Map:
		out := reflect.MakeMapWithSize(v.Type(), v.Len())
		c.copies = append(c.copies, out)
		iter := v.MapRange()
		for iter.Next() {
			ck, err := c.copyValue(iter.Key(), depth+1)
			if err != nil {
				return reflect.Value{}, err
			}
			cv, err := c.copyValue(iter.Value(), depth+1)
			if err != nil {
				return reflect.Value{}, err
			}
			out.SetMapIndex(ck, cv)
		}
		return out, nil

	default:
		out := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
		c.copies = append(c.copies, out)
		for i := 0; i < v.Len(); i++ {
			ce, err := c.copyValue(v.Index(i), depth+1)
			if err != nil {
				return reflect.Value{}, err
			}
			out.Index(i).Set(ce)
		}
		return out, nil
	}
}
