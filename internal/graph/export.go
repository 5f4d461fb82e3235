package graph

import "reflect"

// IdentOf returns the identity key of a pointer, map, or slice value.
// ok is false for nil references and for kinds that carry no identity.
func IdentOf(v reflect.Value) (Ident, bool) {
	if id := identOf(v); id.addr != 0 {
		return id, true
	}
	return Ident{}, false
}

// PtrIdent returns the identity key of the pointee at address p, non-zero:
// IdentOf of a pointer to it, with no reflect.Value to build.
func PtrIdent(p uintptr) Ident { return Ident{p, KindPtr} }

// IsIdentityKind reports whether values of kind k carry object identity
// (pointer, map, or slice).
func IsIdentityKind(k reflect.Kind) bool { return isIdentityKind(k) }

// StableRef returns a copy of the reference value v that denotes the same
// object but is detached from the memory location v was read from. A
// reflect.Value obtained from a struct field aliases that field: if the
// field is later overwritten (as the restore phase does), the Value changes
// with it. Object tables and linear maps must therefore store detached
// copies of the reference words.
func StableRef(v reflect.Value) reflect.Value {
	nv := reflect.New(v.Type()).Elem()
	nv.Set(v)
	return nv
}
