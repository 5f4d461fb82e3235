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

// Launder returns a value equivalent to v with the unexported-field
// read-only flag cleared, enabling reads (and writes, when addressable)
// through reflection. See the package comment for the Java Unsafe analogy.
func Launder(v reflect.Value) reflect.Value { return launder(v) }

// FieldForRead returns the i-th field of struct value sv prepared for
// reading under mode. ok is false when the field is skipped (zero-valued
// unexported field in AccessExported mode).
func FieldForRead(sv reflect.Value, i int, mode AccessMode) (reflect.Value, bool, error) {
	return fieldForRead(sv, i, mode)
}

// FieldForWrite returns the i-th field of the addressable struct value sv
// prepared for writing under mode. ok is false when the field is skipped.
func FieldForWrite(sv reflect.Value, i int, mode AccessMode) (reflect.Value, bool, error) {
	return fieldForWrite(sv, i, mode)
}

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
