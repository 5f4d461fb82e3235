// Package graph provides the object-graph substrate underlying NRMI's
// call-by-copy-restore semantics: reachability traversal over arbitrary Go
// values, stable object identity, the "linear map" of reachable objects
// (paper, Section 3, step 1), identity-preserving deep copy, and graph-aware
// equality.
//
// The package projects Java's object model onto Go. An "object" — a heap
// entity with identity that aliases can observe — is one of:
//
//   - the pointee of a *T pointer (structs, arrays, scalars behind pointers),
//   - a map (Go maps are reference types),
//   - a slice, modeled as a fixed-length Java array: identity is the data
//     pointer, and two slices over the same array with different lengths are
//     rejected as an unsupported partial overlap.
//
// Strings and value-embedded structs have no identity, exactly like Java
// primitives and (immutable) java.lang.String for observational purposes.
// Channels, functions and unsafe pointers are not serializable and make a
// traversal fail with ErrNotSerializable.
package graph

import (
	"errors"
	"fmt"
	"reflect"
)

// Sentinel errors reported by traversals, copies and restores.
var (
	// ErrNotSerializable is reported when a traversal reaches a value of a
	// kind that has no meaningful remote representation (chan, func,
	// unsafe.Pointer), mirroring java.io.NotSerializableException.
	ErrNotSerializable = errors.New("graph: value is not serializable")

	// ErrSliceOverlap is reported when two slices share a backing array but
	// disagree on length; the fixed-length array model cannot represent
	// partially overlapping views.
	ErrSliceOverlap = errors.New("graph: partially overlapping slices are not supported")

	// ErrObjectOverlap is reported when references of two types denote one
	// address — a struct and its first field, zero-size pointees: identity
	// is (address, kind), so the model would have to make them one object.
	ErrObjectOverlap = errors.New("graph: objects of different types at one address are not supported")

	// ErrUnexportedField is reported in AccessExported mode when a struct
	// has an unexported field that cannot be skipped safely (its value is
	// not the zero value, so dropping it would lose state).
	ErrUnexportedField = errors.New("graph: unexported field requires AccessUnsafe mode")

	// ErrDepthExceeded guards against runaway recursion through
	// pathologically deep value nesting (not object cycles, which the
	// identity table handles naturally).
	ErrDepthExceeded = errors.New("graph: value nesting too deep")
)

// maxDepth bounds nesting of values *within* one object (struct-in-struct,
// array-of-array). Cycles through pointers/maps/slices do not consume depth
// because each object is visited once.
const maxDepth = 10000

// AccessMode selects how struct fields are read and written.
//
// The paper's "portable" NRMI implementation uses plain reflection and
// therefore sees only what the language exposes; its "optimized"
// implementation uses the JVM's Unsafe class for privileged field access.
// AccessExported and AccessUnsafe are the corresponding Go modes.
type AccessMode int

const (
	// AccessExported reads and writes exported struct fields only.
	// Traversal fails with ErrUnexportedField if an unexported field holds
	// a non-zero value, so state is never silently dropped.
	AccessExported AccessMode = iota

	// AccessUnsafe reads and writes all fields, including unexported ones,
	// through unsafe-backed accessors (the Go analog of sun.misc.Unsafe).
	AccessUnsafe
)

// String returns the mode name for logs and error messages.
func (m AccessMode) String() string {
	switch m {
	case AccessExported:
		return "exported"
	case AccessUnsafe:
		return "unsafe"
	default:
		return fmt.Sprintf("AccessMode(%d)", int(m))
	}
}

// Kind classifies the identity-bearing objects a traversal records.
type Kind int

const (
	// KindPtr is the pointee of a Go pointer.
	KindPtr Kind = iota
	// KindMap is a Go map.
	KindMap
	// KindSlice is a Go slice, modeled as a fixed-length array object.
	KindSlice
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindPtr:
		return "ptr"
	case KindMap:
		return "map"
	case KindSlice:
		return "slice"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Ident is the comparable identity of an object: the address of the pointee,
// the map header, or the slice data pointer. A zero Ident is never produced
// for a non-nil object.
type Ident struct {
	addr uintptr
	kind Kind
}

// identOf computes the identity key of v in one kind switch; it has a zero
// address if v is nil or not a pointer, map or slice.
func identOf(v reflect.Value) Ident {
	switch v.Kind() {
	case reflect.Ptr:
		return Ident{v.Pointer(), KindPtr}
	case reflect.Map:
		return Ident{v.Pointer(), KindMap}
	case reflect.Slice:
		return Ident{v.Pointer(), KindSlice}
	}
	return Ident{}
}

// Object is one entry of a linear map: a reference to an identity-bearing
// heap object discovered during traversal.
type Object struct {
	// Ref holds the reference value itself: a reflect.Value of kind Ptr,
	// Map, or Slice. Mutating through Ref mutates the original object.
	Ref reflect.Value

	// ID is the object's position in the linear map (DFS discovery order).
	ID int
}

// Type returns the dynamic type of the reference.
func (o *Object) Type() reflect.Type { return o.Ref.Type() }

// LinearMap is the ordered set of objects reachable from a set of roots: the
// data structure at the heart of the copy-restore algorithm (paper, Section
// 3). Order is DFS discovery order, which both endpoints reproduce
// independently, so positions ("IDs") agree without shipping the map itself
// (paper, Section 5.2.4, optimization 1).
type LinearMap struct {
	objects []*Object
	index   IdentTable
}

// Len returns the number of recorded objects.
func (lm *LinearMap) Len() int { return len(lm.objects) }

// At returns the i-th object in discovery order.
func (lm *LinearMap) At(i int) *Object { return lm.objects[i] }

// Objects returns the underlying object list in discovery order. The slice
// is shared; callers must not modify it.
func (lm *LinearMap) Objects() []*Object { return lm.objects }

// Lookup returns the recorded object for the given reference value, or nil
// if the reference was not seen by the traversal that built the map.
func (lm *LinearMap) Lookup(ref reflect.Value) *Object {
	if ident, ok := IdentOf(ref); ok {
		if i, ok := lm.index.Get(ident); ok {
			return lm.objects[i]
		}
	}
	return nil
}

// Aliases vets a table hit: ref has the identity recorded for prev, and the
// result says whether it denotes prev's object. Identity leaves the type out,
// so references of two types can share it. A zero-capacity slice has no
// storage, nothing can alias it: it is a distinct object (false, nil) that
// the caller numbers afresh without entering its table. Any other type
// mismatch is ErrObjectOverlap, and slices of one type over one array that
// disagree on length are ErrSliceOverlap.
func Aliases(prev, ref reflect.Value) (bool, error) {
	if prev.Type() != ref.Type() {
		if ref.Kind() == reflect.Slice && ref.Cap() == 0 {
			return false, nil
		}
		return false, fmt.Errorf("%w: %s and %s", ErrObjectOverlap, prev.Type(), ref.Type())
	}
	if ref.Kind() == reflect.Slice && prev.Len() != ref.Len() {
		return false, fmt.Errorf("%w: lengths %d and %d share storage",
			ErrSliceOverlap, prev.Len(), ref.Len())
	}
	return true, nil
}

// Add records a reference as the next object and returns it. If the object
// is already present it is returned with ok=false. Add reports the errors of
// Aliases when ref overlaps a recorded object it is not an alias of.
func (lm *LinearMap) Add(ref reflect.Value) (obj *Object, ok bool, err error) {
	if i, seen := lm.index.GetOrPut(identOf(ref), len(lm.objects)); seen {
		if same, err := Aliases(lm.objects[i].Ref, ref); same || err != nil {
			return lm.objects[i], false, err
		}
	}
	obj = &Object{Ref: StableRef(ref), ID: len(lm.objects)}
	lm.objects = append(lm.objects, obj)
	return obj, true, nil
}

// isIdentityKind reports whether a reflect kind carries object identity.
func isIdentityKind(k reflect.Kind) bool {
	return k == reflect.Ptr || k == reflect.Map || k == reflect.Slice
}

// forbiddenKind reports whether a reflect kind can never be serialized.
func forbiddenKind(k reflect.Kind) bool {
	switch k {
	case reflect.Chan, reflect.Func, reflect.UnsafePointer, reflect.Uintptr:
		return true
	default:
		return false
	}
}
