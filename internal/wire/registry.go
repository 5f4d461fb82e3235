package wire

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"

	"nrmi/internal/graph"
)

// ErrRegistryConflict is reported when a registration would rebind a
// name to a different type or a type to a different name. The error
// message carries both the prior and the new binding so misconfigured
// endpoints are diagnosable from either side.
var ErrRegistryConflict = errors.New("wire: registry conflict")

// Registry maps wire names to Go types, playing the role of Java's
// class-resolution machinery during deserialization. Every *named* Go type
// that crosses the wire — structs, named scalars, named composites, and
// named interface types appearing in type descriptors — must be registered
// under the same name on both endpoints. Unnamed composites (e.g. []*Tree,
// map[string]int) are described structurally and need no registration.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]*typeRec
	byType sync.Map // typeID -> *typeRec, read without the lock
}

// typeRec is one binding, found by type identity on encode and by the name a
// stream carries on decode, and per access mode the layout fingerprint of its
// type once computed (Registry.sum). named is named(t): an unnamed type bound
// to a name still travels described by its structure.
type typeRec struct {
	t     reflect.Type
	name  string
	named bool
	sums  [graph.AccessUnsafe + 1]atomic.Pointer[uint64]
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*typeRec)}
}

var defaultRegistry = NewRegistry()

// DefaultRegistry returns the process-wide registry used when Options.
// Registry is nil, mirroring encoding/gob's package-level Register.
func DefaultRegistry() *Registry { return defaultRegistry }

// Register records the dynamic type of sample under name. Pointer samples
// are dereferenced: Register("t.Tree", &Tree{}) and Register("t.Tree",
// Tree{}) are equivalent. Registering the same pair twice is a no-op;
// conflicting registrations return an error.
func (r *Registry) Register(name string, sample any) error {
	if sample == nil {
		return fmt.Errorf("wire: Register(%q) with nil sample", name)
	}
	t := reflect.TypeOf(sample)
	for t.Kind() == reflect.Ptr {
		t = t.Elem()
	}
	return r.RegisterType(name, t)
}

// RegisterType records t under name. Use this form for interface types:
// RegisterType("t.Shape", reflect.TypeOf((*Shape)(nil)).Elem()).
func (r *Registry) RegisterType(name string, t reflect.Type) error {
	if name == "" {
		return fmt.Errorf("wire: RegisterType with empty name for %s", t)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.byName[name]; ok && prev.t != t {
		return fmt.Errorf("%w: name %q is bound to type %s, cannot rebind it to type %s",
			ErrRegistryConflict, name, prev.t, t)
	}
	if prev := r.record(t); prev != nil && prev.name != name {
		return fmt.Errorf("%w: type %s is registered as %q, cannot also register it as %q",
			ErrRegistryConflict, t, prev.name, name)
	}
	if r.byName[name] == nil {
		r.byName[name] = &typeRec{t: t, name: name, named: named(t)}
		r.byType.Store(typeID(t), r.byName[name])
	}
	return nil
}

// CheckType walks t's kernel closure under mode, depth first, and reports
// the first kernel no value can be coded by (a chan, func, unsafe.Pointer
// or uintptr) as graph.ErrNotSerializable, or the first named
// non-interface type r does not bind as ErrTypeNotRegistered, at its path
// from the root ("*app.Order.Events"). Interface slots stay dynamic.
func (r *Registry) CheckType(t reflect.Type, mode graph.AccessMode) error {
	return r.checkClosure(kernelFor(t, mode), t.String(), map[*kernel]bool{})
}

func (r *Registry) checkClosure(k *kernel, path string, seen map[*kernel]bool) error {
	if seen[k] {
		return nil
	}
	seen[k] = true
	if k.err != nil {
		return fmt.Errorf("%w: %s has kind %s (%s)", graph.ErrNotSerializable, path, k.kind, k.t)
	}
	if named(k.t) && k.kind != reflect.Interface {
		if r.record(k.t) == nil {
			return fmt.Errorf("%w: %s at %s (register it on both endpoints)", ErrTypeNotRegistered, k.t, path)
		}
	}
	for step, part := range k.parts {
		if err := r.checkClosure(part, path+step, seen); err != nil {
			return err
		}
	}
	return nil
}

// named reports whether t travels under a registered name: a defined type
// outside the predeclared ones, whose canonical name is "pkgpath.Name".
func named(t reflect.Type) bool { return t.Name() != "" && t.PkgPath() != "" }

// record returns t's record, or nil if t is not bound.
func (r *Registry) record(t reflect.Type) *typeRec {
	if rec, ok := r.byType.Load(typeID(t)); ok {
		return rec.(*typeRec)
	}
	return nil
}

// recordNamed returns the record of a wire name, as read off a stream, or
// nil. The lookup copies nothing.
func (r *Registry) recordNamed(name []byte) *typeRec {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.byName[string(name)]
}

// NameOf resolves the wire name of a type, reporting ErrTypeNotRegistered
// for unregistered named types.
func (r *Registry) NameOf(t reflect.Type) (string, error) {
	if rec := r.record(t); rec != nil {
		return rec.name, nil
	}
	return "", fmt.Errorf("%w: %s (register it on both endpoints)", ErrTypeNotRegistered, t)
}

// Register records sample's type in the default registry under name.
func Register(name string, sample any) error {
	return defaultRegistry.Register(name, sample)
}
