package wire

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"nrmi/internal/graph"
)

type regNode struct {
	Value int
	Next  *regNode
}

type regOther struct {
	Value string
}

type regChanHolder struct {
	Name   string
	Events chan int
}

type regDeepBad struct {
	Inner struct {
		Hooks []func()
	}
}

func TestRegisterNameConflictDetails(t *testing.T) {
	r := NewRegistry()
	if err := r.Register("app.Node", regNode{}); err != nil {
		t.Fatal(err)
	}
	err := r.Register("app.Node", regOther{})
	if err == nil {
		t.Fatal("rebinding a name to a different type must fail")
	}
	if !errors.Is(err, ErrRegistryConflict) {
		t.Fatalf("conflict must wrap ErrRegistryConflict: %v", err)
	}
	// Both the prior and the new type must be named, so either endpoint
	// can be fixed from the message alone.
	for _, want := range []string{"app.Node", "wire.regNode", "wire.regOther"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("conflict error %q must mention %s", err, want)
		}
	}
}

func TestRegisterTypeConflictDetails(t *testing.T) {
	r := NewRegistry()
	if err := r.Register("app.Node", regNode{}); err != nil {
		t.Fatal(err)
	}
	// Re-registration of the same type under a different name.
	err := r.Register("app.Renamed", regNode{})
	if err == nil {
		t.Fatal("re-registering a type under a different name must fail")
	}
	if !errors.Is(err, ErrRegistryConflict) {
		t.Fatalf("conflict must wrap ErrRegistryConflict: %v", err)
	}
	for _, want := range []string{"app.Node", "app.Renamed", "wire.regNode"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("conflict error %q must mention %s", err, want)
		}
	}
	// The original binding must be untouched by the failed attempt.
	if rec := r.recordNamed([]byte("app.Node")); rec == nil || rec.t != reflect.TypeOf(regNode{}) {
		t.Fatalf("original binding damaged: %v", rec)
	}
	if r.recordNamed([]byte("app.Renamed")) != nil {
		t.Fatal("failed registration must not bind the new name")
	}
	// Registering the identical pair again stays a no-op.
	if err := r.Register("app.Node", regNode{}); err != nil {
		t.Fatalf("idempotent re-registration broke: %v", err)
	}
}

func TestCheckTypeAcceptsCleanClosure(t *testing.T) {
	r := NewRegistry()
	if err := r.Register("app.Node", regNode{}); err != nil {
		t.Fatal(err)
	}
	if err := r.CheckType(reflect.TypeOf(&regNode{}), graph.AccessUnsafe); err != nil {
		t.Fatalf("a registered recursive type must pass: %v", err)
	}
}

func TestCheckTypeRejectsForbiddenKinds(t *testing.T) {
	r := NewRegistry()
	if err := r.Register("app.ChanHolder", regChanHolder{}); err != nil {
		t.Fatal(err)
	}
	err := r.CheckType(reflect.TypeOf(regChanHolder{}), graph.AccessUnsafe)
	if !errors.Is(err, graph.ErrNotSerializable) {
		t.Fatalf("chan field must be rejected as graph.ErrNotSerializable: %v", err)
	}
	if !strings.Contains(err.Error(), "Events") {
		t.Errorf("error must name the offending field path: %v", err)
	}

	// A violation nested behind value structs and slices is still found.
	if err := r.Register("app.DeepBad", regDeepBad{}); err != nil {
		t.Fatal(err)
	}
	err = r.CheckType(reflect.TypeOf(regDeepBad{}), graph.AccessUnsafe)
	if !errors.Is(err, graph.ErrNotSerializable) {
		t.Fatalf("nested func field must be rejected: %v", err)
	}
	if !strings.Contains(err.Error(), "Hooks") {
		t.Errorf("error must name the nested path: %v", err)
	}

	// An unregistered named type is refused before its fields are read.
	err = NewRegistry().CheckType(reflect.TypeOf(regChanHolder{}), graph.AccessUnsafe)
	if !errors.Is(err, ErrTypeNotRegistered) {
		t.Fatalf("unregistered type must be rejected as ErrTypeNotRegistered: %v", err)
	}
}

// TestCheckTypeClosure: CheckType rejects a chan, func, unsafe.Pointer or
// uintptr anywhere in a registered type's closure, naming the path from the
// root; a cyclic clean type terminates and passes, a map's keys and values
// are both checked, and an interface is opaque until a value arrives.
func TestCheckTypeClosure(t *testing.T) {
	type holder struct{ V any }
	type keyed struct{ M map[uintptr]int }
	r := NewRegistry()
	for name, sample := range map[string]any{
		"app.Node": regNode{}, "app.Holder": holder{}, "app.Keyed": keyed{},
		"app.ChanHolder": regChanHolder{}, "app.DeepBad": regDeepBad{},
	} {
		if err := r.Register(name, sample); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		sample any
		err    string // "" accepts
	}{
		{&regNode{}, ""},
		{holder{}, ""},
		{map[string]chan int{}, "map[string]chan int[value] has kind chan (chan int)"},
		{keyed{}, "wire.keyed.M[key] has kind uintptr (uintptr)"},
		{uintptr(0), "uintptr has kind uintptr (uintptr)"},
		{regChanHolder{}, "wire.regChanHolder.Events has kind chan (chan int)"},
		{&regDeepBad{}, "*wire.regDeepBad.Inner.Hooks has kind func (func())"},
	} {
		err := r.CheckType(reflect.TypeOf(tc.sample), graph.AccessUnsafe)
		want := "graph: value is not serializable: " + tc.err
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%T rejected: %v", tc.sample, err)
		case tc.err != "" && (!errors.Is(err, graph.ErrNotSerializable) || err.Error() != want):
			t.Errorf("%T: %v, want %s", tc.sample, err, want)
		}
	}
}
