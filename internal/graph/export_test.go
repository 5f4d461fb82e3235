package graph

import (
	"reflect"
	"testing"
)

func TestIdentOfContracts(t *testing.T) {
	n := &node{Data: 1}
	id1, ok := IdentOf(reflect.ValueOf(n))
	if !ok {
		t.Fatal("pointer must have identity")
	}
	id2, ok := IdentOf(reflect.ValueOf(n))
	if !ok || id1 != id2 {
		t.Fatal("identity must be stable")
	}
	other, _ := IdentOf(reflect.ValueOf(&node{Data: 1}))
	if other == id1 {
		t.Fatal("distinct objects must have distinct identities")
	}
	if _, ok := IdentOf(reflect.ValueOf(42)); ok {
		t.Fatal("scalars have no identity")
	}
	var nilp *node
	if _, ok := IdentOf(reflect.ValueOf(nilp)); ok {
		t.Fatal("nil has no identity")
	}
	if _, ok := IdentOf(reflect.Value{}); ok {
		t.Fatal("invalid value has no identity")
	}
	m := map[string]int{}
	if _, ok := IdentOf(reflect.ValueOf(m)); !ok {
		t.Fatal("maps have identity")
	}
	s := []int{1}
	if _, ok := IdentOf(reflect.ValueOf(s)); !ok {
		t.Fatal("slices have identity")
	}
}

func TestIsIdentityKind(t *testing.T) {
	for k, want := range map[reflect.Kind]bool{
		reflect.Ptr:    true,
		reflect.Map:    true,
		reflect.Slice:  true,
		reflect.Int:    false,
		reflect.Struct: false,
		reflect.String: false,
	} {
		if IsIdentityKind(k) != want {
			t.Errorf("IsIdentityKind(%s) != %v", k, want)
		}
	}
}

func TestLaunderEnablesUnexportedAccess(t *testing.T) {
	v := &withUnexported{Public: 1, secret: 7}
	sv := reflect.ValueOf(v).Elem()
	raw := sv.Field(1) // unexported: read-only flag set
	if raw.CanInterface() {
		t.Fatal("test premise broken: field should be read-only")
	}
	clean := launder(raw)
	if !clean.CanInterface() {
		t.Fatal("laundered value must be readable")
	}
	if clean.Interface().(int) != 7 {
		t.Fatal("laundered read wrong")
	}
	clean.Set(reflect.ValueOf(9))
	if v.secret != 9 {
		t.Fatal("laundered write must land")
	}
	// Already-clean values pass through.
	pub := sv.Field(0)
	if launder(pub).Interface().(int) != 1 {
		t.Fatal("clean value passthrough broken")
	}
}

func TestFieldForReadWriteContracts(t *testing.T) {
	v := &withUnexported{Public: 1, secret: 2}
	sv := reflect.ValueOf(v).Elem()

	f, ok, err := fieldForRead(sv, 0, AccessExported)
	if err != nil || !ok || f.Interface().(int) != 1 {
		t.Fatalf("exported read: %v %v", ok, err)
	}
	if _, _, err := fieldForRead(sv, 1, AccessExported); err == nil {
		t.Fatal("non-zero unexported read in exported mode must fail")
	}
	f, ok, err = fieldForRead(sv, 1, AccessUnsafe)
	if err != nil || !ok || f.Interface().(int) != 2 {
		t.Fatalf("unsafe read: %v %v", ok, err)
	}

	w, ok, err := fieldForWrite(sv, 1, AccessUnsafe)
	if err != nil || !ok {
		t.Fatalf("unsafe write access: %v %v", ok, err)
	}
	w.SetInt(5)
	if v.secret != 5 {
		t.Fatal("unsafe write lost")
	}
	if _, ok, err := fieldForWrite(sv, 1, AccessExported); err != nil || ok {
		t.Fatalf("exported-mode unexported write must be skipped: %v %v", ok, err)
	}
}

func TestStableRefDetachesFromField(t *testing.T) {
	child := &node{Data: 2}
	parent := &node{Left: child}
	field := reflect.ValueOf(parent).Elem().Field(1) // Left
	stable := StableRef(field)
	parent.Left = nil
	if field.IsNil() {
		// expected: the field view follows the struct
	} else {
		t.Fatal("test premise: field view should have changed")
	}
	if stable.IsNil() || stable.Interface().(*node) != child {
		t.Fatal("StableRef must keep denoting the original object")
	}
}

func TestLinearMapAccessors(t *testing.T) {
	shared := &node{Data: 7}
	root := &node{Left: shared, Right: shared}
	lm, err := Walk(AccessExported, root)
	if err != nil {
		t.Fatal(err)
	}
	if len(lm.Objects()) != lm.Len() || lm.Len() != 2 {
		t.Fatalf("accessor mismatch: %d vs %d", len(lm.Objects()), lm.Len())
	}
	obj := lm.At(1)
	if obj.Type() != reflect.TypeOf(&node{}) {
		t.Fatalf("Type() = %v", obj.Type())
	}
}
