package graph

import (
	"errors"
	"testing"
)

// Identity is (address, kind): references of two types can share one
// without being one object. These tests pin the rule of Aliases on the
// walker and the copier; internal/core and internal/rmi pin it on the codec.

// inner's first field shares the struct's address.
type inner struct{ A, B int }

type firstField struct {
	S *inner
	A *int
}

func newFirstField() *firstField {
	s := &inner{A: 1, B: 2}
	return &firstField{S: s, A: &s.A}
}

func TestWalkFirstFieldOverlapRejected(t *testing.T) {
	if _, err := Walk(AccessExported, newFirstField()); !errors.Is(err, ErrObjectOverlap) {
		t.Fatalf("want ErrObjectOverlap, got %v", err)
	}
}

func TestCopyFirstFieldOverlapRejected(t *testing.T) {
	if _, err := Copy(AccessExported, newFirstField()); !errors.Is(err, ErrObjectOverlap) {
		t.Fatalf("want ErrObjectOverlap, got %v", err)
	}
}
