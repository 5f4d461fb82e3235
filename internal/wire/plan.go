package wire

import (
	"fmt"
	"reflect"

	"nrmi/internal/graph"
)

// planField describes one struct field included in the wire format.
type planField struct {
	index int
	name  string
}

// structPlan is the per-(type, access-mode) field schema. Both endpoints
// compute the same plan deterministically, so engine V2 never ships field
// names. zeroCheck lists unexported fields that are excluded in
// AccessExported mode and must be verified zero at encode time so that
// state is never silently dropped.
type structPlan struct {
	fields    []planField
	zeroCheck []int
	byName    map[string]int // wire name -> field index (V1 decode)
}

// planFor returns the field plan for t under mode, recomputed from raw
// reflection every time — the paper's "Java reflection is a very slow way to
// examine unknown objects" behaviour that aggressive caching fixes (Section
// 5.3.1): the cached path is V2's kernels (kernel.go), which compile a
// type's plan once.
func planFor(t reflect.Type, mode graph.AccessMode) *structPlan {
	p := &structPlan{byName: make(map[string]int)}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() && mode == graph.AccessExported {
			p.zeroCheck = append(p.zeroCheck, i)
			continue
		}
		p.fields = append(p.fields, planField{index: i, name: f.Name})
		p.byName[f.Name] = i
	}
	return p
}

// verifyZeroFields enforces the no-silent-loss rule for excluded fields.
func verifyZeroFields(sv reflect.Value, p *structPlan) error {
	for _, i := range p.zeroCheck {
		if !sv.Field(i).IsZero() {
			return fmt.Errorf("%w: field %s.%s", graph.ErrUnexportedField,
				sv.Type(), sv.Type().Field(i).Name)
		}
	}
	return nil
}
