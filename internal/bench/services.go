// Package bench implements the paper's evaluation apparatus (Section 5.3)
// over internal/model's tree world and store: the manual restore strategies
// a programmer must write with plain call-by-copy RMI (return-value
// reassignment, isomorphic simultaneous traversal, shadow tree), the
// remote-pointer tree for call-by-reference, and the harness that
// regenerates Tables 1–6.
package bench

import (
	"nrmi/internal/model"
	"nrmi/internal/wire"
)

// RegisterTypes installs the benchmark wire types on reg: the model's and
// the manual strategies'. Both endpoints of every benchmark call it.
func RegisterTypes(reg *wire.Registry) error {
	for name, sample := range map[string]any{
		"bench.Shadow":    Shadow{},
		"bench.ReturnI":   ReturnI{},
		"bench.ReturnII":  ReturnII{},
		"bench.ReturnIII": ReturnIII{},
	} {
		if err := reg.Register(name, sample); err != nil {
			return err
		}
	}
	return model.Register(reg)
}

// NRMIService is the copy-restore benchmark service. Note what is NOT
// here: no widened return types, no shadow trees, no client-side update
// code. The remote method mutates its parameter exactly as a local one
// would, and NRMI's runtime restores the changes — the paper's usability
// claim in code form (Section 4.3).
type NRMIService struct{}

// Apply runs the mutation script against the restorable tree.
func (s *NRMIService) Apply(root *model.RTree, script model.Script) int {
	script.ApplyR(root)
	return len(script)
}

// Nop accepts the restorable tree and changes nothing: its reply carries no
// content record, so the call costs about what passing the tree by copy
// does (paper Section 5.2.4).
func (s *NRMIService) Nop(root *model.RTree) int {
	return 0
}

// MacroService is the server side of the store workload.
type MacroService struct{}

// Apply mutates the store in place; NRMI restores everything.
func (m *MacroService) Apply(s *model.MacroStore, ops []model.MacroOp) int {
	model.ApplyMacro(s, ops)
	return s.NextID
}
