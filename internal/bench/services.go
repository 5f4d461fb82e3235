package bench

// NRMIService is the copy-restore benchmark service. Note what is NOT
// here: no widened return types, no shadow trees, no client-side update
// code. The remote method mutates its parameter exactly as a local one
// would, and NRMI's runtime restores the changes — the paper's usability
// claim in code form (Section 4.3).
type NRMIService struct{}

// Apply runs the mutation script against the restorable tree.
func (s *NRMIService) Apply(root *RTree, script Script) int {
	script.ApplyR(root)
	return len(script)
}

// Nop accepts the restorable tree and changes nothing: its reply carries no
// content record, so the call costs about what passing the tree by copy
// does (paper Section 5.2.4).
func (s *NRMIService) Nop(root *RTree) int {
	return 0
}
