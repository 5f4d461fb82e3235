package bench

import (
	"fmt"
	"strings"

	"nrmi/internal/obs"
	"nrmi/internal/wire"
)

// PhasesConfig drives the per-phase breakdown run (nrmi-bench -phases).
type PhasesConfig struct {
	// Sizes are the tree sizes (default 16, 64, 256, 1024).
	Sizes []int
	// Iterations is how many calls feed each cell's histograms (default 20).
	Iterations int
	// Seed makes the run reproducible (default 1).
	Seed int64
	// Scenario selects the workload; the zero value means ScenarioIII,
	// the hardest (aliases plus arbitrary structural changes).
	Scenario Scenario
	// Log, when set, receives progress lines.
	Log func(string)
}

func (c PhasesConfig) withDefaults() PhasesConfig {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{16, 64, 256, 1024}
	}
	if c.Iterations == 0 {
		c.Iterations = 20
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Scenario == ScenarioI {
		c.Scenario = ScenarioIII
	}
	if c.Log == nil {
		c.Log = func(string) {}
	}
	return c
}

// phaseOrder lists the phases in pipeline order: the client's request side,
// the server pipeline, then the client's reply side. This is the row order
// of the report.
var phaseOrder = []obs.Phase{
	obs.PhaseEncode,
	obs.PhaseTransport,
	obs.PhaseSrvDecode,
	obs.PhaseSrvPrepare,
	obs.PhaseSrvExecute,
	obs.PhaseSrvEncode,
	obs.PhaseDecodeReply,
	obs.PhaseRestoreCommit,
}

// clientPhases are a blocking call's client phases. They tile the call up
// to its last mark, so their means sum to the whole call as the client
// experiences it; PhaseTransport already contains the server pipeline and
// the network.
var clientPhases = []obs.Phase{
	obs.PhaseEncode, obs.PhaseTransport,
	obs.PhaseDecodeReply, obs.PhaseRestoreCommit,
}

// PhaseCell is one size's cell of the per-phase report: the mean
// nanoseconds each pipeline phase spent per call.
type PhaseCell struct {
	Size int `json:"size"`
	// PhaseNs maps phase name to mean nanoseconds per call; phases that
	// never ran are absent.
	PhaseNs map[string]float64 `json:"phase_ns"`
	// CallNs is the sum of the client-side phase means: the per-call cost
	// as the caller experiences it.
	CallNs float64 `json:"call_ns"`
}

// PhasesReport is the full output of RunPhases: the scenario's per-phase
// breakdown on the default engine, one cell per size.
type PhasesReport struct {
	Scenario string      `json:"scenario"`
	Sizes    []int       `json:"sizes"`
	Cells    []PhaseCell `json:"cells"`
}

// Cell returns the report cell for one size, or nil.
func (r *PhasesReport) Cell(size int) *PhaseCell {
	for i := range r.Cells {
		if r.Cells[i].Size == size {
			return &r.Cells[i]
		}
	}
	return nil
}

// RunPhases measures the per-phase cost breakdown of the copy-restore
// pipeline: the configured scenario over the loopback profile on engine
// V2, every call recorded by a phase observer on both endpoints.
func RunPhases(cfg PhasesConfig) (*PhasesReport, error) {
	cfg = cfg.withDefaults()
	rep := &PhasesReport{Scenario: cfg.Scenario.String(), Sizes: cfg.Sizes}
	for _, size := range cfg.Sizes {
		o := obs.New(obs.Config{Tag: fmt.Sprintf("phases-%d", size)})
		e, err := NewEnv(EnvConfig{Engine: wire.EngineV2, Obs: o})
		if err != nil {
			return nil, fmt.Errorf("bench: phases env %d: %w", size, err)
		}
		spec := RunSpec{
			Scenario:   cfg.Scenario,
			Size:       size,
			Iterations: cfg.Iterations,
			Seed:       cfg.Seed,
			Verify:     true,
		}
		if _, err := RunNRMI(e, spec); err != nil {
			_ = e.Close()
			return nil, fmt.Errorf("bench: phases run %d: %w", size, err)
		}
		snap := o.Snapshot()
		_ = e.Close()
		ms := snap.Method("nrmi", "Apply")
		if ms == nil {
			return nil, fmt.Errorf("bench: phases run %d recorded no nrmi/Apply calls", size)
		}
		cell := PhaseCell{Size: size, PhaseNs: make(map[string]float64)}
		for _, p := range phaseOrder {
			if m := ms.PhaseMeanNs(p.String()); m > 0 {
				cell.PhaseNs[p.String()] = m
			}
		}
		for _, p := range clientPhases {
			cell.CallNs += cell.PhaseNs[p.String()]
		}
		rep.Cells = append(rep.Cells, cell)
		cfg.Log(fmt.Sprintf("phases: size %d done", size))
	}
	return rep, nil
}

// Format renders the report as aligned text: phases as rows and sizes as
// columns (mean µs/call), then the whole-call summary row.
func (r *PhasesReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Per-phase breakdown — scenario %s, loopback, mean µs/call\n\n", r.Scenario)
	fmt.Fprintf(&b, "%-16s", "phase")
	for _, size := range r.Sizes {
		fmt.Fprintf(&b, "%10d", size)
	}
	b.WriteString("\n")
	writeRow := func(name string, ns func(c *PhaseCell) (float64, bool)) {
		fmt.Fprintf(&b, "%-16s", name)
		for _, size := range r.Sizes {
			if c := r.Cell(size); c != nil {
				if v, ok := ns(c); ok {
					fmt.Fprintf(&b, "%10.1f", v/1e3)
					continue
				}
			}
			fmt.Fprintf(&b, "%10s", "-")
		}
		b.WriteString("\n")
	}
	for _, p := range phaseOrder {
		name := p.String()
		writeRow(name, func(c *PhaseCell) (float64, bool) {
			v, ok := c.PhaseNs[name]
			return v, ok
		})
	}
	writeRow("call (client)", func(c *PhaseCell) (float64, bool) { return c.CallNs, true })
	return b.String()
}

// Markdown renders the report as a GitHub table (for EXPERIMENTS.md).
func (r *PhasesReport) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "\n**Scenario %s per-phase breakdown (mean µs/call)**\n\n", r.Scenario)
	b.WriteString("| phase |")
	for _, size := range r.Sizes {
		fmt.Fprintf(&b, " %d |", size)
	}
	b.WriteString("\n|---|")
	for range r.Sizes {
		b.WriteString("---:|")
	}
	b.WriteString("\n")
	for _, p := range phaseOrder {
		ran := false
		for _, size := range r.Sizes {
			if c := r.Cell(size); c != nil && c.PhaseNs[p.String()] > 0 {
				ran = true
			}
		}
		if !ran {
			continue
		}
		fmt.Fprintf(&b, "| %s |", p.String())
		for _, size := range r.Sizes {
			c := r.Cell(size)
			if c == nil || c.PhaseNs[p.String()] == 0 {
				b.WriteString(" - |")
				continue
			}
			fmt.Fprintf(&b, " %.1f |", c.PhaseNs[p.String()]/1e3)
		}
		b.WriteString("\n")
	}
	b.WriteString("| **call (client)** |")
	for _, size := range r.Sizes {
		c := r.Cell(size)
		if c == nil {
			b.WriteString(" - |")
			continue
		}
		fmt.Fprintf(&b, " **%.1f** |", c.CallNs/1e3)
	}
	b.WriteString("\n")
	return b.String()
}
