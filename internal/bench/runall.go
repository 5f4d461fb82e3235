package bench

import (
	"errors"
	"fmt"
	"time"

	"nrmi/internal/netsim"
	"nrmi/internal/wire"
)

// HarnessConfig drives a full reproduction of the paper's Tables 1–6 (plus
// the restore-vs-copy extension table).
type HarnessConfig struct {
	// Sizes are the tree sizes (paper: 16, 64, 256, 1024).
	Sizes []int
	// Iterations is how many calls are averaged per cell.
	Iterations int
	// Seed makes the whole run reproducible.
	Seed int64
	// Verify re-checks the restore invariant on each cell's first
	// iteration (the paper's "invariant maintained is that all the
	// changes are visible to the caller").
	Verify bool
	// LAN shapes the two-machine links (default: 100 Mbps LAN).
	LAN netsim.Profile
	// SlowFactor is the slow machine's CPU factor (default 1.7, the
	// 750 MHz / 440 MHz ratio of the paper's testbed).
	SlowFactor float64
	// CBRefBudget bounds each call-by-reference call; blowing it renders
	// the paper's "-" cells (default 5s).
	CBRefBudget time.Duration
	// Log, when set, receives progress lines.
	Log func(string)
}

func (c HarnessConfig) withDefaults() HarnessConfig {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{16, 64, 256, 1024}
	}
	if c.Iterations == 0 {
		c.Iterations = 5
	}
	if c.LAN == (netsim.Profile{}) {
		c.LAN = netsim.LAN100Mbps()
	}
	if c.SlowFactor == 0 {
		c.SlowFactor = 1.7
	}
	if c.CBRefBudget == 0 {
		c.CBRefBudget = 5 * time.Second
	}
	if c.Log == nil {
		c.Log = func(string) {}
	}
	return c
}

// RunAll regenerates every table of the paper's evaluation. Tables come
// back in paper order; the final entry is the restore-vs-copy extension
// (the paper's future work, Section 5.2.4).
func RunAll(cfg HarnessConfig) ([]*Table, error) {
	cfg = cfg.withDefaults()
	fast := netsim.Host{Name: "fast", CPUFactor: 1.0}
	slow := netsim.Host{Name: "slow", CPUFactor: cfg.SlowFactor}

	// The two-machine configuration puts the service on the slow machine,
	// like the paper's SunBlade (client) / Ultra 10 (server) split.
	lan := func(eng wire.Engine) EnvConfig {
		return EnvConfig{Profile: cfg.LAN, Engine: eng, ServerHost: slow, ClientHost: fast}
	}
	loop := func(eng wire.Engine) EnvConfig {
		return EnvConfig{Profile: netsim.Loopback(), Engine: eng, ServerHost: fast, ClientHost: fast}
	}
	portable := lan(wire.EngineV2)
	portable.DisablePlanCache = true

	spec := func(sc Scenario, size int) RunSpec {
		return RunSpec{
			Scenario:   sc,
			Size:       size,
			Iterations: cfg.Iterations,
			Seed:       cfg.Seed + int64(size)*1000 + int64(sc)*31,
			Verify:     cfg.Verify,
		}
	}

	var tables []*Table
	row := func(t *Table, label string, cell func(size int) (Cell, error)) error {
		r := TableRow{Label: label}
		for _, size := range t.Sizes {
			c, err := cell(size)
			if err != nil {
				return fmt.Errorf("bench: %s row %q size %d: %w", t.ID, label, size, err)
			}
			r.Cells = append(r.Cells, c)
		}
		t.Rows = append(t.Rows, r)
		cfg.Log(fmt.Sprintf("%s: %s done", t.ID, label))
		return nil
	}
	// netRow adds a row whose every cell runs in an environment of its own,
	// built from ec and closed before the next cell starts: no call of one
	// cell, such as a blown Table 6 call's server still unwinding, is ever
	// counted in another.
	netRow := func(t *Table, label string, ec EnvConfig, sc Scenario, run func(*Env, RunSpec) (Cell, error)) error {
		return row(t, label, func(size int) (Cell, error) {
			e, err := NewEnv(ec)
			if err != nil {
				return Cell{}, err
			}
			c, err := run(e, spec(sc, size))
			return c, errors.Join(err, e.Close())
		})
	}

	// Table 1: local execution, fast and slow host.
	t1 := &Table{ID: "Table 1", Title: "Baseline 1 — Local Execution (processing overhead), fast / slow host", Sizes: cfg.Sizes}
	for _, sc := range Scenarios {
		for _, host := range []netsim.Host{fast, slow} {
			if err := row(t1, fmt.Sprintf("%s (%s)", sc, host.Name), func(size int) (Cell, error) {
				return RunLocal(spec(sc, size), host.CPUFactor)
			}); err != nil {
				return nil, err
			}
		}
	}
	t1.Notes = append(t1.Notes,
		"modern hardware executes these mutations in microseconds; see BenchmarkTable1Local for ns/op resolution")
	tables = append(tables, t1)

	// Tables 2–6: one row per scenario under each configuration the table
	// compares, labeled by the paper's JDK stand-in.
	type labeled struct {
		label string
		env   EnvConfig
	}
	lanJDK := []labeled{{"jdk1.3", lan(wire.EngineV1)}, {"jdk1.4", lan(wire.EngineV2)}}
	cbref := func(e *Env, s RunSpec) (Cell, error) { return RunCBRef(e, s, cfg.CBRefBudget) }
	for _, tt := range []struct {
		t    *Table
		envs []labeled
		run  func(*Env, RunSpec) (Cell, error)
	}{
		// RMI call-by-copy, one-way traffic, no restore.
		{&Table{ID: "Table 2", Title: "Baseline 2 — RMI Execution, without Restore (one-way traffic)"},
			lanJDK, RunOneWay},
		// RMI with manual restore, same machine (no network shaping).
		{&Table{ID: "Table 3", Title: "Baseline 3 — RMI Execution with Restore on local machine (no network overhead)"},
			[]labeled{{"jdk1.3", loop(wire.EngineV1)}, {"jdk1.4", loop(wire.EngineV2)}}, RunManual},
		// RMI with manual restore, two machines.
		{&Table{ID: "Table 4", Title: "RMI Execution with Restore (two-way traffic)"},
			lanJDK, RunManual},
		// NRMI copy-restore; v1, then portable and optimized v2.
		{&Table{ID: "Table 5", Title: "NRMI (Call-by-copy-restore); jdk1.3, jdk1.4 portable / optimized"},
			[]labeled{{"jdk1.3", lan(wire.EngineV1)}, {"jdk1.4 portable", portable}, {"jdk1.4 optimized", lan(wire.EngineV2)}},
			RunNRMI},
		// Call-by-reference via remote pointers.
		{&Table{ID: "Table 6", Title: "Call-by-Reference with Remote References (RMI)",
			Notes: []string{fmt.Sprintf("'-' marks calls exceeding the %s budget (the paper's runs exhausted a 1GB heap)", cfg.CBRefBudget)}},
			lanJDK, cbref},
	} {
		tt.t.Sizes = cfg.Sizes
		for _, en := range tt.envs {
			for _, sc := range Scenarios {
				if err := netRow(tt.t, fmt.Sprintf("%s (%s)", sc, en.label), en.env, sc, tt.run); err != nil {
					return nil, err
				}
			}
		}
		tables = append(tables, tt.t)
	}

	// Extension: a restorable call whose method changes nothing against the
	// same tree passed by copy (both optimized v2, two machines).
	t7 := &Table{ID: "Table 7 (extension)", Title: "NRMI no-op restore vs RMI by-copy (paper Section 5.2.4, optimization 2)", Sizes: cfg.Sizes,
		Notes: []string{"a reply ships only what the method changed: a no-op restore costs about what by-copy does"}}
	if err := netRow(t7, "nop (restore)", lan(wire.EngineV2), ScenarioI, RunNRMINop); err != nil {
		return nil, err
	}
	if err := netRow(t7, "copy (one-way)", lan(wire.EngineV2), ScenarioI, RunOneWay); err != nil {
		return nil, err
	}
	tables = append(tables, t7)

	return tables, nil
}
