package bench

import (
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

// engines pairs the paper's JDK row labels with our codec engines.
var engines = []struct {
	label string
	eng   wire.Engine
}{
	{"jdk1.3", wire.EngineV1},
	{"jdk1.4", wire.EngineV2},
}

// RunAll regenerates every table of the paper's evaluation. Tables come
// back in paper order; the final entry is the restore-vs-copy extension
// (the paper's future work, Section 5.2.4).
func RunAll(cfg HarnessConfig) ([]*Table, error) {
	cfg = cfg.withDefaults()
	fast := netsim.Host{Name: "fast", CPUFactor: 1.0}
	slow := netsim.Host{Name: "slow", CPUFactor: cfg.SlowFactor}

	// Environments, keyed by what the tables need. The two-machine
	// configuration puts the service on the slow machine, like the
	// paper's SunBlade (client) / Ultra 10 (server) split.
	type envKey struct {
		name string
		cfg  EnvConfig
	}
	keys := []envKey{
		{"lan-v1", EnvConfig{Profile: cfg.LAN, Engine: wire.EngineV1, ServerHost: slow, ClientHost: fast}},
		{"lan-v2", EnvConfig{Profile: cfg.LAN, Engine: wire.EngineV2, ServerHost: slow, ClientHost: fast}},
		{"lan-v2-portable", EnvConfig{Profile: cfg.LAN, Engine: wire.EngineV2, DisablePlanCache: true, ServerHost: slow, ClientHost: fast}},
		{"loop-v1", EnvConfig{Profile: netsim.Loopback(), Engine: wire.EngineV1, ServerHost: fast, ClientHost: fast}},
		{"loop-v2", EnvConfig{Profile: netsim.Loopback(), Engine: wire.EngineV2, ServerHost: fast, ClientHost: fast}},
	}
	envs := make(map[string]*Env, len(keys))
	defer func() {
		for _, e := range envs {
			_ = e.Close()
		}
	}()
	for _, k := range keys {
		e, err := NewEnv(k.cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: building env %s: %w", k.name, err)
		}
		envs[k.name] = e
	}

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

	// Table 1: local execution, fast and slow host.
	t1 := &Table{ID: "Table 1", Title: "Baseline 1 — Local Execution (processing overhead), fast / slow host", Sizes: cfg.Sizes}
	for _, sc := range Scenarios {
		sc := sc
		for _, host := range []struct {
			label  string
			factor float64
		}{{"fast", 1.0}, {"slow", cfg.SlowFactor}} {
			host := host
			if err := row(t1, fmt.Sprintf("%s (%s)", sc, host.label), func(size int) (Cell, error) {
				return RunLocal(spec(sc, size), host.factor)
			}); err != nil {
				return nil, err
			}
		}
	}
	t1.Notes = append(t1.Notes,
		"modern hardware executes these mutations in microseconds; see BenchmarkTable1Local for ns/op resolution")
	tables = append(tables, t1)

	// Table 2: RMI call-by-copy, one-way traffic, no restore.
	t2 := &Table{ID: "Table 2", Title: "Baseline 2 — RMI Execution, without Restore (one-way traffic)", Sizes: cfg.Sizes}
	for _, en := range engines {
		en := en
		for _, sc := range Scenarios {
			sc := sc
			if err := row(t2, fmt.Sprintf("%s (%s)", sc, en.label), func(size int) (Cell, error) {
				return RunOneWay(envs["lan-"+string(en.eng.String())], spec(sc, size))
			}); err != nil {
				return nil, err
			}
		}
	}
	tables = append(tables, t2)

	// Table 3: RMI with manual restore, same machine (no network shaping).
	t3 := &Table{ID: "Table 3", Title: "Baseline 3 — RMI Execution with Restore on local machine (no network overhead)", Sizes: cfg.Sizes}
	for _, en := range engines {
		en := en
		for _, sc := range Scenarios {
			sc := sc
			if err := row(t3, fmt.Sprintf("%s (%s)", sc, en.label), func(size int) (Cell, error) {
				return RunManual(envs["loop-"+en.eng.String()], spec(sc, size))
			}); err != nil {
				return nil, err
			}
		}
	}
	tables = append(tables, t3)

	// Table 4: RMI with manual restore, two machines.
	t4 := &Table{ID: "Table 4", Title: "RMI Execution with Restore (two-way traffic)", Sizes: cfg.Sizes}
	for _, en := range engines {
		en := en
		for _, sc := range Scenarios {
			sc := sc
			if err := row(t4, fmt.Sprintf("%s (%s)", sc, en.label), func(size int) (Cell, error) {
				return RunManual(envs["lan-"+en.eng.String()], spec(sc, size))
			}); err != nil {
				return nil, err
			}
		}
	}
	tables = append(tables, t4)

	// Table 5: NRMI copy-restore; v1, then portable and optimized v2.
	t5 := &Table{ID: "Table 5", Title: "NRMI (Call-by-copy-restore); jdk1.3, jdk1.4 portable / optimized", Sizes: cfg.Sizes}
	t5rows := []struct {
		label string
		env   string
	}{
		{"jdk1.3", "lan-v1"},
		{"jdk1.4 portable", "lan-v2-portable"},
		{"jdk1.4 optimized", "lan-v2"},
	}
	for _, tr := range t5rows {
		tr := tr
		for _, sc := range Scenarios {
			sc := sc
			if err := row(t5, fmt.Sprintf("%s (%s)", sc, tr.label), func(size int) (Cell, error) {
				return RunNRMI(envs[tr.env], spec(sc, size))
			}); err != nil {
				return nil, err
			}
		}
	}
	tables = append(tables, t5)

	// Table 6: call-by-reference via remote pointers.
	t6 := &Table{ID: "Table 6", Title: "Call-by-Reference with Remote References (RMI)", Sizes: cfg.Sizes,
		Notes: []string{fmt.Sprintf("'-' marks calls exceeding the %s budget (the paper's runs exhausted a 1GB heap)", cfg.CBRefBudget)}}
	for _, en := range engines {
		en := en
		for _, sc := range Scenarios {
			sc := sc
			if err := row(t6, fmt.Sprintf("%s (%s)", sc, en.label), func(size int) (Cell, error) {
				return RunCBRef(envs["lan-"+en.eng.String()], spec(sc, size), cfg.CBRefBudget)
			}); err != nil {
				return nil, err
			}
		}
	}
	tables = append(tables, t6)

	// Extension: a restorable call whose method changes nothing against the
	// same tree passed by copy (both optimized v2, two machines).
	t7 := &Table{ID: "Table 7 (extension)", Title: "NRMI no-op restore vs RMI by-copy (paper Section 5.2.4, optimization 2)", Sizes: cfg.Sizes,
		Notes: []string{"a reply ships only what the method changed: a no-op restore costs about what by-copy does"}}
	if err := row(t7, "nop (restore)", func(size int) (Cell, error) {
		return RunNRMINop(envs["lan-v2"], spec(ScenarioI, size))
	}); err != nil {
		return nil, err
	}
	if err := row(t7, "copy (one-way)", func(size int) (Cell, error) {
		return RunOneWay(envs["lan-v2"], spec(ScenarioI, size))
	}); err != nil {
		return nil, err
	}
	tables = append(tables, t7)

	return tables, nil
}
