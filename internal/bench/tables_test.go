package bench

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"nrmi/internal/raceflag"
)

func TestTableFormatting(t *testing.T) {
	tbl := &Table{
		ID:    "Table X",
		Title: "demo",
		Sizes: []int{16, 64},
		Rows: []TableRow{
			{Label: "I (jdk1.4)", Cells: []Cell{{OK: true, Millis: 0.2}, {OK: true, Millis: 12.7, Bytes: 1000, Messages: 2}}},
			{Label: "III (jdk1.3)", Cells: []Cell{{OK: true, Millis: 3}, {}}},
		},
		Notes: []string{"a note"},
	}
	text := tbl.Format()
	for _, want := range []string{"Table X", "16", "64", "0.200", "12.7", "3.00", "-", "a note"} {
		if !strings.Contains(text, want) {
			t.Errorf("Format missing %q in:\n%s", want, text)
		}
	}
	md := tbl.Markdown()
	for _, want := range []string{"### Table X", "| I (jdk1.4) |", "0.200 ms", "| - |"} {
		if !strings.Contains(md, want) {
			t.Errorf("Markdown missing %q in:\n%s", want, md)
		}
	}
	detail := tbl.DetailMarkdown()
	if !strings.Contains(detail, "1000B / 2") {
		t.Errorf("DetailMarkdown missing byte counts:\n%s", detail)
	}
}

func TestCountManualLoC(t *testing.T) {
	r, err := CountManualLoC()
	if err != nil {
		t.Fatal(err)
	}
	// The exact numbers drift with edits; assert the shape the paper
	// reports: substantial code per concern, scenario III the largest.
	if r.ReturnTypes < 10 {
		t.Errorf("return types LoC = %d, suspiciously small", r.ReturnTypes)
	}
	if r.StrategyII < 10 {
		t.Errorf("strategy II LoC = %d, suspiciously small", r.StrategyII)
	}
	if r.StrategyIII <= r.StrategyI {
		t.Errorf("strategy III (%d) must outweigh strategy I (%d)", r.StrategyIII, r.StrategyI)
	}
	if r.Total() < 50 {
		t.Errorf("total manual LoC = %d; paper reports ~100 per remote call", r.Total())
	}
	if !strings.Contains(r.String(), "shadow tree") {
		t.Error("report must mention the shadow tree")
	}
}

// TestRunAllSmoke runs the full table harness at toy sizes, with the
// restore invariant verified in every cell. This is the whole evaluation
// pipeline end to end.
func TestRunAllSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness smoke test")
	}
	cfg := HarnessConfig{
		Sizes:       []int{4, 8},
		Iterations:  1,
		Seed:        123,
		Verify:      true,
		CBRefBudget: 30 * time.Second,
	}
	tables, err := RunAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 7 {
		t.Fatalf("want 7 tables, got %d", len(tables))
	}
	wantRows := []int{6, 6, 6, 6, 9, 6, 2}
	for i, tbl := range tables {
		if len(tbl.Rows) != wantRows[i] {
			t.Errorf("%s: %d rows, want %d", tbl.ID, len(tbl.Rows), wantRows[i])
		}
		for _, r := range tbl.Rows {
			if len(r.Cells) != len(cfg.Sizes) {
				t.Errorf("%s %s: %d cells", tbl.ID, r.Label, len(r.Cells))
			}
		}
		if tbl.Format() == "" || tbl.Markdown() == "" {
			t.Errorf("%s: empty rendering", tbl.ID)
		}
	}
}

// TestBlownCellsLeakNothing: a Table 6 call that blows its budget stops on
// the server with it, and every cell runs on a network of its own, so Table
// 7 reads the same bytes and messages whether every Table 6 cell blew or
// none did. The blown run's budget is under the fastest Table 6 call at 16
// nodes (some 0.5 ms on a two-CPU box, where 500 µs let one call finish in
// most runs) and over the time its request takes to go out (every blown
// call's request was out at 200 µs), so a server is still unwinding when
// the next cell starts.
func TestBlownCellsLeakNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("two harness runs")
	}
	table7 := func(budget time.Duration, blows bool) string {
		t.Helper()
		tables, err := RunAll(HarnessConfig{
			Sizes:       []int{16, 64},
			Iterations:  3,
			Seed:        1,
			CBRefBudget: budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range tables[5].Rows {
			for i, c := range r.Cells {
				if c.OK == blows {
					t.Fatalf("budget %s: %s %s at %d: %+v", budget, tables[5].ID, r.Label, tables[5].Sizes[i], c)
				}
			}
		}
		return tables[6].DetailMarkdown()
	}
	blown, clean := table7(300*time.Microsecond, true), table7(time.Minute, false)
	if blown != clean {
		t.Errorf("Table 7 after blown Table 6 cells:\n%s\nafter none blew:\n%s", blown, clean)
	}
}

// TestTestbedIsComputed: no cell sleeps for the testbed. Its link term is
// computed from the cell's counts, so two runs agree on it exactly, and only
// the two-machine tables have one. The slow host's term bills the server
// machine's own CPU: on a Table 6 call, whose server mostly waits on its
// callbacks to the client, it stays under slowFactor − 1 times the call.
func TestTestbedIsComputed(t *testing.T) {
	cfg := HarnessConfig{Sizes: []int{16, 64}, Iterations: 1, Seed: 1, CBRefBudget: time.Minute}
	first, err := RunAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, tbl := range first {
		local := tbl.ID == "Table 1" || tbl.ID == "Table 3"
		for j, r := range tbl.Rows {
			for k, c := range r.Cells {
				at := fmt.Sprintf("%s %s at %d", tbl.ID, r.Label, tbl.Sizes[k])
				if again := second[i].Rows[j].Cells[k]; c.Link != again.Link {
					t.Errorf("%s: link term %g ms, then %g ms", at, c.Link, again.Link)
				}
				if (c.Link == 0) != local {
					t.Errorf("%s: link term %g ms", at, c.Link)
				}
				if local && c.Slow != 0 {
					t.Errorf("%s: slow-host term %g ms on one machine", at, c.Slow)
				}
			}
		}
	}
	for _, r := range first[5].Rows {
		for k, c := range r.Cells {
			if whole := (slowFactor - 1) * c.Wall; c.Slow <= 0 || c.Slow >= whole {
				t.Errorf("Table 6 %s at %d: slow-host term %.3g ms, want above 0 and under %.3g ms, (factor − 1) × the call",
					r.Label, first[5].Sizes[k], c.Slow, whole)
			}
		}
	}
}

// TestPaperVerdict pins the paper's verdict on the tables, at the smallest
// size and at the headline one, on the modeled testbed. Bytes and messages
// per call: NRMI is one request and one reply carrying no more than manual
// restore does, remote pointers cost orders of magnitude more messages, the
// JDK 1.3 stand-in ships an order of magnitude more bytes than the JDK 1.4
// one, and a restore the method leaves alone costs no more than by-copy.
// Time per call, asserted only where repeated runs on a two-CPU box keep a
// wide margin, and only without the race detector, which slows every
// measured call by an order of magnitude: remote pointers take at least 20
// times as long as NRMI, NRMI optimized takes at most four times as long as
// by-copy at 256 nodes (twice, at worst, on a loaded box), and the JDK 1.3
// stand-in's NRMI is slower than the JDK 1.4 optimized one. Every other time
// ordering the paper reports is logged, not asserted.
func TestPaperVerdict(t *testing.T) {
	tables, err := RunAll(HarnessConfig{
		Sizes:      []int{16, 256},
		Iterations: 5,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]map[string][]Cell{}
	for _, tbl := range tables {
		rows := map[string][]Cell{}
		for _, r := range tbl.Rows {
			rows[r.Label] = r.Cells
		}
		byID[tbl.ID] = rows
	}
	sizes := []int{16, 256}
	cell := func(table, label string, i int) Cell {
		t.Helper()
		cells, ok := byID[table][label]
		if !ok || !cells[i].OK {
			t.Fatalf("%s %q at size %d: no measurement", table, label, sizes[i])
		}
		return cells[i]
	}
	for _, sc := range Scenarios {
		for i, size := range sizes {
			for _, eng := range []struct{ nrmi, other string }{
				{"jdk1.3", "jdk1.3"}, {"jdk1.4 portable", "jdk1.4"}, {"jdk1.4 optimized", "jdk1.4"},
			} {
				nrmi := cell("Table 5", fmt.Sprintf("%s (%s)", sc, eng.nrmi), i)
				manual := cell("Table 4", fmt.Sprintf("%s (%s)", sc, eng.other), i)
				byRef := cell("Table 6", fmt.Sprintf("%s (%s)", sc, eng.other), i)
				if nrmi.Messages != 2 {
					t.Errorf("%s %s size %d: NRMI sends %g messages per call, want 2", sc, eng.nrmi, size, nrmi.Messages)
				}
				if nrmi.Bytes > manual.Bytes {
					t.Errorf("%s %s size %d: NRMI sends %d bytes, manual restore %d", sc, eng.nrmi, size, nrmi.Bytes, manual.Bytes)
				}
				if byRef.Messages < 20*nrmi.Messages {
					t.Errorf("%s %s size %d: by-reference sends %g messages, NRMI %g: want at least 20 times", sc, eng.other, size, byRef.Messages, nrmi.Messages)
				}
			}
			v1 := cell("Table 2", fmt.Sprintf("%s (jdk1.3)", sc), i)
			v2 := cell("Table 2", fmt.Sprintf("%s (jdk1.4)", sc), i)
			if v1.Bytes < 10*v2.Bytes {
				t.Errorf("%s size %d: by-copy sends %d bytes under jdk1.3, %d under jdk1.4: want at least 10 times", sc, size, v1.Bytes, v2.Bytes)
			}
		}
	}
	for i, size := range sizes {
		nop, copied := cell("Table 7 (extension)", "nop (restore)", i), cell("Table 7 (extension)", "copy (one-way)", i)
		if nop.Bytes > copied.Bytes {
			t.Errorf("size %d: a no-op restore sends %d bytes, by-copy %d", size, nop.Bytes, copied.Bytes)
		}
	}

	// Time per call: each ordering is logged, and asserted where ok is set.
	type order struct {
		slower, faster Cell
		what           string
		ok             func(ratio float64) bool
	}
	for _, sc := range Scenarios {
		for i, size := range sizes {
			label := func(jdk string) string { return fmt.Sprintf("%s (%s)", sc, jdk) }
			opt, v13 := cell("Table 5", label("jdk1.4 optimized"), i), cell("Table 5", label("jdk1.3"), i)
			orders := []order{
				{cell("Table 6", label("jdk1.4"), i), opt, "by-reference over NRMI, at least 20x", func(r float64) bool { return r >= 20 }},
				{v13, opt, "NRMI jdk1.3 over jdk1.4 optimized, above 1x", func(r float64) bool { return r > 1 }},
				{cell("Table 6", label("jdk1.3"), i), v13, "by-reference over NRMI, jdk1.3", nil},
				{cell("Table 5", label("jdk1.4 portable"), i), opt, "NRMI portable over optimized", nil},
				{opt, cell("Table 4", label("jdk1.4"), i), "NRMI over manual restore", nil},
				{cell("Table 4", label("jdk1.4"), i), cell("Table 3", label("jdk1.4"), i), "manual restore on two machines over one", nil},
				{opt, cell("Table 2", label("jdk1.4"), i), "NRMI optimized over by-copy", nil},
			}
			if size == 256 {
				orders[len(orders)-1].what += ", at most 4x"
				orders[len(orders)-1].ok = func(r float64) bool { return r <= 4 }
			}
			if sc == ScenarioI {
				orders = append(orders, order{cell("Table 7 (extension)", "nop (restore)", i), cell("Table 7 (extension)", "copy (one-way)", i), "no-op restore over by-copy", nil})
			}
			for _, o := range orders {
				r := o.slower.Millis / o.faster.Millis
				t.Logf("%s size %d: %s: %s ms against %s ms (%.3gx)", sc, size, o.what, o.slower, o.faster, r)
				if o.ok != nil && !o.ok(r) && !raceflag.Enabled {
					t.Errorf("%s size %d: %s: %.3gx", sc, size, o.what, r)
				}
			}
		}
	}
}
