package bench

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"nrmi/internal/netsim"
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
	for _, want := range []string{"Table X", "16", "64", "<1", "13", "-", "a note"} {
		if !strings.Contains(text, want) {
			t.Errorf("Format missing %q in:\n%s", want, text)
		}
	}
	md := tbl.Markdown()
	for _, want := range []string{"### Table X", "| I (jdk1.4) |", "<1 ms", "| - |"} {
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
		LAN:         netsim.Profile{Latency: 50 * time.Microsecond, Bandwidth: 12_500_000},
		SlowFactor:  1.7,
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
// none did. The simulated network and the slow host are shortened to keep
// the two runs short.
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
			LAN:         netsim.Profile{Latency: time.Microsecond},
			SlowFactor:  1,
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
	blown, clean := table7(time.Millisecond, true), table7(time.Minute, false)
	if blown != clean {
		t.Errorf("Table 7 after blown Table 6 cells:\n%s\nafter none blew:\n%s", blown, clean)
	}
}

// TestPaperVerdict pins the paper's verdict on the tables' deterministic
// columns, bytes and messages per call, at the smallest size and at the
// headline one: NRMI is one request and one reply carrying no more than
// manual restore does, remote pointers cost orders of magnitude more
// messages, the JDK 1.3 stand-in ships an order of magnitude more bytes than
// the JDK 1.4 one, and a restore the method leaves alone costs no more than
// by-copy. Only the simulated network's timing is shortened; it moves no
// byte.
func TestPaperVerdict(t *testing.T) {
	tables, err := RunAll(HarnessConfig{
		Sizes:      []int{16, 256},
		Iterations: 1,
		Seed:       1,
		LAN:        netsim.Profile{Latency: time.Microsecond},
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
}
