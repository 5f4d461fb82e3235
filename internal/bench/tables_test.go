package bench

import (
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
