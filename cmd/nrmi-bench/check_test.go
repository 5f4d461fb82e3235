package main

import (
	"slices"
	"strings"
	"testing"

	"nrmi/internal/bench"
)

// recordedSnippet is two detail sections as results/tables.md records them,
// with the time section of one table ahead of them.
const recordedSnippet = `### Table 2: Baseline 2 — RMI Execution, without Restore (one-way traffic)

| Benchmark | 16 | 64 |
|---|---|---|
| I (jdk1.3) | 4 ms | 4 ms |

### Table 2 (bytes on wire / messages per call)

| Benchmark | 16 | 64 |
|---|---|---|
| I (jdk1.3) | 3012B / 2 | 8067B / 2 |
| I (jdk1.4) | 242B / 2 | 498B / 2 |

### Table 6 (bytes on wire / messages per call)

| Benchmark | 16 | 64 |
|---|---|---|
| III | 900B / 70 | - |
`

// TestCheckTables: -check reports exactly the bytes/messages cells that
// differ from the recorded file — an altered cell, a row the file lacks, and
// a Table 6 cell that blew its budget on one side only — and no time cell.
func TestCheckTables(t *testing.T) {
	cell := func(bytes int64, messages float64) bench.Cell {
		return bench.Cell{OK: true, Millis: 99, Bytes: bytes, Messages: messages}
	}
	run := []*bench.Table{
		{ID: "Table 2", Sizes: []int{16, 64}, Rows: []bench.TableRow{
			{Label: "I (jdk1.3)", Cells: []bench.Cell{cell(3012, 2), cell(8067, 2)}},
			{Label: "I (jdk1.4)", Cells: []bench.Cell{cell(242, 2), cell(498, 2)}},
		}},
		{ID: "Table 6", Sizes: []int{16, 64}, Rows: []bench.TableRow{
			{Label: "III", Cells: []bench.Cell{cell(900, 70), {}}},
		}},
	}
	if diffs := checkTables(run, recordedSnippet); len(diffs) != 0 {
		t.Fatalf("the recorded cells themselves: %q", diffs)
	}

	altered := strings.Replace(recordedSnippet, "| I (jdk1.4) | 242B / 2 |", "| I (jdk1.4) | 243B / 2 |", 1)
	want := []string{"Table 2, I (jdk1.4) at 16: 242B / 2, recorded 243B / 2"}
	if diffs := checkTables(run, altered); !slices.Equal(diffs, want) {
		t.Errorf("one altered cell: %q, want %q", diffs, want)
	}

	run[1].Rows[0].Cells[1] = cell(955, 71)
	want = []string{"Table 6, III at 64: 955B / 71, recorded -"}
	if diffs := checkTables(run, recordedSnippet); !slices.Equal(diffs, want) {
		t.Errorf("a '-' cell measured: %q, want %q", diffs, want)
	}
	run[1].Rows[0].Cells[0] = bench.Cell{}
	want = []string{"Table 6, III at 16: -, recorded 900B / 70", "Table 6, III at 64: 955B / 71, recorded -"}
	if diffs := checkTables(run, recordedSnippet); !slices.Equal(diffs, want) {
		t.Errorf("a measured cell blown: %q, want %q", diffs, want)
	}
	run[1].Rows[0].Cells = []bench.Cell{cell(900, 70), {}}

	run[0].Rows = append(run[0].Rows, bench.TableRow{Label: "II (jdk1.4)", Cells: []bench.Cell{cell(241, 2), {}}})
	want = []string{
		"Table 2, II (jdk1.4) at 16: 241B / 2, not recorded",
		"Table 2, II (jdk1.4) at 64: -, not recorded",
	}
	if diffs := checkTables(run, recordedSnippet); !slices.Equal(diffs, want) {
		t.Errorf("a row the file lacks: %q, want %q", diffs, want)
	}
}
