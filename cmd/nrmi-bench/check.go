package main

import (
	"fmt"
	"strconv"
	"strings"

	"nrmi/internal/bench"
)

// detailSuffix ends the heading of a table's bytes/messages section.
const detailSuffix = " (bytes on wire / messages per call)"

// checkTables compares every bytes/messages cell of a run, at the run's
// sizes, against the detail sections of recorded (markdown as -md -details
// prints it), and returns one line per cell that differs or that recorded
// lacks. A "-" cell compares as its text; time cells are not compared.
func checkTables(run []*bench.Table, recorded string) []string {
	want := parseDetails(recorded)
	var diffs []string
	for _, t := range run {
		got := parseDetails(t.DetailMarkdown())[t.ID]
		for _, r := range t.Rows {
			for _, size := range t.Sizes {
				at := fmt.Sprintf("%s, %s at %d: %s", t.ID, r.Label, size, got[r.Label][size])
				switch w, ok := want[t.ID][r.Label][size]; {
				case !ok:
					diffs = append(diffs, at+", not recorded")
				case w != got[r.Label][size]:
					diffs = append(diffs, at+", recorded "+w)
				}
			}
		}
	}
	return diffs
}

// parseDetails reads the detail sections of md into table ID → row label →
// size → cell text.
func parseDetails(md string) map[string]map[string]map[int]string {
	tables := make(map[string]map[string]map[int]string)
	var rows map[string]map[int]string
	var sizes []int
	for _, line := range strings.Split(md, "\n") {
		if id, ok := strings.CutPrefix(line, "### "); ok {
			rows, sizes = nil, nil
			if id, ok = strings.CutSuffix(id, detailSuffix); ok {
				rows = make(map[string]map[int]string)
				tables[id] = rows
			}
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if rows == nil || !strings.HasPrefix(line, "|") || len(cells) < 2 {
			continue
		}
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		switch {
		case cells[0] == "Benchmark":
			sizes = sizes[:0]
			for _, c := range cells[1:] {
				n, _ := strconv.Atoi(c) // a heading that is no size matches no cell
				sizes = append(sizes, n)
			}
		case strings.HasPrefix(cells[0], "---"):
		default:
			row := make(map[int]string)
			for i, c := range cells[1:] {
				if i < len(sizes) {
					row[sizes[i]] = c
				}
			}
			rows[cells[0]] = row
		}
	}
	return tables
}
