package bench

import (
	"fmt"
	"strings"
)

// Table is one reproduced paper table: labeled rows of per-size cells.
type Table struct {
	// ID is the paper's table number, e.g. "Table 5".
	ID string
	// Title is the paper's caption.
	Title string
	// Sizes are the tree sizes heading the columns.
	Sizes []int
	// Rows are the measured configurations.
	Rows []TableRow
	// Notes carries free-form remarks rendered under the table.
	Notes []string
}

// TableRow is one labeled row of cells.
type TableRow struct {
	// Label names the configuration (scenario and engine).
	Label string
	// Cells align with the table's Sizes.
	Cells []Cell
}

// Format renders the table as aligned text, in the paper's layout:
// scenarios down, tree sizes across, milliseconds per call in the cells.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", t.ID, t.Title)
	labelW := len("Benchmark")
	for _, r := range t.Rows {
		if len(r.Label) > labelW {
			labelW = len(r.Label)
		}
	}
	colW := 9
	fmt.Fprintf(&b, "%-*s", labelW+2, "Benchmark")
	for _, s := range t.Sizes {
		fmt.Fprintf(&b, "%*d", colW, s)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", labelW+2+colW*len(t.Sizes)))
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", labelW+2, r.Label)
		for _, c := range r.Cells {
			fmt.Fprintf(&b, "%*s", colW, c.String())
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavored markdown table with the
// byte and message counts that the paper's hardware-bound milliseconds
// cannot capture.
func (t *Table) Markdown() string {
	var b strings.Builder
	t.markdown(&b, t.ID+": "+t.Title, func(c Cell) string { return c.String() + " ms" })
	if len(t.Notes) > 0 {
		b.WriteByte('\n')
		for _, n := range t.Notes {
			fmt.Fprintf(&b, "*%s*\n", n)
		}
	}
	b.WriteByte('\n')
	return b.String()
}

// DetailMarkdown renders the per-cell byte/message counts, the
// hardware-independent observables EXPERIMENTS.md compares.
func (t *Table) DetailMarkdown() string {
	var b strings.Builder
	t.markdown(&b, t.ID+" (bytes on wire / messages per call)", func(c Cell) string {
		return fmt.Sprintf("%dB / %.0f", c.Bytes, c.Messages)
	})
	b.WriteByte('\n')
	return b.String()
}

// markdown writes the table's grid under heading, each cell as text
// renders it and a blown one as "-".
func (t *Table) markdown(b *strings.Builder, heading string, text func(Cell) string) {
	fmt.Fprintf(b, "### %s\n\n| Benchmark |", heading)
	for _, s := range t.Sizes {
		fmt.Fprintf(b, " %d |", s)
	}
	b.WriteString("\n|---|" + strings.Repeat("---|", len(t.Sizes)) + "\n")
	for _, r := range t.Rows {
		fmt.Fprintf(b, "| %s |", r.Label)
		for _, c := range r.Cells {
			if !c.OK {
				b.WriteString(" - |")
				continue
			}
			fmt.Fprintf(b, " %s |", text(c))
		}
		b.WriteByte('\n')
	}
}
