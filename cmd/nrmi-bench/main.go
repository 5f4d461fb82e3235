// Command nrmi-bench regenerates the paper's evaluation (Section 5.3):
// Tables 1–6 plus the restore-vs-copy extension table, on the paper's
// two-machine testbed: each cell's median wall time over an unshaped
// in-process link, plus the modeled LAN's time for the cell's messages and
// bytes and the slower server machine's extra CPU. Absolute milliseconds
// depend on the host; the shapes (who wins, by what factor, where the
// crossovers fall) are what EXPERIMENTS.md compares against the paper.
//
// Usage:
//
//	nrmi-bench [-sizes 16,64,256,1024] [-iters 5] [-seed 1] [-verify]
//	           [-md] [-details] [-loc] [-quiet]
//	           [-check results/tables.md]
//
// -check FILE compares every bytes/messages cell of Tables 1–7 at the run's
// sizes with FILE (as -md -details writes it), prints each cell that differs,
// and exits non-zero if any does.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"nrmi/internal/bench"
)

func main() {
	var (
		sizesFlag = flag.String("sizes", "16,64,256,1024", "comma-separated tree sizes")
		iters     = flag.Int("iters", 5, "iterations per cell (a cell takes their median)")
		seed      = flag.Int64("seed", 1, "base seed for workload generation")
		verify    = flag.Bool("verify", false, "verify the restore invariant on each cell's first iteration")
		md        = flag.Bool("md", false, "emit markdown instead of aligned text")
		details   = flag.Bool("details", false, "also emit per-cell bytes/messages (markdown)")
		loc       = flag.Bool("loc", false, "print the manual-restore lines-of-code report and exit")
		quiet     = flag.Bool("quiet", false, "suppress progress lines")
		table     = flag.String("table", "", "only print tables whose id contains this substring (e.g. 5); all tables still run")
		check     = flag.String("check", "", "recorded tables (markdown) the bytes/messages cells of Tables 1-7 must equal")
	)
	flag.Parse()

	if *loc {
		report, err := bench.CountManualLoC()
		if err != nil {
			log.Fatalf("nrmi-bench: %v", err)
		}
		fmt.Print(report)
		return
	}

	sizes, err := parseSizes(*sizesFlag)
	if err != nil {
		log.Fatalf("nrmi-bench: %v", err)
	}
	var recorded []byte
	if *check != "" {
		if recorded, err = os.ReadFile(*check); err != nil {
			log.Fatalf("nrmi-bench: %v", err)
		}
	}
	cfg := bench.HarnessConfig{
		Sizes:      sizes,
		Iterations: *iters,
		Seed:       *seed,
		Verify:     *verify,
	}
	if !*quiet {
		cfg.Log = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}

	start := time.Now()
	tables, err := bench.RunAll(cfg)
	if err != nil {
		log.Fatalf("nrmi-bench: %v", err)
	}
	for _, t := range tables {
		if *table != "" && !strings.Contains(t.ID, *table) {
			continue
		}
		if *md {
			fmt.Print(t.Markdown())
			if *details {
				fmt.Print(t.DetailMarkdown())
			}
		} else {
			fmt.Println(t.Format())
		}
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "total run time: %s\n", time.Since(start).Round(time.Millisecond))
	}
	if *check != "" {
		diffs := checkTables(tables, string(recorded))
		for _, d := range diffs {
			fmt.Fprintln(os.Stderr, "nrmi-bench: -check:", d)
		}
		if len(diffs) > 0 {
			log.Fatalf("nrmi-bench: %d cells differ from %s", len(diffs), *check)
		}
	}
}

func parseSizes(s string) ([]int, error) {
	var sizes []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad size %q", part)
		}
		sizes = append(sizes, n)
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("no sizes given")
	}
	return sizes, nil
}
