// Command nrmi-vet is the NRMI static analyzer: it type-checks the
// named package trees (stdlib only — go/parser, go/ast, go/types) and
// reports violations of the copy-restore programming model that would
// otherwise surface at runtime, deep inside a remote call.
//
// Usage:
//
//	nrmi-vet [-checks id,id] [-list] [packages]
//
// Packages follow the go tool's pattern syntax relative to the current
// directory ("./...", "./internal/rmi"); the default is "./...". Every
// check ID is stable and documented in docs/LINT.md.
//
// Findings are printed one per line as path:line:col: message [check-id].
// The exit status is 0 when clean, 1 when findings are reported, and 2
// on usage or load errors, so `nrmi-vet ./...` gates CI the way
// `go vet ./...` does. There is no suppression comment and no baseline:
// a finding is fixed, or its check is left out with -checks.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"nrmi/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("nrmi-vet", flag.ContinueOnError)
	checksFlag := fs.String("checks", "", "comma-separated check IDs to run (default: all)")
	list := fs.Bool("list", false, "list available checks and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, c := range lint.Checks() {
			fmt.Printf("%-24s %s\n", c.ID, c.Doc)
		}
		return 0
	}

	enabled := make(map[string]bool)
	if *checksFlag != "" {
		known := make(map[string]bool)
		for _, c := range lint.Checks() {
			known[c.ID] = true
		}
		for _, id := range strings.Split(*checksFlag, ",") {
			id = strings.TrimSpace(id)
			if !known[id] {
				fmt.Fprintf(os.Stderr, "nrmi-vet: unknown check %q (see -list)\n", id)
				return 2
			}
			enabled[id] = true
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "nrmi-vet:", err)
		return 2
	}
	dirs, err := lint.Expand(cwd, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nrmi-vet:", err)
		return 2
	}
	if len(dirs) == 0 {
		fmt.Fprintln(os.Stderr, "nrmi-vet: no packages match", strings.Join(patterns, " "))
		return 2
	}

	loader, err := lint.NewLoader(dirs[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "nrmi-vet:", err)
		return 2
	}
	var pkgs []*lint.Package
	loadFailed := false
	for _, dir := range dirs {
		p, err := loader.LoadDir(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nrmi-vet:", err)
			loadFailed = true
			continue
		}
		for _, terr := range p.TypeErrors {
			fmt.Fprintf(os.Stderr, "nrmi-vet: %v [typecheck]\n", terr)
			loadFailed = true
		}
		pkgs = append(pkgs, p)
	}
	if loadFailed {
		return 2
	}

	diags := lint.Run(pkgs, enabled)
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "nrmi-vet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
