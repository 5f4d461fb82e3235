// Package lint is nrmi-vet's analysis engine: a stdlib-only static
// analyzer (go/parser, go/ast, go/types — no golang.org/x/tools) that
// moves NRMI contract violations from runtime to build time. It keeps
// only what a static tool alone can catch:
//
//   - guarded-escape: a Guarded.With closure must not leak the root
//     outside the critical section;
//   - ctx-propagation: a function receiving a context.Context contains no
//     context.Background()/TODO() call.
//
// What the runtime checks itself is not here: rmi's Export and BindStruct
// refuse a signature whose types are unregistered or hold a kind no value
// can be coded by, as rmic rejected a malformed remote interface; rmi's
// intercept holds every interceptor, chained or not, to one run of next
// on every call; the bufpool ledger every test run arms
// (internal/leakcheck) asserts pooled-payload ownership, the
// released-state tests next to each pool their resets, and sync/atomic's
// typed values the atomics. docs/LINT.md has the table.
//
// Each check has a stable ID usable with nrmi-vet's -checks flag, and a
// testdata package under testdata/src exercising it. Both are syntactic:
// an AST walk plus type information.
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// Diagnostic is one finding, positioned for file:line reporting.
type Diagnostic struct {
	// Pos locates the offending syntax.
	Pos token.Position
	// Check is the stable check ID that produced the finding.
	Check string
	// Message describes the violation and its runtime consequence.
	Message string
}

// String formats the diagnostic in the conventional path:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Check)
}

// Check is one registered analysis.
type Check struct {
	// ID is the stable identifier (e.g. "guarded-escape").
	ID string
	// Doc is a one-line description for -list output.
	Doc string
	// Run analyzes one type-checked package.
	Run func(p *Package) []Diagnostic
}

// Checks returns the full catalog in reporting order.
func Checks() []Check {
	return []Check{
		{
			ID:  "guarded-escape",
			Doc: "Guarded.With closures must not leak the root outside the critical section",
			Run: checkGuardedEscape,
		},
		{
			ID:  "ctx-propagation",
			Doc: "a function receiving a context contains no context.Background()/TODO() call",
			Run: checkCtxPropagation,
		},
	}
}

// Run applies the enabled checks to every package and returns the
// combined findings sorted by position. A nil or empty enable set runs
// everything.
func Run(pkgs []*Package, enabled map[string]bool) []Diagnostic {
	var diags []Diagnostic
	for _, c := range Checks() {
		if len(enabled) > 0 && !enabled[c.ID] {
			continue
		}
		for _, p := range pkgs {
			diags = append(diags, c.Run(p)...)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
	return diags
}
