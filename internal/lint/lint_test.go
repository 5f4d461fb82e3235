package lint

import (
	"fmt"
	"go/ast"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts the quoted regular expressions of a `// want` comment.
var wantRe = regexp.MustCompile("`([^`]+)`")

// loadTestdata type-checks one testdata package.
func loadTestdata(t *testing.T, pkg string) *Package {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	p, err := loader.LoadDir(filepath.Join("testdata", "src", pkg))
	if err != nil {
		t.Fatal(err)
	}
	for _, terr := range p.TypeErrors {
		t.Errorf("testdata must type-check: %v", terr)
	}
	return p
}

// expectations collects the want regexps per file:line.
func expectations(t *testing.T, p *Package) map[string][]*regexp.Regexp {
	t.Helper()
	wants := make(map[string][]*regexp.Regexp)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, m := range wantRe.FindAllStringSubmatch(text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", key, m[1], err)
					}
					wants[key] = append(wants[key], re)
				}
			}
		}
	}
	return wants
}

// runCheckTest runs one check over a testdata package and matches the
// diagnostics against the package's want comments, both ways.
func runCheckTest(t *testing.T, checkID, pkg string) {
	t.Helper()
	p := loadTestdata(t, pkg)
	var check *Check
	for _, c := range Checks() {
		if c.ID == checkID {
			check = &c
			break
		}
	}
	if check == nil {
		t.Fatalf("unknown check %q", checkID)
	}
	diags := Run([]*Package{p}, map[string]bool{checkID: true})
	if len(diags) == 0 {
		t.Fatalf("check %s produced no findings on testdata/%s", checkID, pkg)
	}
	wants := expectations(t, p)
	matched := make(map[string]int)
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		res := wants[key]
		found := false
		for _, re := range res {
			if re.MatchString(d.Message) {
				found = true
				matched[key]++
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, res := range wants {
		if matched[key] < len(res) {
			t.Errorf("%s: expected %d diagnostic(s), matched %d", key, len(res), matched[key])
		}
	}
}

// runCleanTest runs one check over a clean-twin package and demands
// zero findings: the twin holds the idioms the check must not flag.
func runCleanTest(t *testing.T, checkID, pkg string) {
	t.Helper()
	p := loadTestdata(t, pkg)
	for _, d := range Run([]*Package{p}, map[string]bool{checkID: true}) {
		t.Errorf("clean twin %s has finding: %s", pkg, d)
	}
}

func TestGuardedEscape(t *testing.T)  { runCheckTest(t, "guarded-escape", "guarded") }
func TestCtxPropagation(t *testing.T) { runCheckTest(t, "ctx-propagation", "ctxprop") }

func TestCtxPropagationClean(t *testing.T) { runCleanTest(t, "ctx-propagation", "ctxpropclean") }

// TestExpandSkipsTestdata verifies pattern expansion mirrors the go
// tool: testdata and hidden directories never join a ./... walk.
func TestExpandSkipsTestdata(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := Expand(loader.ModRoot(), []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no packages found from module root")
	}
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("testdata directory leaked into expansion: %s", d)
		}
	}
}

// TestRepoSelfClean runs every check over the repository's own packages:
// the codebase must satisfy its own linter (the make lint contract).
func TestRepoSelfClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-repo type-check is slow; run without -short")
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := Expand(loader.ModRoot(), []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, dir := range dirs {
		p, err := loader.LoadDir(dir)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, terr := range p.TypeErrors {
			t.Errorf("%s: type error: %v", dir, terr)
		}
		pkgs = append(pkgs, p)
	}
	for _, d := range Run(pkgs, nil) {
		t.Errorf("repository is not self-clean: %s", d)
	}
}

// TestLintCoversAllTrees audits the default ./... expansion from the
// module root: the self-clean run (and make lint) must see the command
// and example trees, not just the library — and must never see a
// testdata package, whose // want fixtures are violations by design.
func TestLintCoversAllTrees(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	root := loader.ModRoot()
	dirs, err := Expand(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]bool, len(dirs))
	for _, d := range dirs {
		rel, err := filepath.Rel(root, d)
		if err != nil {
			t.Fatal(err)
		}
		got[filepath.ToSlash(rel)] = true
		if strings.Contains(rel, "testdata") {
			t.Errorf("testdata package leaked into the default run: %s", rel)
		}
	}
	for _, want := range []string{
		".",
		"cmd/nrmi-vet",
		"examples/quickstart",
		"internal/lint",
		"internal/transport",
		"internal/rmi",
		"internal/obs",
	} {
		if !got[want] {
			t.Errorf("default lint expansion misses %s", want)
		}
	}
}

// TestDiagnosticString pins the reporting format consumed by editors.
func TestDiagnosticString(t *testing.T) {
	p := loadTestdata(t, "guarded")
	diags := Run([]*Package{p}, map[string]bool{"guarded-escape": true})
	if len(diags) == 0 {
		t.Fatal("no diagnostics")
	}
	s := diags[0].String()
	if !strings.Contains(s, ".go:") || !strings.HasSuffix(s, "[guarded-escape]") {
		t.Errorf("diagnostic format = %q", s)
	}
	var f *ast.File = p.Files[0]
	if f.Name.Name != "guarded" {
		t.Errorf("package name = %s", f.Name.Name)
	}
}
