package nrmi_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	docFence    = regexp.MustCompile("(?ms)^```.*?^```")
	docSpan     = regexp.MustCompile("`([^`\n]+)`")
	docMake     = regexp.MustCompile(`\bmake((?: +[a-z][a-z0-9-]*)+)`)
	docTestName = regexp.MustCompile(`^(?:Test|Benchmark|Fuzz)[A-Z0-9]\w*\*?$`)
	docPath     = regexp.MustCompile(`^[\w.{},*-]+(?:/[\w.{},*-]+)*/?$`)
	docFileExt  = regexp.MustCompile(`\.(?:go|md|json|sh|yml|txt|mod)$`)
	docBraces   = regexp.MustCompile(`\{([^{}]*)\}`)
	makeTarget  = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`)
	testFunc    = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w+)\(`)
	// docIdent is `pkg.Name`, `pkg.Name.Member` or `(*pkg.Name).Member`,
	// exported names only, an optional trailing * for a prefix.
	docIdent  = regexp.MustCompile(`\b([a-z]\w*)\.([A-Z]\w*)\)?(?:\.([A-Z]\w*))?(\*?)`)
	openItems = regexp.MustCompile(`(?ms)^## Open items$.*?^## `)
)

// surface is a package's exported names as "Name" and "Type.Member" keys
// (fields, methods, interface methods), plus its aliases `type A = pkg.B` as
// "A" -> "pkg.B".
type surface struct {
	names   map[string]bool
	aliases map[string]string
}

// exportedNames parses the non-test files of dir.
func exportedNames(t *testing.T, dir string) surface {
	t.Helper()
	names, aliases := map[string]bool{}, map[string]string{}
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if d.Recv != nil && len(d.Recv.List) == 1 {
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok {
						name = id.Name + "." + name
					}
				}
				names[name] = true
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.ValueSpec:
						for _, id := range sp.Names {
							names[id.Name] = true
						}
					case *ast.TypeSpec:
						names[sp.Name.Name] = true
						var members *ast.FieldList
						switch ty := sp.Type.(type) {
						case *ast.StructType:
							members = ty.Fields
						case *ast.InterfaceType:
							members = ty.Methods
						case *ast.SelectorExpr:
							if pkg, ok := ty.X.(*ast.Ident); ok {
								aliases[sp.Name.Name] = pkg.Name + "." + ty.Sel.Name
							}
						}
						if members != nil {
							for _, field := range members.List {
								for _, id := range field.Names {
									names[sp.Name.Name+"."+id.Name] = true
								}
							}
						}
					}
				}
			}
		}
	}
	return surface{names, aliases}
}

// TestDocsResolve: every backticked `make <target>`, repository path,
// Test/Benchmark/Fuzz name and exported `pkg.Name` of a package of this
// module in the prose that describes the tree (README.md, DESIGN.md,
// EXPERIMENTS.md, docs/*.md; fenced blocks excluded) names something the
// tree has. ROADMAP.md's Open items also name what is planned or gone, and
// are held to the `pkg.Name` rule alone. CHANGES.md, the rest of ROADMAP.md
// and results/ are dated records and are not read. A deletion either updates
// the sentence that named the thing or fails here.
func TestDocsResolve(t *testing.T) {
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, "README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md")

	pkgs := map[string]surface{"nrmi": exportedNames(t, ".")}
	dirs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range append(dirs, "containers") {
		pkgs[filepath.Base(dir)] = exportedNames(t, dir)
	}
	// hasIdent resolves pkg.name[.member], through `type A = pkg.B` aliases;
	// a package that is not this module's (time.Duration) resolves.
	hasIdent := func(pkg, name, member string, prefix bool) bool {
		for {
			p, ours := pkgs[pkg]
			if !ours {
				return true
			}
			key := strings.TrimSuffix(name+"."+member, ".")
			if p.names[key] {
				return true
			}
			for have := range p.names {
				if prefix && strings.HasPrefix(have, key) {
					return true
				}
			}
			alias, ok := p.aliases[name]
			if !ok {
				return false
			}
			pkg, name, _ = strings.Cut(alias, ".")
		}
	}

	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeTarget.FindAllSubmatch(mk, -1) {
		targets[string(m[1])] = true
	}
	var tests []string
	topLevel := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") && d.Name() != ".github" {
				return filepath.SkipDir
			}
			if !strings.Contains(path, "/") {
				topLevel[path] = true
			}
			return nil
		}
		if strings.HasSuffix(path, "_test.go") {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range testFunc.FindAllSubmatch(src, -1) {
				tests = append(tests, string(m[1]))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	hasTest := func(name string) bool {
		prefix := strings.TrimSuffix(name, "*")
		for _, have := range tests {
			if have == name || (prefix != name && strings.HasPrefix(have, prefix)) {
				return true
			}
		}
		return false
	}
	// A path may be written from the root, from internal/ (`rmi/server.go`)
	// or as an import path (`nrmi/containers`), with {a,b} and * spelled out.
	hasPath := func(p string) bool {
		alts := []string{p}
		for docBraces.MatchString(alts[0]) {
			var next []string
			for _, a := range alts {
				loc := docBraces.FindStringSubmatchIndex(a)
				for _, opt := range strings.Split(a[loc[2]:loc[3]], ",") {
					next = append(next, a[:loc[0]]+opt+a[loc[1]:])
				}
			}
			alts = next
		}
	next:
		for _, a := range alts {
			for _, root := range []string{a, "internal/" + a, strings.TrimPrefix(a, "nrmi/")} {
				if m, _ := filepath.Glob(strings.TrimSuffix(root, "/")); len(m) > 0 {
					continue next
				}
			}
			return false
		}
		return true
	}

	for _, doc := range docs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		prose := docFence.ReplaceAllString(string(raw), "")
		if doc == "ROADMAP.md" {
			prose = openItems.FindString(prose)
		}
		for _, span := range docSpan.FindAllStringSubmatch(prose, -1) {
			for _, m := range docIdent.FindAllStringSubmatch(span[1], -1) {
				if !hasIdent(m[1], m[2], m[3], m[4] != "") {
					t.Errorf("%s: `%s`: package %s exports no %s", doc, span[1], m[1], strings.TrimSuffix(m[2]+"."+m[3], "."))
				}
			}
			if doc == "ROADMAP.md" {
				continue
			}
			for _, m := range docMake.FindAllStringSubmatch(span[1], -1) {
				for _, target := range strings.Fields(m[1]) {
					if !targets[target] {
						t.Errorf("%s: `%s`: the Makefile has no target %q", doc, span[1], target)
					}
				}
			}
			for _, word := range strings.FieldsFunc(span[1], func(r rune) bool { return r == ' ' || r == '|' || r == '(' || r == ')' }) {
				if strings.Contains(word, "...") {
					continue
				}
				word = strings.TrimRight(word, ".,;:")
				name, _, _ := strings.Cut(word, "/")
				if docTestName.MatchString(name) {
					if !hasTest(name) {
						t.Errorf("%s: `%s`: no test function %s in the tree", doc, span[1], name)
					}
					continue
				}
				p := strings.TrimPrefix(word, "./")
				if !docPath.MatchString(p) || !strings.Contains(p, "/") {
					continue
				}
				first, _, _ := strings.Cut(p, "/")
				if strings.HasSuffix(p, "/") || docFileExt.MatchString(p) || strings.HasPrefix(word, "./") || topLevel[first] {
					if !hasPath(p) {
						t.Errorf("%s: `%s`: no %s in the tree", doc, span[1], p)
					}
				}
			}
		}
	}
}

// TestAllocTestsListRaceGatedTests: the Makefile's ALLOC_TESTS, which
// `make ci` runs without -race after its race pass, names exactly the tests
// that read raceflag.Enabled, themselves or through a helper of their
// package, and ALLOC_PKGS holds each one's package: a new allocation budget
// that -race skips cannot drop out of the gate.
func TestAllocTestsListRaceGatedTests(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	listed := regexp.MustCompile(`(?m)^ALLOC_TESTS := (.*)$`).FindSubmatch(mk)
	pkgs := regexp.MustCompile(`(?m)^ALLOC_PKGS := (.*)$`).FindSubmatch(mk)
	if listed == nil || pkgs == nil {
		t.Fatal("the Makefile sets no ALLOC_TESTS or ALLOC_PKGS")
	}
	want := map[string]bool{}
	for _, name := range strings.Split(string(listed[1]), "|") {
		want[name] = true
	}
	// Per package directory: what each function calls, and which read the flag.
	type fn struct {
		calls []string
		reads bool
	}
	byDir := map[string]map[string]*fn{}
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		if byDir[dir] == nil {
			byDir[dir] = map[string]*fn{}
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || fd.Body == nil {
				continue
			}
			info := &fn{}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.SelectorExpr:
					if id, ok := x.X.(*ast.Ident); ok && id.Name == "raceflag" && x.Sel.Name == "Enabled" {
						info.reads = true
					}
				case *ast.CallExpr:
					if id, ok := x.Fun.(*ast.Ident); ok {
						info.calls = append(info.calls, id.Name)
					}
				}
				return true
			})
			byDir[dir][fd.Name.Name] = info
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for dir, fns := range byDir {
		for changed := true; changed; {
			changed = false
			for _, f := range fns {
				for _, c := range f.calls {
					if callee := fns[c]; !f.reads && callee != nil && callee.reads {
						f.reads, changed = true, true
					}
				}
			}
		}
		for name, f := range fns {
			if !f.reads || !strings.HasPrefix(name, "Test") {
				continue
			}
			if !want[name] {
				t.Errorf("%s (%s) reads raceflag.Enabled but is not in ALLOC_TESTS", name, dir)
			}
			if !strings.Contains(" "+string(pkgs[1])+" ", " ./"+dir+" ") {
				t.Errorf("%s's package ./%s is not in ALLOC_PKGS", name, dir)
			}
			delete(want, name)
		}
	}
	for name := range want {
		t.Errorf("ALLOC_TESTS lists %s, which does not read raceflag.Enabled", name)
	}
}
