package nrmi_test

import (
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
)

// TestDocsResolve: every backticked `make <target>`, repository path and
// Test/Benchmark/Fuzz name in the prose that describes the tree (README.md,
// DESIGN.md, EXPERIMENTS.md, docs/*.md; fenced blocks excluded) names
// something the tree has. CHANGES.md, ROADMAP.md and results/ are dated
// records and are not read. A deletion either updates the sentence that
// named the thing or fails here.
func TestDocsResolve(t *testing.T) {
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, "README.md", "DESIGN.md", "EXPERIMENTS.md")

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
		for _, span := range docSpan.FindAllStringSubmatch(prose, -1) {
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
