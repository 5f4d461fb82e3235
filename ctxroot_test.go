package nrmi_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// freshContextRoots returns, as "file:line: message", every
// <ctx>.Background() or <ctx>.TODO() call in the body of a function —
// declaration or literal — that has a named, non-blank <ctx>.Context
// parameter, where <ctx> is the file's name for the "context" import. Such
// a function has accepted its caller's deadline and cancellation; a fresh
// root anywhere in it is detached from that chain, however it is used. A
// nested literal is a function of its own, judged by its own parameters, so
// deliberately detached work stays expressible as
// `go func() { ... context.Background() ... }()`.
//
// The rule is syntactic, read off go/parser's tree with no type checker: it
// does not see a dot import, a type alias of context.Context, a local
// variable that shadows the import's name, or a fresh root minted by a
// helper the function calls.
func freshContextRoots(fset *token.FileSet, f *ast.File) []string {
	pkg := ""
	for _, imp := range f.Imports {
		if imp.Path.Value == `"context"` {
			pkg = "context"
			if imp.Name != nil {
				pkg = imp.Name.Name
			}
		}
	}
	if pkg == "" {
		return nil
	}
	// member returns Name when e is pkg.Name, "" otherwise.
	member := func(e ast.Expr) string {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == pkg {
				return sel.Sel.Name
			}
		}
		return ""
	}
	var found []string
	ast.Inspect(f, func(n ast.Node) bool {
		var ftype *ast.FuncType
		var body *ast.BlockStmt
		switch fn := n.(type) {
		case *ast.FuncDecl:
			ftype, body = fn.Type, fn.Body
		case *ast.FuncLit:
			ftype, body = fn.Type, fn.Body
		default:
			return true
		}
		ctx := ""
		for _, field := range ftype.Params.List {
			for _, name := range field.Names {
				if ctx == "" && name.Name != "_" && member(field.Type) == "Context" {
					ctx = name.Name
				}
			}
		}
		if body == nil || ctx == "" {
			return true
		}
		ast.Inspect(body, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok {
				return false // visited on its own by the outer walk
			}
			if call, ok := m.(*ast.CallExpr); ok {
				if name := member(call.Fun); name == "Background" || name == "TODO" {
					pos := fset.Position(call.Pos())
					found = append(found, fmt.Sprintf("%s:%d: %s.%s() in a function that receives %s",
						pos.Filename, pos.Line, pkg, name, ctx))
				}
			}
			return true
		})
		return true
	})
	return found
}

// TestNoFreshContextRoot holds every non-test Go file of the repository —
// the library, cmd/, examples/ and the benchmark/ module, skipping
// testdata, vendor and ./_-prefixed directories as the go tool does — to
// freshContextRoots, after checking the rule on fixtures: each line marked
// `// want <message>` must be flagged with exactly that message, and
// nothing else may be.
func TestNoFreshContextRoot(t *testing.T) {
	t.Run("CtxPropagation", func(t *testing.T) {
		checkCtxFixture(t, "ctxprop.go")
		checkCtxFixture(t, "renamed.go")
	})
	t.Run("CtxPropagationClean", func(t *testing.T) {
		if strings.Contains(ctxFixtures["ctxpropclean.go"], "// want") {
			t.Fatal("ctxpropclean.go must hold only Good cases")
		}
		checkCtxFixture(t, "ctxpropclean.go")
	})

	fset := token.NewFileSet()
	dirs := map[string]bool{}
	var findings, testdata []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return nil
		}
		if slices.Contains(strings.Split(filepath.ToSlash(path), "/"), "testdata") {
			testdata = append(testdata, path)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dirs[filepath.ToSlash(filepath.Dir(path))] = true
		findings = append(findings, freshContextRoots(fset, f)...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Run("RepoSelfClean", func(t *testing.T) {
		for _, finding := range findings {
			t.Errorf("%s; derive from the received context instead", finding)
		}
	})
	// A walker that strays or stops early must not pass vacuously.
	t.Run("CoversAllTrees", func(t *testing.T) {
		for _, dir := range []string{".", "cmd/nrmi-bench", "cmd/nrmi-registry", "examples/quickstart",
			"internal/rmi", "internal/transport", "benchmark"} {
			if !dirs[dir] {
				t.Errorf("no file of %s was parsed", dir)
			}
		}
	})
	t.Run("SkipsTestdata", func(t *testing.T) {
		for _, path := range testdata {
			t.Errorf("parsed a testdata file: %s", path)
		}
	})
}

// checkCtxFixture runs freshContextRoots on the named fixture and demands
// exactly the findings its want comments list.
func checkCtxFixture(t *testing.T, name string) {
	t.Helper()
	src := ctxFixtures[name]
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	want := regexp.MustCompile(`// want (.*)$`)
	var expect []string
	for i, line := range strings.Split(src, "\n") {
		if m := want.FindStringSubmatch(line); m != nil {
			expect = append(expect, fmt.Sprintf("%s:%d: %s", name, i+1, m[1]))
		}
	}
	got := freshContextRoots(fset, f)
	slices.Sort(got)
	slices.Sort(expect)
	if !slices.Equal(got, expect) {
		t.Errorf("%s: flagged\n\t%s\nwant\n\t%s", name, strings.Join(got, "\n\t"), strings.Join(expect, "\n\t"))
	}
}

// ctxFixtures are the rule's specification: every Bad case is flagged where
// its want comment says, and every Good case stays clean.
var ctxFixtures = map[string]string{
	"ctxprop.go": `package ctxprop

import (
	"context"
	"time"
)

func remote(ctx context.Context, arg string) error { return nil }

// BadDirect mints a root context inline.
func BadDirect(ctx context.Context) error {
	return remote(context.Background(), "x") // want context.Background() in a function that receives ctx
}

// BadTODO is the same bug with the other constructor.
func BadTODO(ctx context.Context) error {
	return remote(context.TODO(), "x") // want context.TODO() in a function that receives ctx
}

// BadLaundered derives a timeout from a fresh root instead of the inbound
// context: the deadline applies, the caller's cancellation does not. The
// finding is where the root is minted, not where it is used.
func BadLaundered(ctx context.Context) error {
	c, cancel := context.WithTimeout(context.Background(), time.Second) // want context.Background() in a function that receives ctx
	defer cancel()
	return remote(c, "x")
}

// BadSelect: the fresh root never reaches a call, it bounds a select.
func BadSelect(ctx context.Context, slot chan struct{}) error {
	wctx, cancel := context.WithTimeout(context.Background(), time.Second) // want context.Background() in a function that receives ctx
	defer cancel()
	select {
	case <-slot:
		return nil
	case <-wctx.Done():
		return wctx.Err()
	}
}

// BadBranch is fresh on only one path; one path is enough.
func BadBranch(parent context.Context, cond bool) error {
	c := parent
	if cond {
		c = context.Background() // want context.Background() in a function that receives parent
	}
	return remote(c, "x")
}

// BadInterceptor has nrmi.Interceptor's shape: handing next a fresh root
// severs the caller's deadline from the handler.
type CallInfo struct{ Method string }

func BadInterceptor(ctx context.Context, info CallInfo, next func(context.Context) error) error {
	return next(context.Background()) // want context.Background() in a function that receives ctx
}

// BadLitWithParam: a literal that declares its own context parameter is
// held to the same rule.
var _ = func(ctx context.Context) error {
	return remote(context.Background(), "x") // want context.Background() in a function that receives ctx
}

// GoodThreads passes the inbound context straight through.
func GoodThreads(ctx context.Context) error {
	return remote(ctx, "x")
}

// GoodDerived derives from the inbound context, preserving cancellation.
func GoodDerived(ctx context.Context) error {
	c, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	return remote(c, "x")
}

// GoodNoParam has no inbound context to thread (main, tests, accept loops).
func GoodNoParam() error {
	return remote(context.Background(), "x")
}

// GoodBlankParam discards its context by name; there is nothing to thread.
func GoodBlankParam(_ context.Context) error {
	return remote(context.Background(), "x")
}

// GoodDetachedLit: the nested literal declares no context parameter, so
// deliberately detached background work stays expressible.
func GoodDetachedLit(ctx context.Context) {
	go func() {
		_ = remote(context.Background(), "bg")
	}()
	_ = remote(ctx, "fg")
}
`,
	"ctxpropclean.go": `package ctxpropclean

import (
	"context"
	"time"
)

func remote(ctx context.Context, arg string) error { return nil }

// GoodInterceptor derives from the inbound context and hands the
// derivation to next.
func GoodInterceptor(ctx context.Context, info string, next func(context.Context) error) error {
	c, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	return next(c)
}

// GoodChain threads through several derivations.
func GoodChain(ctx context.Context) error {
	a := context.WithValue(ctx, key{}, "v")
	b, cancel := context.WithDeadline(a, time.Now().Add(time.Second))
	defer cancel()
	return remote(b, "x")
}

type key struct{}

// GoodServer has no inbound context; Background is the correct root here.
func GoodServer() error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	return remote(ctx, "serve")
}

// GoodSpawnDetached launches detached work from a literal with no context
// parameter of its own.
func GoodSpawnDetached(ctx context.Context, done chan error) {
	go func() {
		done <- remote(context.Background(), "audit")
	}()
	_ = remote(ctx, "main")
}

// GoodFanOut forwards the same inbound context to several calls.
func GoodFanOut(ctx context.Context) error {
	if err := remote(ctx, "a"); err != nil {
		return err
	}
	return remote(ctx, "b")
}
`,
	"renamed.go": `package renamed

import stdctx "context"

func remote(ctx stdctx.Context) error { return nil }

// BadRenamed: the rule follows the file's name for the context import.
func BadRenamed(ctx stdctx.Context) error {
	return remote(stdctx.TODO()) // want stdctx.TODO() in a function that receives ctx
}

// GoodRenamedNoParam has no inbound context to thread.
func GoodRenamedNoParam() error {
	return remote(stdctx.Background())
}
`,
}
