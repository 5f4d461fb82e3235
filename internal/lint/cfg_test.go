package lint

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"strings"
	"testing"
)

// The CFG tests are purely syntactic: BuildCFG needs no type
// information, so bodies are parsed in isolation and may reference
// undeclared identifiers.

func buildTestCFG(t *testing.T, body string) (*CFG, *token.FileSet) {
	t.Helper()
	src := "package p\n\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "cfg_test_input.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fn := file.Decls[0].(*ast.FuncDecl)
	return BuildCFG(fn.Body), fset
}

func nodeText(fset *token.FileSet, n ast.Node) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, n); err != nil {
		return ""
	}
	return buf.String()
}

// blockWith returns the first block containing a node whose printed
// form contains substr.
func blockWith(t *testing.T, g *CFG, fset *token.FileSet, substr string) *Block {
	t.Helper()
	for _, blk := range g.Blocks {
		for _, n := range blk.Nodes {
			if strings.Contains(nodeText(fset, n), substr) {
				return blk
			}
		}
	}
	t.Fatalf("no block contains %q", substr)
	return nil
}

// pathExists reports whether to is reachable from from along edges.
func pathExists(from, to *Block) bool {
	seen := make(map[*Block]bool)
	stack := []*Block{from}
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if blk == to {
			return true
		}
		if seen[blk] {
			continue
		}
		seen[blk] = true
		for _, e := range blk.Succs {
			stack = append(stack, e.To)
		}
	}
	return false
}

func directEdge(from, to *Block) *Edge {
	for _, e := range from.Succs {
		if e.To == to {
			return e
		}
	}
	return nil
}

// TestCFGShapes drives BuildCFG over the statement forms the checks
// depend on and asserts the structural properties each one guarantees.
func TestCFGShapes(t *testing.T) {
	tests := []struct {
		name   string
		body   string
		verify func(t *testing.T, g *CFG, fset *token.FileSet)
	}{
		{
			name: "linear",
			body: `a()
b()`,
			verify: func(t *testing.T, g *CFG, fset *token.FileSet) {
				if len(g.Entry.Nodes) != 2 {
					t.Fatalf("entry nodes = %d, want 2", len(g.Entry.Nodes))
				}
				if directEdge(g.Entry, g.Exit) == nil {
					t.Fatal("no direct entry->exit edge")
				}
			},
		},
		{
			name: "if guards both edges",
			body: `if cond() {
	a()
} else {
	b()
}
c()`,
			verify: func(t *testing.T, g *CFG, fset *token.FileSet) {
				cond := blockWith(t, g, fset, "cond()")
				then := blockWith(t, g, fset, "a()")
				els := blockWith(t, g, fset, "b()")
				et, ee := directEdge(cond, then), directEdge(cond, els)
				if et == nil || ee == nil {
					t.Fatal("condition block missing branch edges")
				}
				if et.Cond == nil || et.Negated {
					t.Fatalf("then edge = %+v, want guarded non-negated", et)
				}
				if ee.Cond == nil || !ee.Negated {
					t.Fatalf("else edge = %+v, want guarded negated", ee)
				}
				after := blockWith(t, g, fset, "c()")
				if !pathExists(then, after) || !pathExists(els, after) {
					t.Fatal("branches do not rejoin before c()")
				}
			},
		},
		{
			name: "early return skips the rest",
			body: `if cond() {
	return
}
tail()`,
			verify: func(t *testing.T, g *CFG, fset *token.FileSet) {
				ret := blockWith(t, g, fset, "return")
				if directEdge(ret, g.Exit) == nil {
					t.Fatal("return block has no edge to exit")
				}
				tail := blockWith(t, g, fset, "tail()")
				if pathExists(ret, tail) {
					t.Fatal("path from return to tail must not exist")
				}
				if !pathExists(g.Entry, tail) {
					t.Fatal("tail unreachable from entry")
				}
			},
		},
		{
			name: "for loop back edge through post",
			body: `for i := 0; i < n; i++ {
	body()
}
after()`,
			verify: func(t *testing.T, g *CFG, fset *token.FileSet) {
				head := blockWith(t, g, fset, "i < n")
				body := blockWith(t, g, fset, "body()")
				post := blockWith(t, g, fset, "i++")
				after := blockWith(t, g, fset, "after()")
				if e := directEdge(body, post); e == nil {
					t.Fatal("body does not flow to post")
				}
				if e := directEdge(post, head); e == nil {
					t.Fatal("post does not loop back to head")
				}
				e := directEdge(head, after)
				if e == nil || e.Cond == nil || !e.Negated {
					t.Fatalf("head->after edge = %+v, want negated guard", e)
				}
			},
		},
		{
			name: "break and continue",
			body: `for {
	if a() {
		break
	}
	if b() {
		continue
	}
	c()
}
after()`,
			verify: func(t *testing.T, g *CFG, fset *token.FileSet) {
				brk := blockWith(t, g, fset, "a()") // condition before break
				cnt := blockWith(t, g, fset, "b()") // condition before continue
				after := blockWith(t, g, fset, "after()")
				c := blockWith(t, g, fset, "c()")
				if !pathExists(brk, after) {
					t.Fatal("break does not reach code after the loop")
				}
				if !pathExists(cnt, c) {
					// continue jumps to the head, which re-enters the body
					t.Fatal("continue does not re-enter the loop")
				}
			},
		},
		{
			name: "labeled break exits the outer loop",
			body: `outer:
for {
	for {
		if done() {
			break outer
		}
		inner()
	}
}
after()`,
			verify: func(t *testing.T, g *CFG, fset *token.FileSet) {
				done := blockWith(t, g, fset, "done()")
				after := blockWith(t, g, fset, "after()")
				if !pathExists(done, after) {
					t.Fatal("labeled break does not reach after()")
				}
				// An unlabeled break would land in the inner join, which
				// loops forever in the outer for: after() must not be
				// reachable without passing the labeled break edge. The
				// inner() block must not reach after at all.
				inner := blockWith(t, g, fset, "inner()")
				for _, e := range inner.Succs {
					if e.To == after {
						t.Fatal("inner body must not flow directly to after()")
					}
				}
			},
		},
		{
			name: "switch with fallthrough and default",
			body: `switch tag() {
case 1:
	one()
	fallthrough
case 2:
	two()
default:
	dflt()
}
after()`,
			verify: func(t *testing.T, g *CFG, fset *token.FileSet) {
				one := blockWith(t, g, fset, "one()")
				two := blockWith(t, g, fset, "two()")
				if directEdge(one, two) == nil {
					t.Fatal("fallthrough edge from case 1 to case 2 missing")
				}
				header := blockWith(t, g, fset, "tag()")
				after := blockWith(t, g, fset, "after()")
				// With a default clause, the header must not skip straight
				// to the join.
				if directEdge(header, after) != nil {
					t.Fatal("switch with default must not have header->join edge")
				}
				dflt := blockWith(t, g, fset, "dflt()")
				if !pathExists(dflt, after) {
					t.Fatal("default clause does not rejoin")
				}
			},
		},
		{
			name: "switch without default can skip all cases",
			body: `switch x {
case 1:
	one()
}
after()`,
			verify: func(t *testing.T, g *CFG, fset *token.FileSet) {
				// Header block is the entry (x is its node).
				after := blockWith(t, g, fset, "after()")
				one := blockWith(t, g, fset, "one()")
				var header *Block
				for _, e := range after.Preds {
					if e.From != one && e.From.Kind != "switch.case" {
						header = e.From
					}
				}
				_ = header
				if !pathExists(g.Entry, after) {
					t.Fatal("after unreachable")
				}
				// There must be a path to after() that avoids one().
				if len(after.Preds) < 2 {
					t.Fatalf("join preds = %d, want >= 2 (case + skip edge)", len(after.Preds))
				}
			},
		},
		{
			name: "select comm statements head their cases",
			body: `select {
case v := <-ch:
	use(v)
case out <- x:
	sent()
}
after()`,
			verify: func(t *testing.T, g *CFG, fset *token.FileSet) {
				recv := blockWith(t, g, fset, "<-ch")
				if recv.Kind != "select.case" {
					t.Fatalf("recv comm in block kind %q, want select.case", recv.Kind)
				}
				if len(recv.Nodes) == 0 {
					t.Fatal("comm statement not at head of its case block")
				}
				send := blockWith(t, g, fset, "out <- x")
				after := blockWith(t, g, fset, "after()")
				if !pathExists(recv, after) || !pathExists(send, after) {
					t.Fatal("select cases do not rejoin")
				}
			},
		},
		{
			name: "goto forward and backward",
			body: `i := 0
loop:
	i++
	if i < 3 {
		goto loop
	}
	if early() {
		goto out
	}
	mid()
out:
	end()`,
			verify: func(t *testing.T, g *CFG, fset *token.FileSet) {
				inc := blockWith(t, g, fset, "i++")
				back := blockWith(t, g, fset, "i < 3")
				if !pathExists(back, inc) {
					t.Fatal("backward goto does not loop")
				}
				early := blockWith(t, g, fset, "early()")
				end := blockWith(t, g, fset, "end()")
				mid := blockWith(t, g, fset, "mid()")
				if !pathExists(early, end) {
					t.Fatal("forward goto does not reach label")
				}
				if !pathExists(mid, end) {
					t.Fatal("fallthrough into label lost")
				}
			},
		},
		{
			name: "panic terminates the path",
			body: `if bad() {
	panic("boom")
}
ok()`,
			verify: func(t *testing.T, g *CFG, fset *token.FileSet) {
				pan := blockWith(t, g, fset, "panic")
				if len(pan.Succs) != 0 {
					t.Fatalf("panic block has %d successors, want 0", len(pan.Succs))
				}
				ok := blockWith(t, g, fset, "ok()")
				if !pathExists(g.Entry, ok) {
					t.Fatal("non-panic path lost")
				}
			},
		},
		{
			name: "statements after return are unreachable",
			body: `return
dead()`,
			verify: func(t *testing.T, g *CFG, fset *token.FileSet) {
				dead := blockWith(t, g, fset, "dead()")
				if g.Reachable()[dead] {
					t.Fatal("code after return must be unreachable")
				}
			},
		},
		{
			name: "infinite loop never reaches exit",
			body: `for {
	spin()
}`,
			verify: func(t *testing.T, g *CFG, fset *token.FileSet) {
				if g.Reachable()[g.Exit] {
					t.Fatal("exit must be unreachable past for{}")
				}
			},
		},
		{
			name: "range header binds then branches",
			body: `for k, v := range m {
	use(k, v)
}
after()`,
			verify: func(t *testing.T, g *CFG, fset *token.FileSet) {
				// The RangeStmt node prints with its body, so locate the
				// body block by kind rather than by text.
				head := blockWith(t, g, fset, "range m")
				if head.Kind != "range.head" {
					t.Fatalf("range header kind = %q", head.Kind)
				}
				var body *Block
				for _, blk := range g.Blocks {
					if blk.Kind == "range.body" {
						body = blk
					}
				}
				if body == nil {
					t.Fatal("no range.body block")
				}
				after := blockWith(t, g, fset, "after()")
				if directEdge(head, body) == nil {
					t.Fatal("no head->body edge")
				}
				if directEdge(body, head) == nil {
					t.Fatal("no body->head back edge")
				}
				if !pathExists(head, after) {
					t.Fatal("empty range cannot skip the body")
				}
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g, fset := buildTestCFG(t, tt.body)
			if g.Blocks[0] != g.Entry || g.Blocks[1] != g.Exit {
				t.Fatal("entry/exit must be blocks 0 and 1")
			}
			tt.verify(t, g, fset)
		})
	}
}

// TestCFGDeferOrder checks that Defers records registration order — the
// payload-ownership check models a deferred release at its registration
// point, which is only sound if that order is faithful.
func TestCFGDeferOrder(t *testing.T) {
	g, fset := buildTestCFG(t, `defer first()
mid()
defer second()`)
	if len(g.Defers) != 2 {
		t.Fatalf("defers = %d, want 2", len(g.Defers))
	}
	if !strings.Contains(nodeText(fset, g.Defers[0]), "first") ||
		!strings.Contains(nodeText(fset, g.Defers[1]), "second") {
		t.Fatalf("defers out of registration order: %s, %s",
			nodeText(fset, g.Defers[0]), nodeText(fset, g.Defers[1]))
	}
	// The DeferStmt must also appear as an executed node so dataflow
	// sees the registration point.
	blockWith(t, g, fset, "defer first()")
}

// TestCFGEdgeInvariants checks Preds/Succs symmetry over a dense body.
func TestCFGEdgeInvariants(t *testing.T) {
	g, _ := buildTestCFG(t, `for i := 0; i < 10; i++ {
	switch {
	case a():
		continue
	case b():
		break
	default:
		select {
		case <-ch:
			if c() {
				return
			}
		}
	}
}`)
	for _, blk := range g.Blocks {
		for _, e := range blk.Succs {
			if e.From != blk {
				t.Fatalf("edge in Succs of block %d has From=%d", blk.Index, e.From.Index)
			}
			found := false
			for _, p := range e.To.Preds {
				if p == e {
					found = true
				}
			}
			if !found {
				t.Fatalf("edge %d->%d missing from Preds", e.From.Index, e.To.Index)
			}
		}
	}
}
