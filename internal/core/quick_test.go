package core

import (
	"bytes"
	"testing"
	"testing/quick"

	"nrmi/internal/graph"
	"nrmi/internal/wire"
)

// This file checks the paper's central invariant (Section 5.3.2): "the
// resulting execution semantics is as if both the caller and the callee
// were executing within the same address space". For random object graphs
// with random aliases and a random mutation script, running the script
// remotely under copy-restore must leave the client's world graph-equal to
// running the same script locally.

// rng is a tiny deterministic generator so scripts replay identically on
// isomorphic graphs.
type rng struct{ state uint64 }

func newRng(seed int64) *rng { return &rng{state: uint64(seed)*2654435761 + 0x9E3779B97F4A7C15} }

func (r *rng) next(n int) int {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	return int(r.state>>33) % n
}

// genWorld builds a pseudo-random tree of size nodes with extra aliasing
// edges and a set of external aliases (the client-side references that make
// restore semantics observable).
func genWorld(seed int64, size int) *world {
	r := newRng(seed)
	nodes := []*Tree{{Data: r.next(1000)}}
	for len(nodes) < size {
		p := nodes[r.next(len(nodes))]
		n := &Tree{Data: r.next(1000)}
		if p.Left == nil {
			p.Left = n
		} else if p.Right == nil {
			p.Right = n
		} else {
			continue
		}
		nodes = append(nodes, n)
	}
	// Aliasing edges inside the structure (including possible cycles).
	for i := 0; i < size/3; i++ {
		p := nodes[r.next(len(nodes))]
		if p.Right == nil {
			p.Right = nodes[r.next(len(nodes))]
		}
	}
	// External aliases.
	w := &world{Root: nodes[0]}
	for i := 0; i < 1+size/4; i++ {
		w.Aliases = append(w.Aliases, nodes[r.next(len(nodes))])
	}
	return w
}

// mutOp is one replayable mutation. Node indices refer to the pre-mutation
// DFS preorder collection, so the script applies identically to isomorphic
// graphs.
type mutOp struct {
	kind int // 0 setData, 1 setLeft, 2 setRight, 3 attach new node
	a, b int
	val  int
	side int
}

func genScript(seed int64, numNodes, numOps int) []mutOp {
	r := newRng(seed ^ 0x5DEECE66D)
	ops := make([]mutOp, 0, numOps)
	for i := 0; i < numOps; i++ {
		ops = append(ops, mutOp{
			kind: r.next(4),
			a:    r.next(numNodes),
			b:    r.next(numNodes + 1), // == numNodes means nil
			val:  r.next(10000),
			side: r.next(2),
		})
	}
	return ops
}

// collectNodes gathers nodes in DFS preorder (Left before Right), visiting
// each object once. Deterministic on isomorphic graphs.
func collectNodes(root *Tree) []*Tree {
	var out []*Tree
	seen := make(map[*Tree]bool)
	var visit func(n *Tree)
	visit = func(n *Tree) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		out = append(out, n)
		visit(n.Left)
		visit(n.Right)
	}
	visit(root)
	return out
}

// applyScript replays ops against the graph rooted at root. Indices out of
// range of the collected node list wrap around.
func applyScript(root *Tree, ops []mutOp) {
	nodes := collectNodes(root)
	if len(nodes) == 0 {
		return
	}
	pick := func(i int) *Tree {
		if i >= len(nodes) {
			return nil
		}
		return nodes[i%len(nodes)]
	}
	for _, op := range ops {
		a := nodes[op.a%len(nodes)]
		switch op.kind {
		case 0:
			a.Data = op.val
		case 1:
			a.Left = pick(op.b)
		case 2:
			a.Right = pick(op.b)
		case 3:
			n := &Tree{Data: op.val, Left: pick(op.b)}
			if op.side == 0 {
				a.Left = n
			} else {
				a.Right = n
			}
		}
	}
}

// checkEquivalence runs one seed through both paths and compares worlds;
// full selects the reply of a server without change detection.
func checkEquivalence(t *testing.T, opts Options, full bool, seed int64, size, numOps int) bool {
	t.Helper()
	remote := genWorld(seed, size)
	local := genWorld(seed, size) // identical construction = isomorphic copy
	script := genScript(seed, size, numOps)

	// Local execution: the ground truth.
	applyScript(local.Root, script)

	// Remote execution under copy-restore.
	var req bytes.Buffer
	call := NewCall(&req, opts)
	if err := call.EncodeRestorable(remote.Root); err != nil {
		t.Logf("seed %d: encode: %v", seed, err)
		return false
	}
	if err := call.Finish(); err != nil {
		t.Logf("seed %d: finish: %v", seed, err)
		return false
	}
	srv := AcceptCallBytes(req.Bytes(), opts)
	defer srv.Release()
	sroot, err := srv.DecodeRestorable()
	if err != nil {
		t.Logf("seed %d: server decode: %v", seed, err)
		return false
	}
	prepareReply(t, srv, full)
	applyScript(sroot.(*Tree), script)
	var respBuf bytes.Buffer
	if _, err := srv.EncodeResponse(&respBuf, nil); err != nil {
		t.Logf("seed %d: encode response: %v", seed, err)
		return false
	}
	if _, err := call.ApplyResponseBytes(respBuf.Bytes()); err != nil {
		t.Logf("seed %d: apply: %v", seed, err)
		return false
	}

	eq, err := graph.Equal(graph.AccessExported, remote, local)
	if err != nil {
		t.Logf("seed %d: equal: %v", seed, err)
		return false
	}
	if !eq {
		t.Logf("seed %d: remote world diverged from local execution", seed)
	}
	return eq
}

// codecConfig is one of the runtime's four codec configurations (DESIGN.md
// §8a): the paper's JDK 1.3 stand-in, portable and optimized NRMI, and
// optimized NRMI decoding into an arena. Tests of a path every configuration
// shares range over all.
type codecConfig struct {
	name     string
	engine   wire.Engine
	portable bool
}

var codecConfigs = []codecConfig{
	{"v1", wire.EngineV1, false},
	{"v2-portable", wire.EngineV2, true},
	{"v2", wire.EngineV2, false},
	{"v3", wire.EngineV3, false},
}

func (c codecConfig) apply(o Options) Options {
	o.Engine = c.engine
	o.DisablePlanCache = c.portable
	return o
}

// prepareReply prepares srv for its reply: with the shadow, so that the
// reply carries the objects the method changed, or — full — without it, so
// that it carries every old object, as a server without change detection
// did. The client must apply either.
func prepareReply(t *testing.T, srv *ServerCall, full bool) {
	t.Helper()
	if !full {
		if err := srv.Prepare(); err != nil {
			t.Fatal(err)
		}
	}
	srv.prepared = true
}

func TestQuickRemoteEqualsLocal(t *testing.T) {
	for _, cfg := range codecConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			// Shipping only the changed objects must not change semantics,
			// only bytes: the full reply is the reference.
			for _, name := range []string{"full", "delta"} {
				t.Run(name, func(t *testing.T) {
					opts := cfg.apply(testOptions(t))
					f := func(seed int64, szRaw, opsRaw uint8) bool {
						size := int(szRaw%48) + 2
						numOps := int(opsRaw % 24) // zero ops allowed: nothing changes
						return checkEquivalence(t, opts, name == "full", seed, size, numOps)
					}
					if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
						t.Fatal(err)
					}
				})
			}
		})
	}
}

func TestQuickRemoteEqualsLocalUnsafeAccess(t *testing.T) {
	opts := testOptions(t)
	opts.Access = graph.AccessUnsafe
	f := func(seed int64, szRaw, opsRaw uint8) bool {
		size := int(szRaw%32) + 2
		numOps := int(opsRaw%16) + 1
		return checkEquivalence(t, opts, false, seed, size, numOps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDeltaShipsSubset: a reply carries a record for exactly the
// objects whose own state the script changed — counted on a twin the script
// runs on locally — on every codec configuration, zero-op scripts included.
func TestQuickDeltaShipsSubset(t *testing.T) {
	for _, cfg := range codecConfigs {
		opts := cfg.apply(testOptions(t))
		f := func(seed int64, szRaw, opsRaw uint8) bool {
			size := int(szRaw%48) + 2
			script := genScript(seed, size, int(opsRaw%8))
			twin := genWorld(seed, size)
			nodes := collectNodes(twin.Root)
			before := make([]Tree, len(nodes))
			for i, n := range nodes {
				before[i] = *n
			}
			applyScript(twin.Root, script)
			changed := 0
			for i, n := range nodes {
				if *n != before[i] {
					changed++
				}
			}

			root := genWorld(seed, size).Root
			call, req := encodeArgs(t, opts, []setArg{{root, true}})
			defer call.Release()
			if err := call.Finish(); err != nil {
				t.Fatal(err)
			}
			srv, vals := decodeArgs(t, opts, req.Bytes(), []setArg{{nil, true}})
			defer srv.Release()
			if err := srv.Prepare(); err != nil {
				t.Fatal(err)
			}
			applyScript(vals[0].(*Tree), script)
			var resp bytes.Buffer
			stats, err := srv.EncodeResponse(&resp, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := call.ApplyResponseBytes(resp.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			eq, err := graph.Equal(graph.AccessExported, root, twin.Root)
			if stats.OldTotal != len(nodes) || stats.OldSent != changed || res.Restored != changed || !eq || err != nil {
				t.Logf("%s seed %d: %d of %d objects shipped, %d restored, %d changed (equal %t, %v)",
					cfg.name, seed, stats.OldSent, stats.OldTotal, res.Restored, changed, eq, err)
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
	}
}
