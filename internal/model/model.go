// Package model is the paper's contract in executable form — a call leaves
// the caller's graph "as if both the caller and the callee were executing
// within the same address space" (Section 5.3.2): the oracle Equal, the
// tree world of the paper's benchmarks (Section 5.3: random binary trees,
// aliases, scenarios, replayable scripts) and the store of its motivating
// application (Section 4.3: maps, slices, strings, an interface field, and
// a float a script may overwrite with −0.0). A Case is one seeded instance,
// built twice: for the call under test and for the local run. The package
// imports only the standard library and internal/graph, so that the tests
// of every layer and the benchmark harness can use it.
package model

// rng is the model's deterministic generator (splitmix-style), so every
// instance is reproducible from its seed.
type rng struct{ state uint64 }

func newRng(seed int64) *rng {
	return &rng{state: uint64(seed)*0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9}
}

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// registrar is the method of *wire.Registry that Register calls; model
// does not import wire, whose own tests import model.
type registrar interface {
	Register(name string, sample any) error
}

// Register installs the model's wire types on reg. The names predate this
// package — the benchmark harness registered them first — and are kept, so
// that no message changes size.
func Register(reg registrar) error {
	for name, sample := range map[string]any{
		"bench.Tree":             Tree{},
		"bench.RTree":            RTree{},
		"bench.Op":               Op{},
		"bench.Script":           Script{},
		"bench.OpKind":           OpKind(0),
		"bench.MacroStore":       MacroStore{},
		"bench.MacroCustomer":    MacroCustomer{},
		"bench.MacroTransaction": MacroTransaction{},
		"bench.MacroOp":          MacroOp{},
		"bench.MacroOps":         []MacroOp{},
	} {
		if err := reg.Register(name, sample); err != nil {
			return err
		}
	}
	return nil
}

// Case is one seeded instance of a workload: the graph a client holds, the
// argument it passes by copy-restore, the script the remote method runs, and
// the outcome the same method leaves when it runs locally.
type Case struct {
	// Held is everything the client holds — the argument and its aliases.
	// After the call it must be Equal to Want.
	Held any
	// Want is an isomorphic copy of Held that Script has run on in-process.
	Want any
	// Arg is the restorable argument, reachable from Held: an *RTree or a
	// *MacroStore.
	Arg any
	// Script is the mutation the remote method runs: a Script or a
	// []MacroOp.
	Script any
	// Changed counts the objects reachable from Arg whose own state Script
	// changes — what a reply that ships only changed objects restores — or
	// is -1 where the workload does not count them (the store).
	Changed int
}

// Run runs the case's script on arg, a decoded copy of Arg, as the remote
// method does.
func (c Case) Run(arg any) {
	switch a := arg.(type) {
	case *RTree:
		c.Script.(Script).ApplyR(a)
	case *MacroStore:
		ApplyMacro(a, c.Script.([]MacroOp))
	}
}

// TreeCase is the tree workload's instance for seed: a scenario-III world
// of size nodes whose free right slots also gain size/3 tries at internal
// aliasing edges, some of them closing cycles, and an ops-long script.
func TreeCase(seed int64, size, ops int) Case {
	build := func() *RWorld {
		w, _ := NewWorld(ScenarioIII, seed, size)
		nodes := CollectNodes(w.Root)
		r := newRng(seed ^ 0xC1C1E)
		for i := 0; i < size/3; i++ {
			if p := nodes[r.intn(len(nodes))]; p.Right == nil {
				p.Right = nodes[r.intn(len(nodes))]
			}
		}
		return ToRWorld(w)
	}
	script := GenScript(seed, size, ops, false)
	held, want := build(), build()
	nodes := CollectNodes(want.Root)
	before := make([]RTree, len(nodes))
	for i, n := range nodes {
		before[i] = *n
	}
	script.ApplyR(want.Root)
	changed := 0
	for i, n := range nodes {
		if *n != before[i] {
			changed++
		}
	}
	return Case{Held: held, Want: want, Arg: held.Root, Script: script, Changed: changed}
}

// StoreCase is the store workload's instance for seed: customers customers
// and an ops-long script.
func StoreCase(seed int64, customers, ops int) Case {
	held, want := NewMacroStore(seed, customers), NewMacroStore(seed, customers)
	script := GenMacroScript(seed, customers, ops)
	ApplyMacro(want, script)
	return Case{Held: held, Want: want, Arg: held, Script: script, Changed: -1}
}
