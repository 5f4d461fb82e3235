package bench

import (
	"context"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"nrmi/internal/graph"
	"nrmi/internal/model"
	"nrmi/internal/netsim"
	"nrmi/internal/obs"
	"nrmi/internal/raceflag"
	"nrmi/internal/wire"
)

func TestBuildTreeDeterministic(t *testing.T) {
	a := model.BuildTree(42, 100)
	b := model.BuildTree(42, 100)
	eq, err := model.Equal(graph.AccessExported, a, b)
	if err != nil || !eq {
		t.Fatalf("same seed must build identical trees: %v %v", eq, err)
	}
	c := model.BuildTree(43, 100)
	eq, _ = model.Equal(graph.AccessExported, a, c)
	if eq {
		t.Fatal("different seeds should differ")
	}
	if n := len(model.CollectNodes(a)); n != 100 {
		t.Fatalf("size = %d, want 100", n)
	}
	if model.BuildTree(1, 0) != nil {
		t.Fatal("size 0 must be nil")
	}
}

func TestTreeConversionsPreserveAliasing(t *testing.T) {
	// Build a graph with an internal alias.
	root := model.BuildTree(7, 20)
	nodes := model.CollectNodes(root)
	nodes[3].Right = nodes[10] // alias
	back := model.ToRWorld(&model.World{Root: root}).ToWorld().Root
	eq, err := model.Equal(graph.AccessExported, root, back)
	if err != nil || !eq {
		t.Fatalf("round trip through model.RTree lost structure: %v %v", eq, err)
	}
}

func TestScriptApplyEquivalence(t *testing.T) {
	f := func(seed int64, szRaw, opsRaw uint8) bool {
		size := int(szRaw%60) + 2
		ops := int(opsRaw%20) + 1
		script := model.GenScript(seed, size, ops, false)
		a := model.BuildTree(seed, size)
		b := model.ToRWorld(&model.World{Root: model.BuildTree(seed, size)})
		script.Apply(a)
		script.ApplyR(b.Root)
		eq, err := model.Equal(graph.AccessExported, a, b.ToWorld().Root)
		return err == nil && eq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestScenarioProperties(t *testing.T) {
	wI, scriptI := model.NewWorld(model.ScenarioI, 5, 64)
	if len(wI.Aliases) != 0 {
		t.Fatal("scenario I must have no aliases")
	}
	_ = scriptI

	wII, scriptII := model.NewWorld(model.ScenarioII, 5, 64)
	if len(wII.Aliases) == 0 {
		t.Fatal("scenario II must have aliases")
	}
	for _, op := range scriptII {
		if op.Kind != model.OpSetData {
			t.Fatal("scenario II script must be data-only")
		}
	}

	wIII, scriptIII := model.NewWorld(model.ScenarioIII, 5, 256)
	if len(wIII.Aliases) == 0 {
		t.Fatal("scenario III must have aliases")
	}
	if !slices.ContainsFunc(scriptIII, func(op model.Op) bool { return op.Kind != model.OpSetData }) {
		t.Fatal("scenario III script should include structural ops")
	}
	if model.ScenarioI.String() != "I" || model.ScenarioII.String() != "II" || model.ScenarioIII.String() != "III" {
		t.Fatal("scenario names")
	}
}

func TestWorldConversionMapsAliases(t *testing.T) {
	w, _ := model.NewWorld(model.ScenarioIII, 11, 32)
	rw := model.ToRWorld(w)
	if len(rw.Aliases) != len(w.Aliases) {
		t.Fatal("alias count mismatch")
	}
	// Mutate through the RWorld alias; converting back must show it.
	rw.Aliases[0].Data = 123456
	back := rw.ToWorld()
	if back.Aliases[0].Data != 123456 {
		t.Fatal("alias correspondence broken")
	}
	if err := model.Verify(back, back); err != nil {
		t.Fatalf("self-verify: %v", err)
	}
}

// inProcessManual runs a manual strategy without a network: the "server
// copy" is a clone, exactly what RMI serialization would produce.
func inProcessManual(t *testing.T, sc model.Scenario, seed int64, size int) {
	t.Helper()
	w, script := model.NewWorld(sc, seed, size)
	svc := &CopyService{}
	serverCopy := model.ToRWorld(w).ToWorld().Root
	switch sc {
	case model.ScenarioI:
		r := svc.MutateReturnI(serverCopy, script)
		w.Root = r.Tree
	case model.ScenarioII:
		r := svc.MutateReturnII(serverCopy, script)
		RestoreII(w, r.Tree)
	case model.ScenarioIII:
		r := svc.MutateReturnIII(serverCopy, script)
		RestoreIII(w, r.Tree, r.Shadow)
	}
	if err := model.Verify(w, model.Expected(sc, seed, size, script)); err != nil {
		t.Fatalf("scenario %s seed %d size %d: %v", sc, seed, size, err)
	}
}

func TestManualStrategiesMatchLocalExecution(t *testing.T) {
	for _, sc := range model.Scenarios {
		for seed := int64(0); seed < 20; seed++ {
			inProcessManual(t, sc, seed, 40)
		}
	}
}

func TestShadowSnapshotsOriginalStructure(t *testing.T) {
	root := model.BuildTree(3, 16)
	orig := model.CollectNodes(root)
	sh := BuildShadow(root)
	// Mutate after the snapshot.
	script := model.GenScript(3, 16, 10, false)
	script.Apply(root)
	// The shadow still mirrors the pre-mutation structure and points at
	// the (now mutated) node objects.
	origSet := make(map[*model.Tree]bool, len(orig))
	for _, n := range orig {
		origSet[n] = true
	}
	var count int
	seen := make(map[*Shadow]bool)
	var walk func(s *Shadow)
	walk = func(s *Shadow) {
		if s == nil || seen[s] {
			return
		}
		seen[s] = true
		count++
		if !origSet[s.Ref] {
			t.Fatal("shadow must reference the original node objects")
		}
		walk(s.Left)
		walk(s.Right)
	}
	walk(sh)
	if sh.Ref != orig[0] {
		t.Fatal("shadow root must reference the original root")
	}
	if count != len(orig) {
		t.Fatalf("shadow has %d nodes, original had %d", count, len(orig))
	}
}

func TestRefNodeLocalOps(t *testing.T) {
	ctx := context.Background()
	n := &RefNode{Data: 1}
	c := &RefNode{Data: 2}
	if err := n.SetLeft(ctx, c); err != nil {
		t.Fatal(err)
	}
	got, err := n.GetLeft(ctx)
	if err != nil || got.(*RefNode) != c {
		t.Fatal("local handle ops broken")
	}
	if err := n.SetData(ctx, 9); err != nil {
		t.Fatal(err)
	}
	if d, _ := n.GetData(ctx); d != 9 {
		t.Fatal("data op broken")
	}
	r, err := n.GetRight(ctx)
	if err != nil || r != nil {
		t.Fatal("empty right must be nil")
	}
}

func TestApplyHandlesLocallyMatchesScript(t *testing.T) {
	f := func(seed int64, szRaw, opsRaw uint8) bool {
		size := int(szRaw%40) + 2
		ops := int(opsRaw%12) + 1
		script := model.GenScript(seed, size, ops, false)

		plain := model.BuildTree(seed, size)
		script.Apply(plain)

		refRoot, _ := BuildRefTree(model.BuildTree(seed, size))
		if err := ApplyHandles(context.Background(), refRoot, script); err != nil {
			return false
		}
		snap, err := newHandleSnapshotter().snapshot(context.Background(), refRoot)
		if err != nil {
			return false
		}
		eq, err := model.Equal(graph.AccessExported, plain, snap)
		return err == nil && eq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func newTestEnv(t *testing.T, cfg EnvConfig) *Env {
	t.Helper()
	e, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func TestRunOneWayAndManualAndNRMI(t *testing.T) {
	for _, eng := range []wire.Engine{wire.EngineV1, wire.EngineV2} {
		e := newTestEnv(t, EnvConfig{Engine: eng})
		for _, sc := range model.Scenarios {
			spec := RunSpec{Scenario: sc, Size: 24, Iterations: 2, Seed: 77, Verify: true}
			if _, err := RunOneWay(e, spec); err != nil {
				t.Fatalf("%s one-way %s: %v", eng, sc, err)
			}
			cell, err := RunManual(e, spec)
			if err != nil {
				t.Fatalf("%s manual %s: %v", eng, sc, err)
			}
			if !cell.OK || cell.Bytes == 0 || cell.Messages != 2 {
				t.Fatalf("%s manual %s: bad cell %+v", eng, sc, cell)
			}
			cell, err = RunNRMI(e, spec)
			if err != nil {
				t.Fatalf("%s nrmi %s: %v", eng, sc, err)
			}
			if !cell.OK || cell.Messages != 2 {
				t.Fatalf("%s nrmi %s: bad cell %+v", eng, sc, cell)
			}
		}
	}
}

// TestRunNRMIDelta: replies carry only the objects the method changed, so
// every scenario still verifies and a restorable call that changes nothing
// puts no more bytes on the wire than passing the tree by copy (Table 7).
func TestRunNRMIDelta(t *testing.T) {
	e := newTestEnv(t, EnvConfig{Engine: wire.EngineV2})
	for _, sc := range model.Scenarios {
		spec := RunSpec{Scenario: sc, Size: 24, Iterations: 1, Seed: 5, Verify: true}
		if _, err := RunNRMI(e, spec); err != nil {
			t.Fatalf("nrmi %s: %v", sc, err)
		}
	}
	spec := RunSpec{Scenario: model.ScenarioI, Size: 64, Iterations: 1, Seed: 5, Verify: true}
	nop, err := RunNRMINop(e, spec)
	if err != nil {
		t.Fatal(err)
	}
	byCopy, err := RunOneWay(e, spec)
	if err != nil {
		t.Fatal(err)
	}
	if nop.Bytes > byCopy.Bytes {
		t.Fatalf("no-op restore put %d bytes on the wire, by-copy %d", nop.Bytes, byCopy.Bytes)
	}
	t.Logf("no-op restore %d B, by-copy %d B", nop.Bytes, byCopy.Bytes)
}

func TestRunCBRefVerifies(t *testing.T) {
	e := newTestEnv(t, EnvConfig{Engine: wire.EngineV2})
	for _, sc := range model.Scenarios {
		spec := RunSpec{Scenario: sc, Size: 12, Iterations: 1, Seed: 9, Verify: true}
		cell, err := RunCBRef(e, spec, 30*time.Second)
		if err != nil {
			t.Fatalf("cbref %s: %v", sc, err)
		}
		if !cell.OK {
			t.Fatalf("cbref %s blew budget unexpectedly: %+v", sc, cell)
		}
		// Remote pointers must cost far more messages than the 2 a
		// request/response call needs.
		if cell.Messages < 20 {
			t.Fatalf("cbref %s: suspiciously few messages (%f)", sc, cell.Messages)
		}
	}
}

// TestRunCBRefBudgetYieldsDash: a call-by-reference cell that outlives its
// budget renders as the paper's "-". Each machine's address holds every
// message 5 to 10 ms, since the mutator's callbacks cross the client's.
func TestRunCBRefBudgetYieldsDash(t *testing.T) {
	e := newTestEnv(t, EnvConfig{Engine: wire.EngineV2})
	for _, addr := range []string{ServerAddr, ClientAddr} {
		e.Net.SetFaults(addr, netsim.RandomPlan(1, netsim.Rates{Delay: 1, MaxDelay: 10 * time.Millisecond}))
	}
	spec := RunSpec{Scenario: model.ScenarioIII, Size: 64, Iterations: 1, Seed: 1}
	cell, err := RunCBRef(e, spec, 50*time.Millisecond)
	if err != nil {
		t.Fatalf("budget blowout must not be an error: %v", err)
	}
	if cell.OK {
		t.Fatal("cell must be marked '-' on budget blowout")
	}
	if cell.String() != "-" {
		t.Fatalf("dash rendering: %q", cell.String())
	}
}

// TestVerifyIsNotCounted: a cell's verification runs after its clock has
// stopped and its counters have been read, so verifying changes no bytes or
// messages cell, not even Table 6's, whose verification reads the nodes the
// server created over the network. The seeds are the ones the harness gives
// size 16 under its default seed, where scenarios I and III leave such nodes
// reachable.
func TestVerifyIsNotCounted(t *testing.T) {
	cbref := func(e *Env, spec RunSpec) (Cell, error) { return RunCBRef(e, spec, time.Minute) }
	for _, r := range []struct {
		name string
		run  func(*Env, RunSpec) (Cell, error)
	}{{"manual", RunManual}, {"nrmi", RunNRMI}, {"nop", RunNRMINop}, {"cbref", cbref}} {
		for _, sc := range model.Scenarios {
			var cells [2]Cell
			for i, verify := range []bool{false, true} {
				e := newTestEnv(t, EnvConfig{Engine: wire.EngineV2})
				c, err := r.run(e, RunSpec{Scenario: sc, Size: 16, Iterations: 2, Seed: 16001 + 31*int64(sc), Verify: verify})
				if err != nil || !c.OK {
					t.Fatalf("%s %s verify=%v: %+v %v", r.name, sc, verify, c, err)
				}
				cells[i] = c
			}
			if cells[0].Bytes != cells[1].Bytes || cells[0].Messages != cells[1].Messages {
				t.Errorf("%s %s: %dB / %g plain, %dB / %g verified", r.name, sc,
					cells[0].Bytes, cells[0].Messages, cells[1].Bytes, cells[1].Messages)
			}
		}
	}
}

func TestCBRefLeaksRefs(t *testing.T) {
	// The paper: "the memory consumption of the benchmarks grew
	// uncontrollably" under call-by-reference. Our observable: exported
	// references pile up on the client server and are never collected.
	e := newTestEnv(t, EnvConfig{Engine: wire.EngineV2})
	spec := RunSpec{Scenario: model.ScenarioIII, Size: 16, Iterations: 1, Seed: 2}
	if _, err := RunCBRef(e, spec, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if e.ClientSrv.LiveRefs() == 0 {
		t.Fatal("remote-pointer run must leave live exports behind")
	}
}

func TestRunLocal(t *testing.T) {
	spec := RunSpec{Scenario: model.ScenarioIII, Size: 256, Iterations: 10, Seed: 4}
	fast, err := RunLocal(spec, 1.0)
	if err != nil || !fast.OK {
		t.Fatalf("local: %+v %v", fast, err)
	}
	if fast.Millis <= 0 {
		t.Fatal("local execution must measure above zero")
	}
	// Use a factor large enough that scheduler noise cannot flip the
	// comparison between the two independent measurements.
	slow, err := RunLocal(spec, 50)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Millis <= fast.Millis {
		t.Fatalf("50x host must be slower: fast=%.4f slow=%.4f", fast.Millis, slow.Millis)
	}
}

func TestCellString(t *testing.T) {
	for _, row := range []struct {
		c    Cell
		want string
	}{
		{Cell{OK: true, Millis: 0.012449}, "0.0124"},
		{Cell{OK: true, Millis: 0.4}, "0.400"},
		{Cell{OK: true, Millis: 12.44}, "12.4"},
		{Cell{OK: true, Millis: 771.3}, "771"},
		{Cell{OK: true, Millis: 1234.5}, "1234"},
		{Cell{}, "-"},
	} {
		if got := row.c.String(); got != row.want {
			t.Errorf("%+v renders %q, want %q", row.c, got, row.want)
		}
	}
}

func TestEnvConfigString(t *testing.T) {
	s := EnvConfig{Engine: wire.EngineV1}.String()
	if !strings.Contains(s, "v1") {
		t.Fatalf("config string: %q", s)
	}
	s = EnvConfig{Engine: wire.EngineV2, DisablePlanCache: true}.String()
	if !strings.Contains(s, "portable") {
		t.Fatalf("config string: %q", s)
	}
}

func TestWrapRefHook(t *testing.T) {
	env := &RefEnv{}
	h, err := env.WrapRefHook(nil)
	if err != nil || h != nil {
		t.Fatalf("nil ref must wrap to nil: %v %v", h, err)
	}
}

// TestCellDeterminism: identical seeds produce identical workloads and
// therefore identical bytes on the wire (times vary; bytes must not).
func TestCellDeterminism(t *testing.T) {
	run := func() int64 {
		e := newTestEnv(t, EnvConfig{Engine: wire.EngineV2})
		cell, err := RunNRMI(e, RunSpec{Scenario: model.ScenarioIII, Size: 64, Iterations: 3, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		return cell.Bytes
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different bytes: %d vs %d", a, b)
	}
}

// TestNilObserverUnderTwoPercent gates what the compiled-in instrumentation
// costs a call that no observer watches: Begin, a Mark for every phase of
// either end, SetIO and Finish on the nil collector must stay under 2% of a
// scenario-III call at size 256.
func TestNilObserverUnderTwoPercent(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("timings are not meaningful under -race")
	}
	e := newTestEnv(t, EnvConfig{Engine: wire.EngineV2})
	cell, err := RunNRMI(e, RunSpec{Scenario: model.ScenarioIII, Size: 256, Iterations: 15, Seed: 1, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	callNs := cell.Millis * 1e6
	const iters = 100_000
	nilCollectorCall()
	start := time.Now()
	for i := 0; i < iters; i++ {
		nilCollectorCall()
	}
	nilNs := float64(time.Since(start).Nanoseconds()) / iters
	share := 100 * nilNs / callNs
	t.Logf("scenario III @256 call %.0f µs; nil collector %.1f ns/call (%.4f%%)", callNs/1e3, nilNs, share)
	if share > 2 {
		t.Fatalf("the nil collector costs %.3f%% of a call, more than 2%%", share)
	}
}

// nilCollectorCall replays one call's collector operations with no
// observer attached.
func nilCollectorCall() {
	oc := obs.Begin(nil, "nrmi", "Apply")
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		oc.Mark(p, 1, 1)
	}
	oc.SetIO(1, 1)
	oc.Finish(nil)
}
