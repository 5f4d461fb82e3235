// Benchmarks regenerating the paper's evaluation tables (Section 5.3.3),
// one Benchmark function per table, with sub-benchmarks for the scenario ×
// tree-size grid the paper reports. Absolute numbers are host-dependent;
// the shapes are what EXPERIMENTS.md compares. Every cell runs over an
// unshaped in-process link and reports its wall time, bytes and messages
// per call. Run everything with:
//
//	go test -bench=. -benchmem
//
// The full table run, `go run ./cmd/nrmi-bench`, adds the paper's testbed
// to those cells: the 100 Mbps LAN's time for the counted messages and
// bytes, and the slow server machine's extra CPU.
package nrmi_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"nrmi/internal/bench"
	"nrmi/internal/graph"
	"nrmi/internal/model"
	"nrmi/internal/wire"
)

// benchSizes is the size series for the table benchmarks. The paper uses
// 16..1024; 1024 is included only where it finishes in reasonable time.
var benchSizes = []int{16, 64, 256}

func newBenchEnv(b *testing.B, cfg bench.EnvConfig) *bench.Env {
	b.Helper()
	e, err := bench.NewEnv(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	return e
}

// reportCell attaches the harness's per-call observables to the benchmark.
func reportCell(b *testing.B, c bench.Cell) {
	b.Helper()
	b.ReportMetric(c.Wall, "wall-ms/call")
	b.ReportMetric(float64(c.Bytes), "wirebytes/call")
	b.ReportMetric(c.Messages, "msgs/call")
}

// runCells drives one harness runner across the scenario × size grid.
func runCells(b *testing.B, run func(spec bench.RunSpec) (bench.Cell, error)) {
	for _, sc := range model.Scenarios {
		for _, size := range benchSizes {
			name := fmt.Sprintf("%s/size=%d", sc, size)
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				var last bench.Cell
				for i := 0; i < b.N; i++ {
					c, err := run(bench.RunSpec{
						Scenario:   sc,
						Size:       size,
						Iterations: 1,
						Seed:       int64(i) + 42,
					})
					if err != nil {
						b.Fatal(err)
					}
					last = c
				}
				reportCell(b, last)
			})
		}
	}
}

// BenchmarkTable1Local is Table 1: local execution (processing overhead).
func BenchmarkTable1Local(b *testing.B) {
	runCells(b, func(spec bench.RunSpec) (bench.Cell, error) {
		return bench.RunLocal(spec, 1.0)
	})
}

// BenchmarkTable2OneWay is Table 2: RMI call-by-copy, one-way traffic.
func BenchmarkTable2OneWay(b *testing.B) {
	e := newBenchEnv(b, bench.EnvConfig{Engine: wire.EngineV2})
	runCells(b, func(spec bench.RunSpec) (bench.Cell, error) {
		return bench.RunOneWay(e, spec)
	})
}

// BenchmarkTable3RestoreLocal is Table 3: manual restore on one machine.
func BenchmarkTable3RestoreLocal(b *testing.B) {
	e := newBenchEnv(b, bench.EnvConfig{Engine: wire.EngineV2})
	runCells(b, func(spec bench.RunSpec) (bench.Cell, error) {
		return bench.RunManual(e, spec)
	})
}

// BenchmarkTable4RestoreRemote is Table 4: manual restore between two
// machines.
func BenchmarkTable4RestoreRemote(b *testing.B) {
	e := newBenchEnv(b, bench.EnvConfig{Engine: wire.EngineV2})
	runCells(b, func(spec bench.RunSpec) (bench.Cell, error) {
		return bench.RunManual(e, spec)
	})
}

// BenchmarkTable5NRMI is Table 5: call-by-copy-restore, in the paper's
// three implementation variants (jdk1.3 / portable / optimized).
func BenchmarkTable5NRMI(b *testing.B) {
	variants := []struct {
		name string
		cfg  bench.EnvConfig
	}{
		{"jdk1.3", bench.EnvConfig{Engine: wire.EngineV1}},
		{"portable", bench.EnvConfig{Engine: wire.EngineV2, DisablePlanCache: true}},
		{"optimized", bench.EnvConfig{Engine: wire.EngineV2}},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			e := newBenchEnv(b, v.cfg)
			runCells(b, func(spec bench.RunSpec) (bench.Cell, error) {
				return bench.RunNRMI(e, spec)
			})
		})
	}
}

// BenchmarkTable6CBRef is Table 6: call-by-reference via remote pointers.
// Sizes are kept small: the whole point is that cost explodes with size
// (the paper's 1024-node runs never finished).
func BenchmarkTable6CBRef(b *testing.B) {
	e := newBenchEnv(b, bench.EnvConfig{Engine: wire.EngineV2})
	for _, sc := range model.Scenarios {
		for _, size := range []int{16, 64} {
			name := fmt.Sprintf("%s/size=%d", sc, size)
			b.Run(name, func(b *testing.B) {
				var last bench.Cell
				for i := 0; i < b.N; i++ {
					c, err := bench.RunCBRef(e, bench.RunSpec{
						Scenario:   sc,
						Size:       size,
						Iterations: 1,
						Seed:       int64(i) + 42,
					}, time.Minute)
					if err != nil {
						b.Fatal(err)
					}
					if !c.OK {
						b.Fatalf("budget blown at size %d", size)
					}
					last = c
				}
				reportCell(b, last)
			})
		}
	}
}

// BenchmarkAblationDelta is the extension table: a restorable call whose
// method changes nothing, so that its reply carries no content record,
// against the same tree passed by copy — the paper's Section 5.2.4
// optimization 2.
func BenchmarkAblationDelta(b *testing.B) {
	e := newBenchEnv(b, bench.EnvConfig{Engine: wire.EngineV2})
	for _, v := range []struct {
		name string
		run  func(*bench.Env, bench.RunSpec) (bench.Cell, error)
	}{{"nop-restore", bench.RunNRMINop}, {"copy", bench.RunOneWay}} {
		b.Run(v.name, func(b *testing.B) {
			runCells(b, func(spec bench.RunSpec) (bench.Cell, error) {
				return v.run(e, spec)
			})
		})
	}
}

// BenchmarkAblationFieldAccess isolates the codec-level cost of uncached
// reflection (the paper's portable-vs-optimized gap, Section 5.3.1):
// encode+decode of a 256-node tree with the struct-plan cache on and off.
func BenchmarkAblationFieldAccess(b *testing.B) {
	reg := wire.NewRegistry()
	if err := bench.RegisterTypes(reg); err != nil {
		b.Fatal(err)
	}
	tree := model.BuildTree(7, 256)
	for _, v := range []struct {
		name    string
		nocache bool
	}{{"cached", false}, {"portable", true}} {
		v := v
		b.Run(v.name, func(b *testing.B) {
			opts := wire.Options{Registry: reg, DisablePlanCache: v.nocache}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var buf bytes.Buffer
				enc := wire.NewEncoder(&buf, opts)
				if err := enc.Encode(tree); err != nil {
					b.Fatal(err)
				}
				if err := enc.Flush(); err != nil {
					b.Fatal(err)
				}
				dec := wire.NewDecoderBytes(buf.Bytes(), opts)
				if _, err := dec.Decode(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationEngines isolates the V1/V2 codec gap that stands in for
// the paper's JDK 1.3 → 1.4 serialization speedup.
func BenchmarkAblationEngines(b *testing.B) {
	reg := wire.NewRegistry()
	if err := bench.RegisterTypes(reg); err != nil {
		b.Fatal(err)
	}
	tree := model.BuildTree(7, 256)
	for _, eng := range []wire.Engine{wire.EngineV1, wire.EngineV2} {
		eng := eng
		b.Run(eng.String(), func(b *testing.B) {
			opts := wire.Options{Registry: reg, Engine: eng}
			var encodedBytes int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var buf bytes.Buffer
				enc := wire.NewEncoder(&buf, opts)
				if err := enc.Encode(tree); err != nil {
					b.Fatal(err)
				}
				if err := enc.Flush(); err != nil {
					b.Fatal(err)
				}
				encodedBytes = enc.BytesWritten()
				dec := wire.NewDecoderBytes(buf.Bytes(), opts)
				if _, err := dec.Decode(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(encodedBytes), "wirebytes")
		})
	}
}

// BenchmarkAblationLinearMap quantifies the paper's "linear map almost for
// free" claim (Section 5.2.1): serializing (which captures the map as a
// side effect of the object table) versus an explicit standalone
// reachability walk a naive implementation would add.
func BenchmarkAblationLinearMap(b *testing.B) {
	reg := wire.NewRegistry()
	if err := bench.RegisterTypes(reg); err != nil {
		b.Fatal(err)
	}
	tree := model.BuildTree(7, 256)
	b.Run("encode-captures-map", func(b *testing.B) {
		opts := wire.Options{Registry: reg}
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			enc := wire.NewEncoder(&buf, opts)
			if err := enc.Encode(tree); err != nil {
				b.Fatal(err)
			}
			if err := enc.Flush(); err != nil {
				b.Fatal(err)
			}
			if len(enc.Objects()) != 256 {
				b.Fatal("map not captured")
			}
		}
	})
	b.Run("standalone-walk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lm, err := graph.Walk(graph.AccessExported, tree)
			if err != nil {
				b.Fatal(err)
			}
			if lm.Len() != 256 {
				b.Fatal("bad walk")
			}
		}
	})
}

// BenchmarkCoreRoundTrip measures the raw copy-restore engine without any
// transport: one full client-encode / server-decode / mutate / respond /
// apply cycle per iteration.
func BenchmarkCoreRoundTrip(b *testing.B) {
	e := newBenchEnv(b, bench.EnvConfig{Engine: wire.EngineV2})
	for _, size := range benchSizes {
		size := size
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			var last bench.Cell
			for i := 0; i < b.N; i++ {
				c, err := bench.RunNRMI(e, bench.RunSpec{
					Scenario:   model.ScenarioIII,
					Size:       size,
					Iterations: 1,
					Seed:       int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				last = c
			}
			reportCell(b, last)
		})
	}
}

// BenchmarkTopology characterizes restore cost across graph shapes at a
// fixed object count: a deep list (recursion depth), a balanced tree (the
// paper's shape), and a dense DAG (heavy aliasing, many back-references on
// the wire). Not in the paper; it probes where the algorithm's costs live.
func BenchmarkTopology(b *testing.B) {
	const n = 256
	shapes := []struct {
		name  string
		build func() *model.Tree
	}{
		{"deep-list", func() *model.Tree {
			root := &model.Tree{Data: 0}
			cur := root
			for i := 1; i < n; i++ {
				cur.Left = &model.Tree{Data: i}
				cur = cur.Left
			}
			return root
		}},
		{"balanced-tree", func() *model.Tree {
			return model.BuildTree(7, n)
		}},
		{"dense-dag", func() *model.Tree {
			nodes := make([]*model.Tree, n)
			for i := range nodes {
				nodes[i] = &model.Tree{Data: i}
			}
			// A spine guarantees full reachability; every Right edge
			// aliases an arbitrary node, so the wire stream is dense
			// with back-references.
			for i := 0; i < n-1; i++ {
				nodes[i].Left = nodes[i+1]
				nodes[i].Right = nodes[(i*7+3)%n]
			}
			return nodes[0]
		}},
	}
	reg := wire.NewRegistry()
	if err := bench.RegisterTypes(reg); err != nil {
		b.Fatal(err)
	}
	for _, sh := range shapes {
		sh := sh
		b.Run(sh.name, func(b *testing.B) {
			tree := model.ToRWorld(&model.World{Root: sh.build()}).Root
			var buf bytes.Buffer
			opts := wire.Options{Registry: reg}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				enc := wire.NewEncoder(&buf, opts)
				if err := enc.Encode(tree); err != nil {
					b.Fatal(err)
				}
				if err := enc.Flush(); err != nil {
					b.Fatal(err)
				}
				dec := wire.NewDecoderBytes(buf.Bytes(), opts)
				if _, err := dec.Decode(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(buf.Len()), "wirebytes")
		})
	}
}

// BenchmarkMacroStore measures the paper's motivating business workload
// (Section 4.3) — customers, transactions, and three live indexes — under
// copy-restore. Realistic graphs are map/slice/string-heavy, unlike the
// micro trees.
func BenchmarkMacroStore(b *testing.B) {
	e := newBenchEnv(b, bench.EnvConfig{Engine: wire.EngineV2})
	stub := e.Client.Stub(bench.ServerAddr, "macro")
	const customers = 200
	const opsPerCall = 25
	var bytesLast int64
	for i := 0; i < b.N; i++ {
		store := model.NewMacroStore(int64(i), customers)
		ops := model.GenMacroScript(int64(i), customers, opsPerCall)
		e.ResetStats()
		if _, err := stub.Call(context.Background(), "Apply", store, ops); err != nil {
			b.Fatal(err)
		}
		bytesLast = e.Stats().BytesSent
	}
	b.ReportMetric(float64(bytesLast), "wirebytes/call")
}
