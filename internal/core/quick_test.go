package core

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"nrmi/internal/graph"
	"nrmi/internal/model"
	"nrmi/internal/wire"
)

// This file checks the paper's central invariant (Section 5.3.2): "the
// resulting execution semantics is as if both the caller and the callee
// were executing within the same address space". One driver runs
// internal/model's two workloads — the tree world, with aliases, internal
// aliasing edges and cycles, and the store, with maps, slices, strings,
// interfaces and floats — through the four core steps of a copy-restore
// call, on every codec configuration, with a full and a delta reply: the
// client's graph must end Equal to the same script run locally.

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

// modelOptions returns options whose registry binds the model's types.
func modelOptions(t *testing.T, access graph.AccessMode) Options {
	t.Helper()
	reg := wire.NewRegistry()
	if err := model.Register(reg); err != nil {
		t.Fatal(err)
	}
	return Options{Registry: reg, Access: access}
}

// checkCase runs c through request, accept, respond and apply, and holds
// the client's graph, from every root it holds, to the local run's. On the
// tree, whose cases count the objects whose own state the script changes,
// a delta reply ships and restores exactly those, and a full one — full
// selects it — every old object.
func checkCase(t *testing.T, opts Options, full bool, c model.Case) error {
	t.Helper()
	call, req := encodeArgs(t, opts, []setArg{{c.Arg, true}})
	defer call.Release()
	if err := call.Finish(); err != nil {
		return err
	}
	srv, vals := decodeArgs(t, opts, req.Bytes(), []setArg{{nil, true}})
	defer srv.Release()
	prepareReply(t, srv, full)
	c.Run(vals[0])
	var resp bytes.Buffer
	stats, err := srv.EncodeResponse(&resp, nil)
	if err != nil {
		return err
	}
	res, err := call.ApplyResponseBytes(resp.Bytes())
	if err != nil {
		return err
	}
	if eq, err := model.Equal(opts.Access, c.Held, c.Want); err != nil || !eq {
		return fmt.Errorf("client graph diverged from local execution: equal %t, %v", eq, err)
	}
	want := c.Changed
	if full {
		want = stats.OldTotal
	}
	if c.Changed >= 0 && (stats.OldSent != want || res.Restored != want) {
		return fmt.Errorf("%d of %d objects shipped and %d restored, %d changed", stats.OldSent, stats.OldTotal, res.Restored, c.Changed)
	}
	return nil
}

// quickCases checks count generated cases of one workload: 2 to 49 tree
// nodes or store customers and up to 23 ops, zero-op scripts included.
func quickCases(t *testing.T, opts Options, full bool, newCase func(seed int64, size, ops int) model.Case, count int) {
	t.Helper()
	f := func(seed int64, szRaw, opsRaw uint8) bool {
		size, ops := int(szRaw%48)+2, int(opsRaw%24)
		if err := checkCase(t, opts, full, newCase(seed, size, ops)); err != nil {
			t.Logf("seed %d, size %d, %d ops: %v", seed, size, ops, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: count}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRemoteEqualsLocal runs the tree on every codec configuration.
// Shipping only the changed objects must not change semantics, only bytes:
// the full reply is the reference.
func TestQuickRemoteEqualsLocal(t *testing.T) {
	for _, cfg := range codecConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			for _, reply := range []string{"full", "delta"} {
				t.Run(reply, func(t *testing.T) {
					quickCases(t, cfg.apply(modelOptions(t, graph.AccessExported)), reply == "full", model.TreeCase, 50)
				})
			}
		})
	}
}

// TestQuickStoreRemoteEqualsLocal applies the full reply of a server
// without change detection; TestQuickStoreRemoteEqualsLocalDelta this
// server's own.
func TestQuickStoreRemoteEqualsLocal(t *testing.T) {
	for _, cfg := range codecConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			quickCases(t, cfg.apply(modelOptions(t, graph.AccessExported)), true, model.StoreCase, 30)
		})
	}
}

func TestQuickStoreRemoteEqualsLocalDelta(t *testing.T) {
	for _, cfg := range codecConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			quickCases(t, cfg.apply(modelOptions(t, graph.AccessExported)), false, model.StoreCase, 30)
		})
	}
}

func TestQuickRemoteEqualsLocalUnsafeAccess(t *testing.T) {
	opts := modelOptions(t, graph.AccessUnsafe)
	quickCases(t, opts, false, model.TreeCase, 30)
	quickCases(t, opts, false, model.StoreCase, 30)
}

// TestQuickDeltaShipsSubset holds a delta reply to short scripts, zero to
// seven ops, on every codec configuration: most nodes stay untouched, so
// the reply must ship and restore only the few the script changed — none
// for a zero-op script — and not the rest of the restore set.
func TestQuickDeltaShipsSubset(t *testing.T) {
	for _, cfg := range codecConfigs {
		opts := cfg.apply(modelOptions(t, graph.AccessExported))
		f := func(seed int64, szRaw, opsRaw uint8) bool {
			size, ops := int(szRaw%48)+2, int(opsRaw%8)
			c := model.TreeCase(seed, size, ops)
			if ops == 0 && c.Changed != 0 {
				t.Fatalf("%s seed %d: a zero-op script counts %d changed objects", cfg.name, seed, c.Changed)
			}
			if err := checkCase(t, opts, false, c); err != nil {
				t.Logf("%s seed %d, size %d, %d ops: %v", cfg.name, seed, size, ops, err)
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
	}
}
