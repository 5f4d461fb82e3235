package rmi

import (
	"context"
	"fmt"
	"testing"
	"testing/quick"

	"nrmi/internal/core"
	"nrmi/internal/graph"
	"nrmi/internal/model"
)

// modelService runs internal/model's scripts as remote methods.
type modelService struct{}

// Tree runs a tree script on its restorable argument.
func (*modelService) Tree(root *model.RTree, s model.Script) { s.ApplyR(root) }

// Store runs a store script on its restorable argument.
func (*modelService) Store(s *model.MacroStore, ops []model.MacroOp) { model.ApplyMacro(s, ops) }

// TestModelRemoteEqualsLocal drives internal/model's two workloads through
// a Stub over netsim, with Call and with windows of four CallAsync promises
// in flight on disjoint graphs, then waited in order. After each call the
// client's graph, from every root it holds, must equal the same script run
// locally; on the tree, the call restores exactly the objects whose own
// state the local run changed.
func TestModelRemoteEqualsLocal(t *testing.T) {
	e := newEnv(t)
	if err := model.Register(e.server.opts.Core.Registry); err != nil {
		t.Fatal(err)
	}
	if err := e.server.Export("model", &modelService{}); err != nil {
		t.Fatal(err)
	}
	stub := e.client.Stub("server", "model")
	ctx := context.Background()
	check := func(c model.Case, resp *core.Response, err error) error {
		if err != nil {
			return err
		}
		if eq, err := model.Equal(graph.AccessExported, c.Held, c.Want); err != nil || !eq {
			return fmt.Errorf("client graph diverged from local execution: equal %t, %v", eq, err)
		}
		if c.Changed >= 0 && resp.Restored != c.Changed {
			return fmt.Errorf("%d objects restored, %d changed", resp.Restored, c.Changed)
		}
		return nil
	}
	// call makes one Call, or with more cases holds a CallAsync promise
	// for each in flight and then waits for them in order.
	call := func(method string, cases []model.Case) error {
		if len(cases) == 1 {
			resp, err := stub.CallStats(ctx, method, cases[0].Arg, cases[0].Script)
			return check(cases[0], resp, err)
		}
		ps := make([]*Promise, len(cases))
		for i, c := range cases {
			p, err := stub.CallAsync(ctx, method, c.Arg, c.Script)
			if err != nil {
				return err
			}
			ps[i] = p
		}
		for i, p := range ps {
			resp, err := p.WaitStats(ctx)
			if err := check(cases[i], resp, err); err != nil {
				return fmt.Errorf("promise %d: %w", i, err)
			}
		}
		return nil
	}
	for _, d := range []struct {
		method  string
		newCase func(seed int64, size, ops int) model.Case
	}{{"Tree", model.TreeCase}, {"Store", model.StoreCase}} {
		for _, shape := range []struct {
			name     string
			inFlight int
		}{{"Call", 1}, {"CallAsync", 4}} {
			t.Run(d.method+"/"+shape.name, func(t *testing.T) {
				f := func(seed int64, szRaw, opsRaw uint8) bool {
					size, ops := int(szRaw%48)+2, int(opsRaw%24)
					cases := make([]model.Case, shape.inFlight)
					for i := range cases {
						cases[i] = d.newCase(seed+int64(i), size, ops)
					}
					if err := call(d.method, cases); err != nil {
						t.Logf("seed %d, size %d, %d ops: %v", seed, size, ops, err)
						return false
					}
					return true
				}
				if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
