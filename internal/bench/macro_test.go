package bench

import (
	"context"
	"testing"
	"testing/quick"

	"nrmi/internal/graph"
	"nrmi/internal/wire"
)

func TestMacroStoreDeterministic(t *testing.T) {
	a := NewMacroStore(5, 40)
	b := NewMacroStore(5, 40)
	eq, err := graph.Equal(graph.AccessExported, a, b)
	if err != nil || !eq {
		t.Fatalf("same seed must build identical stores: %v %v", eq, err)
	}
	ops := GenMacroScript(5, 40, 30)
	ApplyMacro(a, ops)
	ApplyMacro(b, ops)
	eq, err = graph.Equal(graph.AccessExported, a, b)
	if err != nil || !eq {
		t.Fatalf("script replay must be deterministic: %v %v", eq, err)
	}
}

func TestMacroRemoteEqualsLocal(t *testing.T) {
	e := newTestEnv(t, EnvConfig{Engine: wire.EngineV2})
	stub := e.Client.Stub(ServerAddr, "macro")
	f := func(seed int64, nRaw, opsRaw uint8) bool {
		n := int(nRaw%30) + 2
		nOps := int(opsRaw%20) + 1
		local := NewMacroStore(seed, n)
		remote := NewMacroStore(seed, n)
		ops := GenMacroScript(seed, n, nOps)

		ApplyMacro(local, ops)
		if _, err := stub.Call(context.Background(), "Apply", remote, ops); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		eq, err := graph.Equal(graph.AccessExported, remote, local)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if !eq {
			t.Logf("seed %d: macro store diverged", seed)
		}
		return eq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMacroAliasesObserved(t *testing.T) {
	e := newTestEnv(t, EnvConfig{Engine: wire.EngineV2})
	store := NewMacroStore(9, 10)
	// Client-side direct alias, independent of the indexes.
	var first *MacroCustomer
	for _, c := range store.ByName {
		if first == nil || c.Name < first.Name {
			first = c
		}
	}
	ops := []MacroOp{{Kind: 0, Cust: 0, Amount: 500}} // purchase for customer 0
	if _, err := e.Client.Stub(ServerAddr, "macro").Call(context.Background(), "Apply", store, ops); err != nil {
		t.Fatal(err)
	}
	if first.Balance != 500 || len(first.Transactions) != 1 {
		t.Fatalf("alias missed the remote purchase: %+v", first)
	}
	if store.Recent[0].Customer != first {
		t.Fatal("recent-transaction index must alias the same customer object")
	}
}
