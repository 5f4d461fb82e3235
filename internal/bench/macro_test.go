package bench

import (
	"context"
	"testing"

	"nrmi/internal/graph"
	"nrmi/internal/model"
	"nrmi/internal/wire"
)

func TestMacroStoreDeterministic(t *testing.T) {
	a := model.NewMacroStore(5, 40)
	b := model.NewMacroStore(5, 40)
	eq, err := model.Equal(graph.AccessExported, a, b)
	if err != nil || !eq {
		t.Fatalf("same seed must build identical stores: %v %v", eq, err)
	}
	ops := model.GenMacroScript(5, 40, 30)
	model.ApplyMacro(a, ops)
	model.ApplyMacro(b, ops)
	eq, err = model.Equal(graph.AccessExported, a, b)
	if err != nil || !eq {
		t.Fatalf("script replay must be deterministic: %v %v", eq, err)
	}
}

func TestMacroAliasesObserved(t *testing.T) {
	e := newTestEnv(t, EnvConfig{Engine: wire.EngineV2})
	store := model.NewMacroStore(9, 10)
	// Client-side direct alias, independent of the indexes.
	var first *model.MacroCustomer
	for _, c := range store.ByName {
		if first == nil || c.Name < first.Name {
			first = c
		}
	}
	ops := []model.MacroOp{{Kind: 0, Cust: 0, Amount: 500}} // purchase for customer 0
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
