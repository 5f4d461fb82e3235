package rmi

import (
	"context"
	"errors"
	"testing"
	"time"

	"nrmi/internal/netsim"
	"nrmi/internal/raceflag"
	"nrmi/internal/transport"
)

// callShape is one way of running an invocation to completion. The retry
// and allocation tests take it as an input: the two shapes are one
// state machine and must account for a call identically.
type callShape struct {
	name string
	call func(st *Stub, ctx context.Context, method string, args ...any) ([]any, error)
}

var (
	shapeCall  = callShape{"Call", (*Stub).Call}
	shapeAsync = callShape{"CallAsync+Wait", func(st *Stub, ctx context.Context, method string, args ...any) ([]any, error) {
		p, err := st.CallAsync(ctx, method, args...)
		if err != nil {
			return nil, err
		}
		return p.Wait(ctx)
	}}
)

// The allocation ledger per call shape: what one call of the chaos tree
// costs end to end (client, transport and server sides of the in-memory
// pipe together). Beyond the decoded objects and the method's own work, a call keeps only what outlives it (DESIGN.md §8f): a
// Promise that escapes the blocking shape's frame, a context or timer per
// attempt deadline, a frame header on the heap, a per-call scratch slice or
// closure, or a reply copied out of the pool lands above its budget.
const (
	syncCallAllocBudget  = 19 // measures 19
	asyncCallAllocBudget = 20 // measures 20: the Promise CallAsync returns
)

// callAllocs is shape's allocations per call of Scale(chaosTree, 1),
// measured after a warm-up.
func callAllocs(t *testing.T, shape callShape) float64 {
	env := newChaosEnv(t, nil, RetryPolicy{}, 5*time.Second)
	stub := env.client.Stub("server", "chaos")
	ctx := context.Background()
	arg := chaosTree()
	// Each shape is called directly, not through shape.call: a variadic
	// slice built for a func value always escapes, and would hide a Stub
	// that leaks its args.
	call := func() {
		var err error
		if shape.name == shapeCall.name {
			_, err = stub.Call(ctx, "Scale", arg, 1)
		} else {
			var p *Promise
			if p, err = stub.CallAsync(ctx, "Scale", arg, 1); err == nil {
				_, err = p.Wait(ctx)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ { // pools, kernels, parked worker
		call()
	}
	return testing.AllocsPerRun(200, call)
}

// TestSyncCallAllocs holds the blocking call shape to its allocation count:
// the Promise it runs on lives in the caller's frame, CallTimeout (set, as
// the benchmark sets it) builds no context on either end, and a frame's
// header is read into its connection's scratch.
func TestSyncCallAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are not meaningful under -race (sync.Pool drops Puts)")
	}
	got := callAllocs(t, shapeCall)
	t.Logf("allocs per sync call: %.2f (budget %d)", got, syncCallAllocBudget)
	if got > syncCallAllocBudget {
		t.Fatalf("Stub.Call allocates %.2f per call, budget %d", got, syncCallAllocBudget)
	}
}

// TestCallShapeAllocs holds the promise shape to its own: it keeps its call,
// transport attempt and response inside the Promise it returns.
func TestCallShapeAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are not meaningful under -race (sync.Pool drops Puts)")
	}
	for _, row := range []struct {
		shape  callShape
		budget float64
	}{{shapeAsync, asyncCallAllocBudget}} {
		got := callAllocs(t, row.shape)
		t.Logf("allocs per %s call: %.2f (budget %.0f)", row.shape.name, got, row.budget)
		if got > row.budget {
			t.Errorf("%s allocates %.2f per call, budget %.0f", row.shape.name, got, row.budget)
		}
	}
}

// TestCallAsyncFirstSendFailure: CallAsync hands out no promise without a
// request in flight. A first send the transport refuses itself — ctx
// already done — is returned by CallAsync, typed as the blocking shape
// types it, with retries on and none spent; the caller never holds a
// pending promise that Ready can not see through, and its ctx is not
// outlived by a re-send under Wait's. A frame the Write tears after
// CallAsync has queued it is the promise's: the unsent failure reaches
// Wait, which re-sends once, and the server executes the call once.
func TestCallAsyncFirstSendFailure(t *testing.T) {
	retry := RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, Seed: 1}
	t.Run("cancelled ctx", func(t *testing.T) {
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		env := newChaosEnv(t, nil, retry, 5*time.Second)
		stub := env.client.Stub("server", "chaos")
		root := chaosTree()
		snap := snapshotTree(t, root)
		p, err := stub.CallAsync(cancelled, "Scale", root, 3)
		var ce *transport.CallError
		if p != nil || !errors.As(err, &ce) || ce.Phase != transport.PhaseSend || ce.Sent || !errors.Is(err, context.Canceled) {
			t.Fatalf("CallAsync = %v, %v; want no promise and an unsent send-phase CallError wrapping %v", p, err, context.Canceled)
		}
		if cm := env.client.Metrics(); cm.Attempts != 1 || cm.Retries != 0 || cm.CallErrors != 1 || cm.AsyncIssued != 0 {
			t.Fatalf("Attempts=%d Retries=%d CallErrors=%d AsyncIssued=%d, want 1, 0, 1, 0", cm.Attempts, cm.Retries, cm.CallErrors, cm.AsyncIssued)
		}
		if got := env.svc.Calls(); got != 0 || !treesEqual(t, root, snap) {
			t.Fatalf("server executed %d times, want 0, and the graph untouched", got)
		}
		// The failure was that send's alone: the next call goes through.
		if _, err := shapeAsync.call(stub, context.Background(), "Scale", root, 3); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("severed frame", func(t *testing.T) {
		env := newChaosEnv(t, netsim.NewPlan(7).SeverFrame(1), retry, 5*time.Second)
		stub := env.client.Stub("server", "chaos")
		p, err := stub.CallAsync(context.Background(), "Scale", chaosTree(), 3)
		if p == nil || err != nil {
			t.Fatalf("CallAsync = %v, %v; want a promise for the queued frame", p, err)
		}
		if _, err := p.Wait(context.Background()); err != nil {
			t.Fatalf("Wait: %v; want the torn frame re-sent", err)
		}
		if cm := env.client.Metrics(); cm.Attempts != 2 || cm.Retries != 1 || cm.CallErrors != 0 || cm.AsyncIssued != 1 {
			t.Fatalf("Attempts=%d Retries=%d CallErrors=%d AsyncIssued=%d, want 2, 1, 0, 1", cm.Attempts, cm.Retries, cm.CallErrors, cm.AsyncIssued)
		}
		if got := env.svc.Calls(); got != 1 {
			t.Fatalf("server executed %d times, want 1", got)
		}
	})
}
