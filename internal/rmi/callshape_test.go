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
// and charging tests take it as an input: the three shapes are one
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
	shapeOneWay = callShape{"CallOneWay", func(st *Stub, ctx context.Context, method string, args ...any) ([]any, error) {
		return nil, st.CallOneWay(ctx, method, args...)
	}}
)

// The allocation ledger per call shape: what one call of the chaos tree
// costs end to end (client, transport and server sides of the in-memory
// pipe together). The blocking and async shapes restore the tree; a one-way
// call, which cannot, ships it by copy. Beyond the decoded objects and the
// method's own work, a call keeps only what outlives it (DESIGN.md §8f): a
// Promise that escapes the blocking shape's frame, a context or timer per
// attempt deadline, a frame header on the heap, a per-call scratch slice or
// closure, or a reply copied out of the pool lands above its budget.
const (
	syncCallAllocBudget   = 19 // measures 19
	asyncCallAllocBudget  = 20 // measures 20: the Promise CallAsync returns
	oneWayCallAllocBudget = 10 // measures 10
)

// callAllocs is shape's allocations per call, measured after a warm-up: of
// Scale(chaosTree, 1), or for the one-way shape of Sum on a by-copy tree. A
// one-way call returns once its frame is written, so each waits for the
// server to have run Sum: the window then holds one call's work on both
// ends, however the server's worker is scheduled.
func callAllocs(t *testing.T, shape callShape) float64 {
	env := newChaosEnv(t, nil, RetryPolicy{}, 5*time.Second)
	stub := env.client.Stub("server", "chaos")
	ctx := context.Background()
	method, arg := "Scale", any(chaosTree())
	oneWay := shape.name == shapeOneWay.name
	if oneWay {
		method, arg = "Sum", &CTree{Data: 5, Left: &CTree{Data: 1}, Right: &CTree{Data: 7, Right: &CTree{Data: 9}}}
		env.svc.summed = make(chan struct{}, 1) // Sum never blocks if the test stops waiting
	}
	// Each shape is called directly, not through shape.call: a variadic
	// slice built for a func value always escapes, and would hide a Stub
	// that leaks its args.
	call := func() {
		var err error
		switch shape.name {
		case shapeCall.name:
			_, err = stub.Call(ctx, method, arg, 1)
		case shapeAsync.name:
			var p *Promise
			if p, err = stub.CallAsync(ctx, method, arg, 1); err == nil {
				_, err = p.Wait(ctx)
			}
		default:
			err = stub.CallOneWay(ctx, method, arg, 1)
		}
		if err != nil {
			t.Fatal(err)
		}
		if oneWay {
			<-env.svc.summed
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

// TestCallShapeAllocs holds the promise and one-way shapes to theirs: the
// async shape keeps its call, transport attempt and response inside the
// Promise it returns.
func TestCallShapeAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are not meaningful under -race (sync.Pool drops Puts)")
	}
	for _, row := range []struct {
		shape  callShape
		budget float64
	}{{shapeAsync, asyncCallAllocBudget}, {shapeOneWay, oneWayCallAllocBudget}} {
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

// TestHostChargeEveryShape: a simulated slow client (netsim.Host) is charged
// for marshal and unmarshal time on a promise exactly as on a blocking call.
// The tree is large enough that the two steps take over a millisecond, each
// cell is the minimum of several runs, and a host fifty times slower must
// make the call at least five times longer — server, transport and
// scheduler noise included, which only the charged sleep can explain. The
// reference host's calls are CPU-bound and the slow host's mostly a sleep,
// so load slows only the first: on a loaded two-CPU machine the reference
// call takes twice its quiet time, which puts a twenty-fold host under five
// times the reference and leaves a fifty-fold one near ten.
func TestHostChargeEveryShape(t *testing.T) {
	cl, _, _ := newAsyncEnv(t, nil)
	var grow func(depth int) *RTree
	grow = func(depth int) *RTree {
		if depth == 0 {
			return nil
		}
		return &RTree{Data: depth, Left: grow(depth - 1), Right: grow(depth - 1)}
	}
	depth := 12 // 4095 objects to marshal and to restore
	if raceflag.Enabled {
		depth = 9 // the detector slows both steps some fifteen times
	}
	root := grow(depth)
	stub := func(factor float64) *Stub {
		opts := cl.opts
		opts.Host = netsim.Host{CPUFactor: factor}
		c, err := NewClient(cl.dialer, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c.Stub("server", "async")
	}
	ref, slow := stub(1), stub(50)
	for _, shape := range []callShape{shapeCall, shapeAsync} {
		timed := func(st *Stub) time.Duration {
			start := time.Now()
			if _, err := shape.call(st, context.Background(), "Scale", root, 1); err != nil {
				t.Fatal(err)
			}
			return time.Since(start)
		}
		// The two hosts' calls alternate, so both minimums come from one
		// window of the machine's load.
		fast, slowest := time.Duration(1<<63-1), time.Duration(1<<63-1)
		for i := 0; i < 7; i++ {
			fast = min(fast, timed(ref))
			slowest = min(slowest, timed(slow))
		}
		t.Logf("%s: reference host %v, 50x slower host %v (%.1fx)", shape.name, fast, slowest, float64(slowest)/float64(fast))
		if slowest < 5*fast {
			t.Errorf("%s: a 50x slower host took %v against %v: marshal and unmarshal time is not charged", shape.name, slowest, fast)
		}
	}
}
