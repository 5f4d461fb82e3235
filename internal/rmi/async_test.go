package rmi

// Async promise, one-way, and batch-dispatch tests. The sharp edges under
// test are the restore semantics: a retried promise never double-commits,
// concurrent promise consumptions serialize their commits, an abandoned
// promise releases its reply payload exactly once (bufpool-ledger
// audited) and never touches the caller's graph, and batch dispatch
// changes scheduling but not per-call restore results.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"nrmi/internal/core"
	"nrmi/internal/leakcheck"
	"nrmi/internal/netsim"
	"nrmi/internal/wire"
)

// AsyncService is the remote side: chaosMutate-based restorable
// mutations, a gate for pinning calls in execution, and plain arithmetic.
type AsyncService struct {
	mu    sync.Mutex
	calls int
	gate  chan struct{}
}

// Scale applies chaosMutate and returns the node count.
func (s *AsyncService) Scale(t *RTree, k int) int {
	s.mu.Lock()
	s.calls++
	s.mu.Unlock()
	return chaosMutate(t, k)
}

// GatedScale is Scale, blocked until the test opens the gate.
func (s *AsyncService) GatedScale(t *RTree, k int) int {
	<-s.gate
	return s.Scale(t, k)
}

// Add returns a+b.
func (s *AsyncService) Add(a, b int) int {
	s.mu.Lock()
	s.calls++
	s.mu.Unlock()
	return a + b
}

// The reshape mutators change which nodes the root reaches, after the
// chaosMutate data pass (which ends by swapping the root's children):
// unlinkLeft drops a two-node subtree, attachLeft splices a new node in,
// replaceLeaf swaps one leaf for a new node (node count unchanged).
func unlinkLeft(t *RTree, k int) int {
	n := chaosMutate(t, k)
	t.Left = nil
	return n
}

func attachLeft(t *RTree, k int) int {
	n := chaosMutate(t, k)
	t.Left = &RTree{Data: k, Left: t.Left}
	return n
}

func replaceLeaf(t *RTree, k int) int {
	n := chaosMutate(t, k)
	t.Left.Right = &RTree{Data: k}
	return n
}

// touchOne changes a single node, so that under delta its content record
// is the only one in the reply.
func touchOne(t *RTree, k int) int {
	t.Right.Right.Data += k
	return 1
}

func (s *AsyncService) Unlink(t *RTree, k int) int  { return unlinkLeft(t, k) }
func (s *AsyncService) Attach(t *RTree, k int) int  { return attachLeft(t, k) }
func (s *AsyncService) Replace(t *RTree, k int) int { return replaceLeaf(t, k) }
func (s *AsyncService) Touch(t *RTree, k int) int   { return touchOne(t, k) }

// Fail always errors.
func (s *AsyncService) Fail() error { return errors.New("deliberate failure") }

// Calls reports how many invocations executed.
func (s *AsyncService) Calls() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

// newAsyncEnv builds a server+client world over a loopback netsim link;
// mut adjusts the shared options (applied to both endpoints) before
// construction.
func newAsyncEnv(t *testing.T, mut func(*Options)) (*Client, *AsyncService, *Server) {
	t.Helper()
	reg := wire.NewRegistry()
	if err := reg.Register("RTree", RTree{}); err != nil {
		t.Fatal(err)
	}
	opts := Options{Core: core.Options{Registry: reg}}
	if mut != nil {
		mut(&opts)
	}
	n := netsim.NewNetwork()
	t.Cleanup(func() { n.Close() })
	srv, err := NewServer("server", opts)
	if err != nil {
		t.Fatal(err)
	}
	svc := &AsyncService{gate: make(chan struct{})}
	if err := srv.Export("async", svc); err != nil {
		t.Fatal(err)
	}
	ln, err := n.Listen("server")
	if err != nil {
		t.Fatal(err)
	}
	srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	cl, err := NewClient(n.Dial, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl, svc, srv
}

// TestAsyncPipelinedRestore: K promises issued back to back, consumed in
// order. Each carries its own restorable tree; every restore must land
// exactly as a synchronous call's would.
func TestAsyncPipelinedRestore(t *testing.T) {
	cl, svc, _ := newAsyncEnv(t, nil)
	stub := cl.Stub("server", "async")
	ctx := context.Background()
	const K = 8
	roots := make([]*RTree, K)
	snaps := make([]*RTree, K)
	ps := make([]*Promise, K)
	for i := 0; i < K; i++ {
		roots[i] = chaosTree()
		snaps[i] = snapshotTree(t, roots[i])
		p, err := stub.CallAsync(ctx, "Scale", roots[i], i+1)
		if err != nil {
			t.Fatalf("CallAsync %d: %v", i, err)
		}
		ps[i] = p
	}
	for i, p := range ps {
		rets, err := p.Wait(ctx)
		if err != nil {
			t.Fatalf("Wait %d: %v", i, err)
		}
		want := chaosMutate(snaps[i], i+1)
		if got := rets[0].(int); got != want {
			t.Fatalf("promise %d: Scale returned %d, want %d", i, got, want)
		}
		if !treesEqual(t, roots[i], snaps[i]) {
			t.Fatalf("promise %d: restored the wrong graph", i)
		}
	}
	if svc.Calls() != K {
		t.Fatalf("server saw %d calls, want %d", svc.Calls(), K)
	}
	cm := cl.Metrics()
	if cm.AsyncIssued != K || cm.CallsIssued != K || cm.CallErrors != 0 {
		t.Fatalf("metrics: AsyncIssued=%d CallsIssued=%d CallErrors=%d", cm.AsyncIssued, cm.CallsIssued, cm.CallErrors)
	}
	// Settled promises keep answering without further effect.
	if rets, err := ps[0].Wait(ctx); err != nil || rets[0].(int) != 5 {
		t.Fatalf("re-Wait: %v %v", rets, err)
	}
}

// treeNodes lists the nodes root reaches, in DFS order.
func treeNodes(root *RTree) []*RTree {
	var out []*RTree
	seen := make(map[*RTree]bool)
	var walk func(n *RTree)
	walk = func(n *RTree) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		out = append(out, n)
		walk(n.Left)
		walk(n.Right)
	}
	walk(root)
	return out
}

// TestAsyncPipelinedSharedRoot: two promises issued back to back on ONE
// root. Each request carries the graph as it was at issue, so the second
// reply restores exactly the objects of that graph — whatever the first
// commit has meanwhile unlinked from, or attached to, the root. After both
// Waits every issue-time node, including one the caller can now reach only
// through its own alias, holds what the second call alone would have left
// in it.
func TestAsyncPipelinedSharedRoot(t *testing.T) {
	for _, tc := range []struct {
		first   string
		firstFn func(*RTree, int) int
	}{
		{"Unlink", unlinkLeft},
		{"Attach", attachLeft},
		{"Replace", replaceLeaf},
	} {
		for _, eng := range []wire.Engine{wire.EngineV2, wire.EngineV3} {
			t.Run(fmt.Sprintf("%s/%s", tc.first, eng), func(t *testing.T) {
				cl, _, _ := newAsyncEnv(t, func(o *Options) { o.Core.Engine = eng })
				stub := cl.Stub("server", "async")
				ctx := context.Background()

				root := chaosTree()
				aliases := treeNodes(root)
				afterFirst := snapshotTree(t, root)
				afterSecond := snapshotTree(t, root)
				wantNodes := treeNodes(afterSecond)

				p1, err := stub.CallAsync(ctx, tc.first, root, 3)
				if err != nil {
					t.Fatal(err)
				}
				p2, err := stub.CallAsync(ctx, "Scale", root, 10)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := p1.Wait(ctx); err != nil {
					t.Fatalf("first Wait: %v", err)
				}
				tc.firstFn(afterFirst, 3)
				if !treesEqual(t, root, afterFirst) {
					t.Fatal("first commit restored the wrong graph")
				}
				if _, err := p2.Wait(ctx); err != nil {
					t.Fatalf("second Wait: %v", err)
				}
				chaosMutate(afterSecond, 10)
				if !treesEqual(t, root, afterSecond) {
					t.Fatal("final graph is not the second call's result on the issue-time graph")
				}
				pos := make(map[*RTree]int)
				for i, n := range wantNodes {
					pos[n] = i
				}
				child := func(n *RTree) int {
					if i, ok := pos[n]; ok {
						return i
					}
					return -1 // nil, or a node the method allocated
				}
				alias := func(n *RTree) int {
					for i, a := range aliases {
						if a == n {
							return i
						}
					}
					return -1
				}
				for i, a := range aliases {
					w := wantNodes[i]
					if a.Data != w.Data || alias(a.Left) != child(w.Left) || alias(a.Right) != child(w.Right) {
						t.Fatalf("issue-time node %d = {%d L%d R%d}, want {%d L%d R%d}", i,
							a.Data, alias(a.Left), alias(a.Right), w.Data, child(w.Left), child(w.Right))
					}
				}
			})
		}
	}
}

// TestAsyncPipelinedSharedRootDelta: a reply names the one object it changed
// by its position in the restore set. The first commit unlinks that object
// from the root; its record must still land on it — through the caller's
// alias — and on no other node.
func TestAsyncPipelinedSharedRootDelta(t *testing.T) {
	cl, _, _ := newAsyncEnv(t, nil)
	stub := cl.Stub("server", "async")
	ctx := context.Background()

	root := chaosTree()
	leaf := root.Right.Right
	afterFirst := snapshotTree(t, root)
	unlinkLeft(afterFirst, 3)

	p1, err := stub.CallAsync(ctx, "Unlink", root, 3)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := stub.CallAsync(ctx, "Touch", root, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p1.Wait(ctx); err != nil {
		t.Fatalf("first Wait: %v", err)
	}
	if _, err := p2.Wait(ctx); err != nil {
		t.Fatalf("second Wait: %v", err)
	}
	if leaf.Data != 9+10 {
		t.Fatalf("unlinked leaf holds %d, want the second call's %d", leaf.Data, 9+10)
	}
	if !treesEqual(t, root, afterFirst) {
		t.Fatal("the second call's one record landed on a node still linked to the root")
	}
}

// TestAsyncThenAll: Then pipelines a dependent call inside one Wait; All
// joins in order and abandons the rest on first error.
func TestAsyncThenAll(t *testing.T) {
	cl, _, _ := newAsyncEnv(t, nil)
	stub := cl.Stub("server", "async")
	ctx := context.Background()

	p, err := stub.CallAsync(ctx, "Add", 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	chained := p.Then(func(rets []any) (*Promise, error) {
		return stub.CallAsync(ctx, "Add", rets[0].(int), 10)
	})
	rets, err := chained.Wait(ctx)
	if err != nil || rets[0].(int) != 15 {
		t.Fatalf("Then chain: %v %v", rets, err)
	}

	good1, err := stub.CallAsync(ctx, "Add", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := stub.CallAsync(ctx, "Fail")
	if err != nil {
		t.Fatal(err)
	}
	good2, err := stub.CallAsync(ctx, "Add", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := All(ctx, good1, bad, good2); err == nil {
		t.Fatal("All must surface the failure")
	}
	if _, err := good2.Wait(ctx); !errors.Is(err, ErrPromiseAbandoned) {
		t.Fatalf("promise after the failure: err=%v, want abandoned", err)
	}

	ok1, _ := stub.CallAsync(ctx, "Add", 1, 2)
	ok2, _ := stub.CallAsync(ctx, "Add", 3, 4)
	all, err := All(ctx, ok1, ok2)
	if err != nil || all[0][0].(int) != 3 || all[1][0].(int) != 7 {
		t.Fatalf("All: %v %v", all, err)
	}
}

// TestAsyncRetryNoDoubleCommit: the first request frame is dropped, the
// retry layer re-sends, and the single server execution commits exactly
// once — the restored graph matches one application of the mutation.
func TestAsyncRetryNoDoubleCommit(t *testing.T) {
	env := newChaosEnv(t, netsim.NewPlan(0).DropFrame(1),
		RetryPolicy{MaxAttempts: 4, BaseDelay: 5 * time.Millisecond, Seed: 1},
		150*time.Millisecond)
	stub := env.client.Stub("server", "chaos")
	ctx := context.Background()
	root := chaosTree()
	snap := snapshotTree(t, root)
	p, err := stub.CallAsync(ctx, "Scale", root, 3)
	if err != nil {
		t.Fatal(err)
	}
	rets, err := p.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := chaosMutate(snap, 3)
	if got := rets[0].(int); got != want {
		t.Fatalf("Scale returned %d, want %d", got, want)
	}
	if !treesEqual(t, root, snap) {
		t.Fatal("retried promise committed the wrong graph")
	}
	if env.svc.Calls() != 1 {
		t.Fatalf("server executed %d times, want 1", env.svc.Calls())
	}
	cm := env.client.Metrics()
	if cm.Retries < 1 {
		t.Fatalf("Retries = %d, want ≥ 1 (the dropped frame was re-sent)", cm.Retries)
	}
}

// TestAsyncConsumedNeverResent: a response consumed by a failing apply
// must refuse the retry policy — the async mirror of the sync
// exactly-once guard.
func TestAsyncConsumedNeverResent(t *testing.T) {
	var consumed ResponseConsumedError
	if Retryable(&consumed) {
		t.Fatal("consumed responses must never be retryable")
	}
}

// TestAsyncCommitSerialization: N promises sharing one restorable root
// are consumed from N goroutines at once. The commit lock must serialize
// the overwrite phases (the race detector proves it), and the final graph
// must equal one call's complete result — never an interleaving.
func TestAsyncCommitSerialization(t *testing.T) {
	cl, _, _ := newAsyncEnv(t, nil)
	stub := cl.Stub("server", "async")
	ctx := context.Background()
	const N = 4
	root := chaosTree()
	snap := snapshotTree(t, root)
	ps := make([]*Promise, N)
	for i := range ps {
		p, err := stub.CallAsync(ctx, "Scale", root, i+1)
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = p
	}
	var wg sync.WaitGroup
	errs := make([]error, N)
	for i, p := range ps {
		wg.Add(1)
		go func(i int, p *Promise) {
			defer wg.Done()
			_, errs[i] = p.WaitStats(ctx)
		}(i, p)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("promise %d: %v", i, err)
		}
	}
	// Whichever consumption committed last, its complete result must be
	// what the graph holds: all candidates derive from the same issue-time
	// snapshot, since every promise encoded before any commit ran.
	matched := false
	for k := 1; k <= N; k++ {
		cand := snapshotTree(t, snap)
		chaosMutate(cand, k)
		if treesEqual(t, root, cand) {
			matched = true
			break
		}
	}
	if !matched {
		t.Fatal("final graph matches no single call's result: commits interleaved")
	}
}

// TestAsyncAbandonLedger: an abandoned promise never mutates the graph,
// its reply payload is recycled exactly once whichever side of the
// delivery race wins, and the pool ledger settles with nothing
// outstanding.
func TestAsyncAbandonLedger(t *testing.T) {
	cl, svc, _ := newAsyncEnv(t, nil)
	stub := cl.Stub("server", "async")
	ctx := context.Background()

	// Abandon before the reply: the handler is gated, so the reply cannot
	// have been delivered yet.
	root := chaosTree()
	snap := snapshotTree(t, root)
	p1, err := stub.CallAsync(ctx, "GatedScale", root, 5)
	if err != nil {
		t.Fatal(err)
	}
	p1.Abandon()
	if _, err := p1.Wait(ctx); !errors.Is(err, ErrPromiseAbandoned) {
		t.Fatalf("Wait after Abandon: %v", err)
	}
	close(svc.gate) // late reply arrives with no pending owner
	if !treesEqual(t, root, snap) {
		t.Fatal("abandoned promise mutated the caller's graph")
	}

	// Abandon after the reply has been delivered to the promise.
	p2, err := stub.CallAsync(ctx, "Add", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for !p2.Ready() {
		time.Sleep(time.Millisecond)
	}
	p2.Abandon()
	p2.Abandon() // idempotent

	cm := cl.Metrics()
	if cm.PromisesAbandoned != 2 || cm.CallErrors != 2 {
		t.Fatalf("PromisesAbandoned=%d CallErrors=%d, want 2/2", cm.PromisesAbandoned, cm.CallErrors)
	}

	leakcheck.Settle(t)
}

// TestOneWayCall: fire-and-forget calls execute on the server, restorable
// arguments are rejected, and the connection stays usable for normal
// calls afterwards — under whichever engine the client is configured with.
func TestOneWayCall(t *testing.T) {
	for _, eng := range []wire.Engine{wire.EngineV2, wire.EngineV3} {
		t.Run(eng.String(), func(t *testing.T) { testOneWayCall(t, eng) })
	}
}

func testOneWayCall(t *testing.T, eng wire.Engine) {
	cl, svc, _ := newAsyncEnv(t, func(o *Options) { o.Core.Engine = eng })
	stub := cl.Stub("server", "async")
	ctx := context.Background()

	if err := stub.CallOneWay(ctx, "Add", 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := stub.CallOneWay(ctx, "Scale", chaosTree(), 1); !errors.Is(err, ErrOneWayRestorable) {
		t.Fatalf("restorable one-way: err=%v, want ErrOneWayRestorable", err)
	}
	// The connection stays usable for normal calls after a one-way frame.
	rets, err := stub.Call(ctx, "Add", 10, 20)
	if err != nil || rets[0].(int) != 30 {
		t.Fatalf("sync after one-way: %v %v", rets, err)
	}
	// Handlers run concurrently per frame, so the one-way execution is
	// awaited, not assumed ordered before the sync reply.
	deadline := time.Now().Add(5 * time.Second)
	for svc.Calls() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("server saw %d calls, want 2 (one-way + sync)", svc.Calls())
		}
		time.Sleep(time.Millisecond)
	}
	cm := cl.Metrics()
	if cm.OneWays != 1 {
		t.Fatalf("OneWays = %d, want 1 (the rejected restorable call never issued)", cm.OneWays)
	}
	leakcheck.Settle(t)
}

// TestChaosAsync extends the chaos suite to promises: under seeded fault
// plans, each promise owns its own tree, and the §6.2 invariant holds
// per promise — failure leaves its tree bit-identical, success leaves it
// exactly one mutation ahead.
func TestChaosAsync(t *testing.T) {
	const rounds, width = 6, 4
	for _, seed := range chaosSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			t.Logf("fault-plan seed %d (replay: CHAOS_SEED=%d go test -run TestChaosAsync)", seed, seed)
			plan := netsim.RandomPlan(seed, netsim.Rates{
				Drop:      0.12,
				Delay:     0.08,
				MaxDelay:  40 * time.Millisecond,
				Duplicate: 0.08,
				Sever:     0.06,
			})
			env := newChaosEnv(t, plan,
				RetryPolicy{MaxAttempts: 3, BaseDelay: 5 * time.Millisecond, Seed: seed},
				150*time.Millisecond)
			stub := env.client.Stub("server", "chaos")
			ctx := context.Background()
			failed := 0
			for r := 0; r < rounds; r++ {
				roots := make([]*RTree, width)
				snaps := make([]*RTree, width)
				ps := make([]*Promise, width)
				for i := range ps {
					roots[i] = chaosTree()
					snaps[i] = snapshotTree(t, roots[i])
					p, err := stub.CallAsync(ctx, "Scale", roots[i], r+1)
					if err != nil {
						failed++
						continue
					}
					ps[i] = p
				}
				for i, p := range ps {
					if p == nil {
						continue
					}
					rets, err := p.Wait(ctx)
					if err != nil {
						failed++
						if !treesEqual(t, roots[i], snaps[i]) {
							t.Fatalf("seed %d round %d promise %d: FAILED promise mutated the graph (err was %v)", seed, r, i, err)
						}
						continue
					}
					want := chaosMutate(snaps[i], r+1)
					if got := rets[0].(int); got != want {
						t.Fatalf("seed %d round %d promise %d: got %d nodes, want %d", seed, r, i, got, want)
					}
					if !treesEqual(t, roots[i], snaps[i]) {
						t.Fatalf("seed %d round %d promise %d: successful promise restored the wrong graph", seed, r, i)
					}
				}
			}
			st := env.net.Stats()
			t.Logf("seed %d: %d promises failed; faults dropped=%d delayed=%d dup=%d severed=%d",
				seed, failed, st.Dropped, st.Delayed, st.Duplicated, st.Severed)
		})
	}
}
