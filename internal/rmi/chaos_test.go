package rmi

// Chaos suite: property-style tests that run copy-restore calls under
// seeded netsim fault plans and assert the paper's Section 6.2 failure
// invariant — a failed remote call surfaces as an error and leaves the
// client's object graph bit-identical to its pre-call snapshot (verified
// with model.Equal), while a successful call leaves it deep-equal to the
// server's result. Every schedule derives from a logged seed; a failing
// run prints it and `CHAOS_SEED=<seed> go test -run TestChaos` replays it.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nrmi/internal/core"
	"nrmi/internal/graph"
	"nrmi/internal/model"
	"nrmi/internal/netsim"
	"nrmi/internal/transport"
	"nrmi/internal/wire"
)

// ChaosService is the remote side of the suite: one repeatable,
// structure-changing mutation on a restorable tree.
type ChaosService struct {
	mu    sync.Mutex
	calls int
}

// Scale applies chaosMutate and returns the node count.
func (s *ChaosService) Scale(t *RTree, k int) int {
	s.mu.Lock()
	s.calls++
	s.mu.Unlock()
	return chaosMutate(t, k)
}

// Calls reports how many Scale executions the server saw — the oracle for
// "retry never re-sent this call".
func (s *ChaosService) Calls() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

// chaosMutate adds k to every reachable node and swaps the root's
// children. It is the shared oracle: the test applies it locally to the
// pre-call snapshot to compute what a successful restore must produce.
func chaosMutate(t *RTree, k int) int {
	seen := make(map[*RTree]bool)
	count := 0
	var walk func(n *RTree)
	walk = func(n *RTree) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		count++
		n.Data += k
		walk(n.Left)
		walk(n.Right)
	}
	walk(t)
	if t != nil {
		t.Left, t.Right = t.Right, t.Left
	}
	return count
}

// chaosTree builds the suite's argument graph: five nodes with an alias
// (both subtrees share one node), so restores must preserve identity.
func chaosTree() *RTree {
	shared := &RTree{Data: 4}
	left := &RTree{Data: 1, Left: shared}
	right := &RTree{Data: 7, Left: shared, Right: &RTree{Data: 9}}
	return &RTree{Data: 5, Left: left, Right: right}
}

func snapshotTree(t *testing.T, root *RTree) *RTree {
	t.Helper()
	cp, err := graph.Copy(graph.AccessExported, root)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return cp.(*RTree)
}

func treesEqual(t *testing.T, a, b *RTree) bool {
	t.Helper()
	eq, err := model.Equal(graph.AccessExported, a, b)
	if err != nil {
		t.Fatalf("model.Equal: %v", err)
	}
	return eq
}

// chaosEnv is one server+client world over a faultable netsim link.
type chaosEnv struct {
	net    *netsim.Network
	svc    *ChaosService
	client *Client
}

func newChaosEnv(t *testing.T, plan *netsim.Plan, retry RetryPolicy, callTimeout time.Duration) *chaosEnv {
	t.Helper()
	reg := treeRegistry(t)
	opts := Options{Core: core.Options{Registry: reg}}
	n := netsim.NewNetwork()
	t.Cleanup(func() { n.Close() })

	srv, err := NewServer("server", opts)
	if err != nil {
		t.Fatal(err)
	}
	svc := &ChaosService{}
	if err := srv.Export("chaos", svc); err != nil {
		t.Fatal(err)
	}
	ln, err := n.Listen("server")
	if err != nil {
		t.Fatal(err)
	}
	srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	if plan != nil {
		n.SetFaults("server", plan)
	}
	copts := opts
	copts.Retry = retry
	copts.CallTimeout = callTimeout
	cl, err := NewClient(n.Dial, copts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return &chaosEnv{net: n, svc: svc, client: cl}
}

// chaosSeeds are the fixed replayable schedules; CHAOS_SEED appends one
// more (make chaos passes a time-derived seed and prints it).
func chaosSeeds(t *testing.T) []int64 {
	seeds := []int64{1, 7, 42, 1337, 99991}
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED=%q: %v", s, err)
		}
		t.Logf("appending CHAOS_SEED=%d", v)
		seeds = append(seeds, v)
	}
	return seeds
}

// TestChaosRestoreInvariant is the core §6.2 property: under a seeded mix
// of drop/delay/duplicate/sever faults, every failed call leaves the
// graph identical to its snapshot and every successful call leaves it
// identical to the locally computed expected result.
func TestChaosRestoreInvariant(t *testing.T) {
	const callsPerSeed = 24
	for _, seed := range chaosSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			t.Logf("fault-plan seed %d (replay: CHAOS_SEED=%d go test -run TestChaosRestoreInvariant)", seed, seed)
			plan := netsim.RandomPlan(seed, netsim.Rates{
				Drop:      0.15,
				Delay:     0.08,
				MaxDelay:  60 * time.Millisecond,
				Duplicate: 0.10,
				Sever:     0.08,
			})
			env := newChaosEnv(t, plan, RetryPolicy{}, 150*time.Millisecond)
			stub := env.client.Stub("server", "chaos")
			ctx := context.Background()
			root := chaosTree()
			failed := 0
			for call := 0; call < callsPerSeed; call++ {
				snap := snapshotTree(t, root)
				rets, err := stub.Call(ctx, "Scale", root, call+1)
				if err != nil {
					failed++
					if !treesEqual(t, root, snap) {
						t.Fatalf("seed %d call %d: FAILED call mutated the client graph (err was %v)", seed, call, err)
					}
					continue
				}
				want := chaosMutate(snap, call+1) // snap becomes the expected graph
				if got := rets[0].(int); got != want {
					t.Fatalf("seed %d call %d: Scale returned %d nodes, want %d", seed, call, got, want)
				}
				if !treesEqual(t, root, snap) {
					t.Fatalf("seed %d call %d: successful call restored the wrong graph", seed, call)
				}
			}
			st := env.net.Stats()
			t.Logf("seed %d: %d/%d calls failed; faults dropped=%d delayed=%d dup=%d severed=%d",
				seed, failed, callsPerSeed, st.Dropped, st.Delayed, st.Duplicated, st.Severed)
		})
	}
}

// TestChaosCorruptedFrames adds the corrupt fault. Detected corruption
// (torn framing, decode errors) must obey the same atomicity invariant.
// A flipped bit that still decodes cleanly is garbage-in-garbage-out — a
// protocol without checksums cannot promise otherwise — so calls where a
// corruption fired and the call "succeeded" only reset the board.
func TestChaosCorruptedFrames(t *testing.T) {
	for _, seed := range chaosSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			t.Logf("fault-plan seed %d", seed)
			plan := netsim.RandomPlan(seed, netsim.Rates{Corrupt: 0.3})
			env := newChaosEnv(t, plan, RetryPolicy{}, 150*time.Millisecond)
			stub := env.client.Stub("server", "chaos")
			ctx := context.Background()
			root := chaosTree()
			for call := 0; call < 20; call++ {
				before := env.net.Stats().Corrupted
				snap := snapshotTree(t, root)
				_, err := stub.Call(ctx, "Scale", root, 2)
				hit := env.net.Stats().Corrupted > before
				switch {
				case err != nil:
					if !treesEqual(t, root, snap) {
						t.Fatalf("seed %d call %d: failed call mutated the graph (err was %v)", seed, call, err)
					}
				case !hit:
					if want := chaosMutate(snap, 2); want != 5 || !treesEqual(t, root, snap) {
						t.Fatalf("seed %d call %d: clean call restored the wrong graph", seed, call)
					}
				default:
					// Undetected corruption: the restored graph is
					// unspecified. Start from a fresh tree.
					root = chaosTree()
				}
			}
			if env.net.Stats().Corrupted == 0 {
				t.Fatalf("seed %d: corrupt fault never fired; plan not exercised", seed)
			}
			// The endpoint must remain usable once the link heals. A
			// corrupted length field can desync a stream without any
			// detectable error (the reader blocks on phantom bytes), so
			// drop pooled connections and re-dial — the reconnect path.
			env.net.SetFaults("server", nil)
			if err := env.client.Close(); err != nil {
				t.Fatal(err)
			}
			root = chaosTree()
			snap := snapshotTree(t, root)
			if _, err := stub.Call(ctx, "Scale", root, 3); err != nil {
				t.Fatalf("seed %d: call after healing failed: %v", seed, err)
			}
			chaosMutate(snap, 3)
			if !treesEqual(t, root, snap) {
				t.Fatalf("seed %d: restore wrong after healing", seed)
			}
		})
	}
}

// TestChaosDropThenHealRetrySucceeds pins the deterministic lose-twice-
// then-heal schedule on every call shape: the first two request frames are
// lost, the third attempt goes through, and the call has executed exactly
// once on the server, having cost the same Attempts and Retries whichever
// shape issued it. A dropped frame is an attempt timeout at await; a frame
// severed mid-write is a send-phase failure, which reaches await too (Send
// returns once the frame is queued) and is retried there.
func TestChaosDropThenHealRetrySucceeds(t *testing.T) {
	for _, tc := range []struct {
		shape callShape
		sever bool
	}{
		{shapeCall, false}, {shapeAsync, false},
		{shapeCall, true}, {shapeAsync, true},
	} {
		shape, name := tc.shape, tc.shape.name+"/dropped"
		plan := netsim.NewPlan(424242).DropFrame(1).DropFrame(2)
		if tc.sever {
			name = shape.name + "/severed"
			plan = netsim.NewPlan(424242).SeverFrame(1).SeverFrame(2)
		}
		t.Run(name, func(t *testing.T) {
			retry := RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, Seed: 1}
			env := newChaosEnv(t, plan, retry, 80*time.Millisecond)
			stub := env.client.Stub("server", "chaos")
			root := chaosTree()
			snap := snapshotTree(t, root)

			rets, err := shape.call(stub, context.Background(), "Scale", root, 3)
			if err != nil {
				t.Fatalf("retries exhausted (plan seed %d): %v", plan.Seed(), err)
			}
			if cm := env.client.Metrics(); cm.Attempts != 3 || cm.Retries != 2 || cm.CallErrors != 0 {
				t.Fatalf("Attempts=%d Retries=%d CallErrors=%d, want 3, 2, 0", cm.Attempts, cm.Retries, cm.CallErrors)
			}
			if want := chaosMutate(snap, 3); rets[0].(int) != want {
				t.Fatalf("Scale returned %v, want %d", rets[0], want)
			}
			if !treesEqual(t, root, snap) {
				t.Fatal("retried call restored the wrong graph")
			}
			if got := env.svc.Calls(); got != 1 {
				t.Fatalf("server executed %d times, want exactly 1 (lost requests never arrived)", got)
			}
			// Frames 1 and 2 were the lost requests, 3 the delivered request,
			// 4 the reply: the schedule is fully accounted for.
			if got := plan.Frames(); got != 4 {
				t.Fatalf("link carried %d frames, want 4", got)
			}
		})
	}
}

// TestChaosPartitionAtomicityAndHeal severs the client-server pair:
// calls across the partition fail without touching the graph, and after
// Heal the same stub works again off a fresh pooled connection.
func TestChaosPartitionAtomicityAndHeal(t *testing.T) {
	env := newChaosEnv(t, nil, RetryPolicy{}, 150*time.Millisecond)
	stub := env.client.Stub("server", "chaos")
	ctx := context.Background()
	root := chaosTree()

	snap := snapshotTree(t, root)
	if _, err := stub.Call(ctx, "Scale", root, 1); err != nil {
		t.Fatalf("pre-partition call: %v", err)
	}
	chaosMutate(snap, 1)
	if !treesEqual(t, root, snap) {
		t.Fatal("pre-partition restore wrong")
	}

	env.net.Partition("", "server")
	snap = snapshotTree(t, root)
	if _, err := stub.Call(ctx, "Scale", root, 2); err == nil {
		t.Fatal("call across a partition must fail")
	}
	if !treesEqual(t, root, snap) {
		t.Fatal("partitioned call mutated the graph")
	}

	env.net.Heal("", "server")
	if _, err := stub.Call(ctx, "Scale", root, 2); err != nil {
		t.Fatalf("call after heal: %v", err)
	}
	chaosMutate(snap, 2)
	if !treesEqual(t, root, snap) {
		t.Fatal("post-heal restore wrong")
	}
	if got := env.svc.Calls(); got != 2 {
		t.Fatalf("server executed %d times, want 2", got)
	}
}

// TestChaosPartitionHealUnderRetry heals the partition while a retrying
// call is still backing off: the call must ride out the outage and land
// exactly once.
func TestChaosPartitionHealUnderRetry(t *testing.T) {
	retry := RetryPolicy{MaxAttempts: 10, BaseDelay: 10 * time.Millisecond, MaxDelay: 40 * time.Millisecond, Seed: 7}
	env := newChaosEnv(t, nil, retry, 100*time.Millisecond)
	stub := env.client.Stub("server", "chaos")
	ctx := context.Background()
	root := chaosTree()

	if _, err := stub.Call(ctx, "Scale", root, 1); err != nil {
		t.Fatalf("warm-up call: %v", err)
	}
	env.net.Partition("", "server")
	heal := time.AfterFunc(60*time.Millisecond, func() { env.net.Heal("", "server") })
	defer heal.Stop()

	snap := snapshotTree(t, root)
	if _, err := stub.Call(ctx, "Scale", root, 5); err != nil {
		t.Fatalf("retrying call never recovered from the healed partition: %v", err)
	}
	chaosMutate(snap, 5)
	if !treesEqual(t, root, snap) {
		t.Fatal("post-recovery restore wrong")
	}
	if got := env.svc.Calls(); got != 2 {
		t.Fatalf("server executed %d times, want 2 (one warm-up, one recovered call)", got)
	}
}

// TestRetryNeverResendsAfterResponseConsumed is the explicit idempotency
// guard check: a reply whose payload fails to decode must surface as
// ResponseConsumedError without a single re-send, even with retries
// enabled — and the client graph stays untouched.
func TestRetryNeverResendsAfterResponseConsumed(t *testing.T) {
	for _, shape := range []callShape{shapeCall, shapeAsync} {
		t.Run(shape.name, func(t *testing.T) {
			n := netsim.NewNetwork()
			defer n.Close()
			ln, err := n.Listen("junk")
			if err != nil {
				t.Fatal(err)
			}
			var sends atomic.Int32
			srv := transport.Serve(ln, func(_ context.Context, _ byte, _ []byte) ([]byte, error) {
				sends.Add(1)
				return []byte{0xFF, 0x00, 0xAB}, nil // framing-valid, stream-garbage
			})
			defer srv.Close()

			reg := wire.NewRegistry()
			if err := reg.Register("RTree", RTree{}); err != nil {
				t.Fatal(err)
			}
			cl, err := NewClient(n.Dial, Options{
				Core:  core.Options{Registry: reg},
				Retry: RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, Seed: 3},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			root := chaosTree()
			snap := snapshotTree(t, root)
			_, err = shape.call(cl.Stub("junk", "chaos"), context.Background(), "Scale", root, 2)
			var consumed *ResponseConsumedError
			if !errors.As(err, &consumed) {
				t.Fatalf("want *ResponseConsumedError, got %T: %v", err, err)
			}
			if Retryable(err) {
				t.Fatal("consumed-response errors must classify as non-retryable")
			}
			if got := sends.Load(); got != 1 {
				t.Fatalf("request sent %d times, want exactly 1: response bytes were consumed", got)
			}
			if cm := cl.Metrics(); cm.Attempts != 1 || cm.Retries != 0 || cm.CallErrors != 1 {
				t.Fatalf("Attempts=%d Retries=%d CallErrors=%d, want 1, 0, 1", cm.Attempts, cm.Retries, cm.CallErrors)
			}
			if !treesEqual(t, root, snap) {
				t.Fatal("garbage reply mutated the client graph")
			}
		})
	}
}

// TestRetryableClassification pins the retry decision table.
func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"remote application error", &transport.RemoteError{Msg: "no"}, false},
		{"consumed response", &ResponseConsumedError{Method: "M", Err: errors.New("bad")}, false},
		{"caller canceled", &transport.CallError{Phase: transport.PhaseAwait, Sent: true, Err: context.Canceled}, false},
		{"attempt deadline", &transport.CallError{Phase: transport.PhaseAwait, Sent: true, Err: context.DeadlineExceeded}, true},
		{"conn closed", &transport.CallError{Phase: transport.PhaseSend, Err: transport.ErrClosed}, true},
		{"dial refused", netsim.ErrConnRefused, true},
		{"partitioned", netsim.ErrPartitioned, true},
		{"server draining", &transport.StatusError{Code: transport.StatusUnavailable, Msg: "shutting down"}, true},
		{"server overloaded", &transport.StatusError{Code: transport.StatusOverloaded, Msg: "full"}, true},
		{"server-side deadline", &transport.StatusError{Code: transport.StatusCancelled, Msg: "expired"}, true},
	}
	for _, tc := range cases {
		if got := Retryable(tc.err); got != tc.want {
			t.Errorf("Retryable(%s) = %t, want %t", tc.name, got, tc.want)
		}
	}
	cause := errors.New("bad")
	consumed := &ResponseConsumedError{Method: "Scale", Err: cause}
	if !errors.Is(consumed, cause) || !strings.Contains(consumed.Error(), "Scale") {
		t.Errorf("consumed response %q: want errors.Is its cause and the method named", consumed)
	}
}

// TestBackoffScheduleDeterministic checks the seeded jitter: same seed,
// same schedule; different seed, different jitter; each pause within
// ±backoffJitter of BaseDelay·backoffMultiplier^(attempt-1), capped at
// MaxDelay.
func TestBackoffScheduleDeterministic(t *testing.T) {
	pol := RetryPolicy{
		MaxAttempts: 6,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    80 * time.Millisecond,
		Seed:        11,
	}.withDefaults()
	mk := func(seed int64) []time.Duration {
		p := pol
		p.Seed = seed
		cl, err := NewClient(nil, Options{Retry: p})
		if err != nil {
			t.Fatal(err)
		}
		var out []time.Duration
		for a := 1; a <= 5; a++ {
			out = append(out, cl.backoff(p, a))
		}
		return out
	}
	a, b, c := mk(11), mk(11), mk(12)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at attempt %d: %v vs %v", i+1, a[i], b[i])
		}
		nominal := pol.BaseDelay
		for range i {
			nominal *= backoffMultiplier
		}
		nominal = min(nominal, pol.MaxDelay)
		lo := time.Duration(float64(nominal) * (1 - backoffJitter))
		hi := time.Duration(float64(nominal) * (1 + backoffJitter))
		if a[i] < lo || a[i] > hi {
			t.Fatalf("attempt %d backoff %v outside [%v, %v]", i+1, a[i], lo, hi)
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter")
	}
}
