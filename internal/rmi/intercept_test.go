package rmi

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nrmi/internal/core"
	"nrmi/internal/netsim"
)

// buildInterceptEnv assembles a server/client pair with the given
// interceptors installed, and returns the service the server exports.
func buildInterceptEnv(t *testing.T, clientIC, serverIC Interceptor) (*Client, string, *TreeService) {
	t.Helper()
	reg := treeRegistry(t)
	n := netsim.NewNetwork()
	t.Cleanup(func() { n.Close() })
	srv, err := NewServer("srv", Options{Core: core.Options{Registry: reg}, Intercept: serverIC})
	if err != nil {
		t.Fatal(err)
	}
	svc := &TreeService{}
	if err := srv.Export("trees", svc); err != nil {
		t.Fatal(err)
	}
	ln, err := n.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	cl, err := NewClient(n.Dial, Options{Core: core.Options{Registry: reg}, Intercept: clientIC})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl, "srv", svc
}

func TestClientInterceptorObservesAndWraps(t *testing.T) {
	var calls atomic.Int64
	var lastInfo CallInfo
	ic := func(ctx context.Context, info CallInfo, next func(context.Context) error) error {
		calls.Add(1)
		lastInfo = info
		if err := next(ctx); err != nil {
			return fmt.Errorf("wrapped: %w", err)
		}
		return nil
	}
	cl, addr, _ := buildInterceptEnv(t, ic, nil)
	ctx := context.Background()
	stub := cl.Stub(addr, "trees")
	if _, err := stub.Call(ctx, "Div", 10, 2); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("interceptor ran %d times", calls.Load())
	}
	if lastInfo.Method != "Div" || lastInfo.Object != "trees" || lastInfo.Addr != addr || lastInfo.ArgCount != 2 {
		t.Fatalf("info = %+v", lastInfo)
	}
	_, err := stub.Call(ctx, "Div", 1, 0)
	if err == nil || !strings.Contains(err.Error(), "wrapped:") {
		t.Fatalf("interceptor must wrap errors: %v", err)
	}
}

func TestClientInterceptorCanVeto(t *testing.T) {
	blocked := errors.New("vetoed by policy")
	ic := func(ctx context.Context, info CallInfo, next func(context.Context) error) error {
		if info.Method == "Boom" {
			return blocked
		}
		return next(ctx)
	}
	cl, addr, _ := buildInterceptEnv(t, ic, nil)
	_, err := cl.Stub(addr, "trees").Call(context.Background(), "Boom")
	if !errors.Is(err, blocked) {
		t.Fatalf("veto lost: %v", err)
	}
	// Non-vetoed methods pass.
	if _, err := cl.Stub(addr, "trees").Call(context.Background(), "Calls"); err != nil {
		t.Fatal(err)
	}
}

func TestClientInterceptorSkipWithoutErrorIsAnError(t *testing.T) {
	ic := func(ctx context.Context, info CallInfo, next func(context.Context) error) error {
		return nil // buggy interceptor: neither calls next nor errors
	}
	cl, addr, _ := buildInterceptEnv(t, ic, nil)
	_, err := cl.Stub(addr, "trees").Call(context.Background(), "Calls")
	if err == nil || !strings.Contains(err.Error(), "skipped the call") {
		t.Fatalf("silent skip must be loud: %v", err)
	}
}

// TestServerInterceptorSkipWithoutErrorIsAnError holds the server to the
// client's rule, for methods with no result to miss: one that returns
// nothing (Foo) and one that returns only an error (Fail).
func TestServerInterceptorSkipWithoutErrorIsAnError(t *testing.T) {
	ic := func(ctx context.Context, info CallInfo, next func(context.Context) error) error {
		return nil // buggy interceptor: neither calls next nor errors
	}
	cl, addr, _ := buildInterceptEnv(t, nil, ic)
	stub := cl.Stub(addr, "trees")
	root, _, _, _, _ := paperRTree()
	if _, err := stub.Call(context.Background(), "Foo", root); err == nil || !strings.Contains(err.Error(), "skipped the call") {
		t.Fatalf("Foo: silent skip must be loud: %v", err)
	}
	if root.Left == nil {
		t.Fatal("Foo: a skipped call restored a mutation it never made")
	}
	if _, err := stub.Call(context.Background(), "Fail"); err == nil || !strings.Contains(err.Error(), "skipped the call") {
		t.Fatalf("Fail: silent skip must be loud: %v", err)
	}
}

func TestServerInterceptorObservesAndVetoes(t *testing.T) {
	var served atomic.Int64
	ic := func(ctx context.Context, info CallInfo, next func(context.Context) error) error {
		served.Add(1)
		if info.Method == "Fail" {
			return errors.New("server policy: Fail is disabled")
		}
		return next(ctx)
	}
	cl, addr, _ := buildInterceptEnv(t, nil, ic)
	ctx := context.Background()
	rets, err := cl.Stub(addr, "trees").Call(ctx, "Div", 9, 3)
	if err != nil || rets[0].(int) != 3 {
		t.Fatalf("%v %v", rets, err)
	}
	_, err = cl.Stub(addr, "trees").Call(ctx, "Fail")
	if err == nil || !strings.Contains(err.Error(), "policy") {
		t.Fatalf("server veto lost: %v", err)
	}
	if served.Load() != 2 {
		t.Fatalf("server interceptor ran %d times", served.Load())
	}
}

func TestInterceptorsComposeWithRestore(t *testing.T) {
	// Interceptors must not disturb the restore path.
	passthrough := func(ctx context.Context, info CallInfo, next func(context.Context) error) error {
		return next(ctx)
	}
	cl, addr, _ := buildInterceptEnv(t, passthrough, passthrough)
	root, a1, _, _, _ := paperRTree()
	if _, err := cl.Stub(addr, "trees").Call(context.Background(), "Foo", root); err != nil {
		t.Fatal(err)
	}
	if a1.Data != 0 || root.Left != nil {
		t.Fatal("restore broken under interceptors")
	}
}

// TestInterceptorContractOnEveryShape holds interceptors to the contract
// intercept enforces on every call: a client interceptor wraps the blocking
// and the one-way shape once per call, vetoing a one-way call keeps its
// frame off the wire, and an interceptor on either end that calls next
// twice runs the method once, its second next failing.
func TestInterceptorContractOnEveryShape(t *testing.T) {
	veto := errors.New("vetoed by policy")
	for _, row := range []struct {
		name     string
		onServer bool
		mode     string // "count", "veto", "twice" or "at once" (twice, concurrently)
		oneWay   bool
		wantErr  error
		calls    int // Foo or Tick executions on the server
	}{
		{"client counts Call", false, "count", false, nil, 1},
		{"client counts CallOneWay", false, "count", true, nil, 1},
		{"client vetoes CallOneWay", false, "veto", true, veto, 0},
		{"client calls next twice", false, "twice", false, nil, 1},
		{"server calls next twice", true, "twice", false, nil, 1},
		{"client calls next twice at once", false, "at once", false, nil, 1},
	} {
		t.Run(row.name, func(t *testing.T) {
			var runs atomic.Int64
			second := make(chan error, 1)
			ic := func(ctx context.Context, info CallInfo, next func(context.Context) error) error {
				runs.Add(1)
				switch row.mode {
				case "veto":
					return veto
				case "twice":
					err := next(ctx)
					second <- next(ctx)
					return err
				case "at once":
					errs := make(chan error, 2)
					for range 2 {
						go func() { errs <- next(ctx) }()
					}
					err, refused := <-errs, <-errs
					if err != nil {
						err, refused = refused, err
					}
					second <- refused
					return err
				}
				return next(ctx)
			}
			var cl *Client
			var addr string
			var svc *TreeService
			if row.onServer {
				cl, addr, svc = buildInterceptEnv(t, nil, ic)
			} else {
				cl, addr, svc = buildInterceptEnv(t, ic, nil)
			}
			stub, ctx := cl.Stub(addr, "trees"), context.Background()
			root, _, _, _, _ := paperRTree()
			var err error
			if row.oneWay {
				err = stub.CallOneWay(ctx, "Tick")
			} else {
				_, err = stub.Call(ctx, "Foo", root)
			}
			if !errors.Is(err, row.wantErr) {
				t.Fatalf("call: err = %v, want %v", err, row.wantErr)
			}
			if runs.Load() != 1 {
				t.Errorf("interceptor ran %d times, want once", runs.Load())
			}
			// A one-way method runs after CallOneWay returns.
			for deadline := time.Now().Add(5 * time.Second); svc.Calls() < row.calls && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if got := svc.Calls(); got != row.calls {
				t.Errorf("server ran the method %d times, want %d", got, row.calls)
			}
			if !row.oneWay && root.Left != nil {
				t.Error("Foo's restore did not commit")
			}
			if row.calls == 0 {
				if m := cl.Metrics(); m.Attempts != 0 || m.OneWays != 0 {
					t.Errorf("a vetoed call went out: %d attempts, %d one-ways", m.Attempts, m.OneWays)
				}
			}
			if row.mode == "twice" || row.mode == "at once" {
				select { // the interceptor returned before the call did
				case err := <-second:
					if err == nil || !strings.Contains(err.Error(), "called next more than once") {
						t.Errorf("second next: %v, want the more-than-once error", err)
					}
				default:
					t.Error("the interceptor's second next never returned")
				}
			}
		})
	}
}
