package rmi

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"nrmi/internal/core"
	"nrmi/internal/netsim"
	"nrmi/internal/wire"
)

// buildInterceptEnv assembles a server/client pair with the given
// interceptors installed.
func buildInterceptEnv(t *testing.T, clientIC, serverIC Interceptor) (*Client, string) {
	t.Helper()
	reg := wire.NewRegistry()
	if err := reg.Register("RTree", RTree{}); err != nil {
		t.Fatal(err)
	}
	n := netsim.NewNetwork(netsim.Loopback())
	t.Cleanup(func() { n.Close() })
	srv, err := NewServer("srv", Options{Core: core.Options{Registry: reg}, Intercept: serverIC})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Export("trees", &TreeService{}); err != nil {
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
	return cl, "srv"
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
	cl, addr := buildInterceptEnv(t, ic, nil)
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
	cl, addr := buildInterceptEnv(t, ic, nil)
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
	cl, addr := buildInterceptEnv(t, ic, nil)
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
	cl, addr := buildInterceptEnv(t, nil, ic)
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
	cl, addr := buildInterceptEnv(t, nil, ic)
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
	cl, addr := buildInterceptEnv(t, passthrough, passthrough)
	root, a1, _, _, _ := paperRTree()
	if _, err := cl.Stub(addr, "trees").Call(context.Background(), "Foo", root); err != nil {
		t.Fatal(err)
	}
	if a1.Data != 0 || root.Left != nil {
		t.Fatal("restore broken under interceptors")
	}
}
