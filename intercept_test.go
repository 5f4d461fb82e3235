package nrmi_test

import (
	"bytes"
	"context"
	"errors"
	"log"
	"strings"
	"testing"

	"nrmi"
)

func TestLoggingInterceptor(t *testing.T) {
	var buf bytes.Buffer
	logger := log.New(&buf, "", 0)

	reg := nrmi.NewRegistry()
	if err := reg.Register("Vector", Vector{}); err != nil {
		t.Fatal(err)
	}
	opts := nrmi.Options{Registry: reg, Intercept: nrmi.LoggingInterceptor(logger)}
	addr := newTCPServer(t, nrmi.Options{Registry: reg})

	cl, err := nrmi.NewClient(nrmi.TCPDialer(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	if _, err := cl.Stub(addr, "upcaser").Call(ctx, "Upcase", &Vector{Words: []string{"x"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Stub(addr, "upcaser").Call(ctx, "NoSuchMethod"); err == nil {
		t.Fatal("expected failure")
	}
	logged := buf.String()
	if !strings.Contains(logged, "upcaser.Upcase (1 args) ok in") {
		t.Fatalf("success line missing:\n%s", logged)
	}
	if !strings.Contains(logged, "upcaser.NoSuchMethod (0 args) failed after") {
		t.Fatalf("failure line missing:\n%s", logged)
	}
}

func TestChainInterceptors(t *testing.T) {
	var order []string
	mk := func(name string, veto bool) nrmi.Interceptor {
		return func(ctx context.Context, info nrmi.CallInfo, next func(context.Context) error) error {
			order = append(order, name+">")
			if veto {
				return errors.New(name + " vetoed")
			}
			err := next(ctx)
			order = append(order, "<"+name)
			return err
		}
	}
	chain := nrmi.ChainInterceptors(mk("a", false), mk("b", false))
	err := chain(context.Background(), nrmi.CallInfo{}, func(context.Context) error {
		order = append(order, "call")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "a>,b>,call,<b,<a"
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}

	order = nil
	chain = nrmi.ChainInterceptors(mk("a", false), mk("b", true), mk("c", false))
	err = chain(context.Background(), nrmi.CallInfo{}, func(context.Context) error {
		order = append(order, "call")
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "b vetoed") {
		t.Fatalf("veto lost: %v", err)
	}
	if strings.Contains(strings.Join(order, ","), "call") {
		t.Fatal("vetoed chain must not reach the call")
	}
}

func TestChainInterceptorsZeroAndOne(t *testing.T) {
	ctx := context.Background()

	// Zero interceptors: the chain is a transparent pass-through.
	calls := 0
	empty := nrmi.ChainInterceptors()
	err := empty(ctx, nrmi.CallInfo{}, func(context.Context) error {
		calls++
		return nil
	})
	if err != nil || calls != 1 {
		t.Fatalf("empty chain: err=%v calls=%d, want nil/1", err, calls)
	}
	sentinel := errors.New("inner failed")
	if err := empty(ctx, nrmi.CallInfo{}, func(context.Context) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("empty chain must forward the inner error, got %v", err)
	}

	// One interceptor: wraps the call exactly once, both directions.
	var order []string
	single := nrmi.ChainInterceptors(func(ctx context.Context, info nrmi.CallInfo, next func(context.Context) error) error {
		order = append(order, "pre")
		err := next(ctx)
		order = append(order, "post")
		return err
	})
	err = single(ctx, nrmi.CallInfo{}, func(context.Context) error {
		order = append(order, "call")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ","); got != "pre,call,post" {
		t.Fatalf("single chain order = %s", got)
	}
}

func TestChainInterceptorsShortCircuitWithoutNext(t *testing.T) {
	// An interceptor that returns without calling next short-circuits
	// the whole chain: later interceptors and the call itself never
	// run, and the caller sees exactly the interceptor's return value.
	// Vetoing with a non-nil error is the supported pattern. A chain is a
	// plain function, so returning nil without calling next (also pinned
	// here) reports success from the chain itself; installed on an
	// endpoint, the same chain fails the call instead, since the runtime
	// refuses success for a call that never ran.
	ctx := context.Background()
	var reached []string
	record := func(name string) nrmi.Interceptor {
		return func(ctx context.Context, info nrmi.CallInfo, next func(context.Context) error) error {
			reached = append(reached, name)
			return next(ctx)
		}
	}

	veto := errors.New("not allowed")
	chain := nrmi.ChainInterceptors(
		record("outer"),
		func(context.Context, nrmi.CallInfo, func(context.Context) error) error { return veto },
		record("inner"),
	)
	called := false
	err := chain(ctx, nrmi.CallInfo{}, func(context.Context) error { called = true; return nil })
	if !errors.Is(err, veto) {
		t.Fatalf("veto error lost: %v", err)
	}
	if called || strings.Join(reached, ",") != "outer" {
		t.Fatalf("short-circuit leaked past the veto: called=%v reached=%v", called, reached)
	}

	// The nil-returning drop: current behavior is a silent success.
	reached = nil
	drop := nrmi.ChainInterceptors(
		record("outer"),
		func(context.Context, nrmi.CallInfo, func(context.Context) error) error { return nil },
	)
	called = false
	if err := drop(ctx, nrmi.CallInfo{}, func(context.Context) error { called = true; return nil }); err != nil {
		t.Fatalf("nil drop must report success today: %v", err)
	}
	if called {
		t.Fatal("dropped call must not reach the target")
	}
}

// TestChainInterceptorsRunTheCallOnce installs a chain whose inner
// interceptor calls next twice on a client: the call body runs once, and
// the second next reports the misuse instead of re-sending the call.
func TestChainInterceptorsRunTheCallOnce(t *testing.T) {
	reg := nrmi.NewRegistry()
	if err := reg.Register("Vector", Vector{}); err != nil {
		t.Fatal(err)
	}
	addr := newTCPServer(t, nrmi.Options{Registry: reg})
	var second error
	twice := func(ctx context.Context, info nrmi.CallInfo, next func(context.Context) error) error {
		err := next(ctx)
		second = next(ctx)
		return err
	}
	pass := func(ctx context.Context, info nrmi.CallInfo, next func(context.Context) error) error {
		return next(ctx)
	}
	cl, err := nrmi.NewClient(nrmi.TCPDialer(), nrmi.Options{Registry: reg, Intercept: nrmi.ChainInterceptors(pass, twice)})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	v := &Vector{Words: []string{"x"}}
	if _, err := cl.Stub(addr, "upcaser").Call(context.Background(), "Upcase", v); err != nil {
		t.Fatal(err)
	}
	if m := cl.Metrics(); m.CallsIssued != 1 || m.Attempts != 1 {
		t.Fatalf("the call body ran %d times (%d attempts), want once", m.CallsIssued, m.Attempts)
	}
	if second == nil || !strings.Contains(second.Error(), "more than once") {
		t.Fatalf("second next: %v, want the more-than-once error", second)
	}
	if v.Words[0] != "X" {
		t.Fatalf("restore lost: %v", v.Words)
	}
}
