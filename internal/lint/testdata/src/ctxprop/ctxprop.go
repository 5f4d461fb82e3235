// Package ctxprop exercises the ctx-propagation check: a function with a
// named context.Context parameter contains no context.Background() or
// context.TODO() call, however the result is used.
package ctxprop

import (
	"context"
	"time"
)

func remote(ctx context.Context, arg string) error {
	_ = ctx
	_ = arg
	return nil
}

// BadDirect mints a root context inline.
func BadDirect(ctx context.Context) error {
	return remote(context.Background(), "x") // want `context\.Background\(\) in a function that receives ctx`
}

// BadTODO is the same bug with the other constructor.
func BadTODO(ctx context.Context) error {
	return remote(context.TODO(), "x") // want `context\.TODO\(\) in a function that receives ctx`
}

// BadLaundered derives a timeout from a fresh root instead of the
// inbound context: the deadline applies, the caller's cancellation does
// not. The finding is where the root is minted, not where it is used.
func BadLaundered(ctx context.Context) error {
	c, cancel := context.WithTimeout(context.Background(), time.Second) // want `context\.Background\(\) in a function that receives ctx`
	defer cancel()
	return remote(c, "x")
}

// BadSelect is the shape a call-following analysis cannot see: the fresh
// root never reaches a call, it bounds a select.
func BadSelect(ctx context.Context, slot chan struct{}) error {
	wctx, cancel := context.WithTimeout(context.Background(), time.Second) // want `context\.Background\(\) in a function that receives ctx`
	defer cancel()
	select {
	case <-slot:
		return nil
	case <-wctx.Done():
		return wctx.Err()
	}
}

// BadBranch is fresh on only one path; one path is enough.
func BadBranch(parent context.Context, cond bool) error {
	c := parent
	if cond {
		c = context.Background() // want `context\.Background\(\) in a function that receives parent`
	}
	return remote(c, "x")
}

// CallInfo and the signature below mirror nrmi.Interceptor: handing next
// a fresh root severs the caller's deadline from the handler.
type CallInfo struct{ Method string }

func BadInterceptor(ctx context.Context, info CallInfo, next func(context.Context) error) error {
	return next(context.Background()) // want `context\.Background\(\) in a function that receives ctx`
}

// BadLitWithParam: a function literal that declares its own context
// parameter is held to the same contract.
var _ = func(ctx context.Context) error {
	return remote(context.Background(), "x") // want `context\.Background\(\) in a function that receives ctx`
}

// GoodThreads passes the inbound context straight through.
func GoodThreads(ctx context.Context) error {
	return remote(ctx, "x")
}

// GoodDerived derives from the inbound context, preserving
// cancellation.
func GoodDerived(ctx context.Context) error {
	c, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	return remote(c, "x")
}

// GoodNoParam has no inbound context to thread: roots are its only
// option (e.g. main, tests, accept loops).
func GoodNoParam() error {
	return remote(context.Background(), "x")
}

// GoodBlankParam discards its context by name; there is nothing to thread.
func GoodBlankParam(_ context.Context) error {
	return remote(context.Background(), "x")
}

// GoodDetachedLit: the nested literal declares no context parameter, so
// launching deliberately detached background work stays expressible.
func GoodDetachedLit(ctx context.Context) {
	go func() {
		_ = remote(context.Background(), "bg")
	}()
	_ = remote(ctx, "fg")
}
