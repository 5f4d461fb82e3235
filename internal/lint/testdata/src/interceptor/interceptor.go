// Package interceptor exercises the interceptor-discipline check. The
// types mirror the nrmi Interceptor surface by shape (the check matches
// structurally), so the package stays self-contained.
package interceptor

import (
	"context"
	"errors"
)

// CallInfo mirrors nrmi.CallInfo by name, which the signature matcher
// requires.
type CallInfo struct {
	Object string
	Method string
}

// Interceptor mirrors nrmi.Interceptor.
type Interceptor func(ctx context.Context, info CallInfo, next func(context.Context) error) error

// Drop never references next at all: the remote call can never proceed.
var Drop Interceptor = func(ctx context.Context, info CallInfo, next func(context.Context) error) error { // want `never invokes next`
	return nil
}

// Discard names the continuation _, which is the same bug spelled
// differently.
var Discard Interceptor = func(ctx context.Context, info CallInfo, _ func(context.Context) error) error { // want `discards its next parameter`
	return errors.New("nope")
}

// NilDrop passes through on the happy path, but one branch swallows the
// call and reports success.
var NilDrop Interceptor = func(ctx context.Context, info CallInfo, next func(context.Context) error) error {
	if ctx.Err() != nil {
		return nil // want `returns nil without invoking next`
	}
	return next(ctx)
}

// Double retries by hand: the remote method would execute twice.
var Double Interceptor = func(ctx context.Context, info CallInfo, next func(context.Context) error) error {
	if err := next(ctx); err == nil {
		return nil
	}
	return next(ctx) // want `more than once`
}

// Loop invokes the continuation inside a retry loop.
var Loop Interceptor = func(ctx context.Context, info CallInfo, next func(context.Context) error) error {
	var err error
	for i := 0; i < 3; i++ {
		err = next(ctx) // want `inside a loop`
	}
	return err
}

// Derive wraps the call context rather than replacing it; deriving
// keeps the parent's deadline and cancellation, so it is fine.
var Derive Interceptor = func(ctx context.Context, info CallInfo, next func(context.Context) error) error {
	return next(context.WithValue(ctx, infoKey{}, info))
}

type infoKey struct{}

// NamedDrop shows the check also covers declared functions. Its nil
// return is unreachable only dynamically; statically the path exists.
func NamedDrop(ctx context.Context, info CallInfo, next func(context.Context) error) error { // want `never invokes next`
	<-ctx.Done()
	return ctx.Err()
}

// Veto is legitimate: it refuses with a non-nil error, so the caller
// knows the call never ran.
var Veto Interceptor = func(ctx context.Context, info CallInfo, next func(context.Context) error) error {
	if info.Method == "Forbidden" {
		return errors.New("vetoed")
	}
	return next(ctx)
}

// Timing is the canonical well-behaved wrapper.
var Timing Interceptor = func(ctx context.Context, info CallInfo, next func(context.Context) error) error {
	err := next(ctx)
	if err != nil {
		return err
	}
	return nil
}

// Forward passes next along as a value (the ChainInterceptors pattern);
// direct-call analysis deliberately skips it.
var Forward Interceptor = func(ctx context.Context, info CallInfo, next func(context.Context) error) error {
	run := next
	return run(ctx)
}

// Branches calls next exactly once on every path.
var Branches Interceptor = func(ctx context.Context, info CallInfo, next func(context.Context) error) error {
	if info.Object == "fast" {
		return next(ctx)
	}
	err := next(ctx)
	return err
}
