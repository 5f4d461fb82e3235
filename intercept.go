package nrmi

import (
	"context"
	"log"
	"time"
)

// LoggingInterceptor returns an Interceptor that logs every invocation
// with its duration and outcome — the canonical observability hook.
// Install it via Options.Intercept on a client (outbound calls) or server
// (inbound dispatches). A nil logger uses the standard logger.
func LoggingInterceptor(logger *log.Logger) Interceptor {
	if logger == nil {
		logger = log.Default()
	}
	return func(ctx context.Context, info CallInfo, next func(context.Context) error) error {
		start := time.Now()
		err := next(ctx)
		where := info.Object
		if info.Addr != "" {
			where = info.Addr + "/" + info.Object
		}
		if err != nil {
			logger.Printf("nrmi: %s.%s (%d args) failed after %s: %v",
				where, info.Method, info.ArgCount, time.Since(start).Round(time.Microsecond), err)
			return err
		}
		logger.Printf("nrmi: %s.%s (%d args) ok in %s",
			where, info.Method, info.ArgCount, time.Since(start).Round(time.Microsecond))
		return nil
	}
}

// ChainInterceptors composes interceptors: the first wraps the second
// wraps the third, and so on, with the actual call innermost. Installed on
// an endpoint, a chain is held to the rule each interceptor is: however
// its members call next, the call runs at most once.
func ChainInterceptors(ics ...Interceptor) Interceptor {
	return func(ctx context.Context, info CallInfo, next func(context.Context) error) error {
		run := next
		for i := len(ics) - 1; i >= 0; i-- {
			ic := ics[i]
			inner := run
			run = func(ctx context.Context) error { return ic(ctx, info, inner) }
		}
		return run(ctx)
	}
}
