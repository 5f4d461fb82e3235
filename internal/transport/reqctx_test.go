package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"nrmi/internal/netsim"
)

// requestContexts are the two contexts a budgeted request could run under:
// the standard library's, which is the specification, and the server's.
var requestContexts = []struct {
	name string
	make func(parent context.Context, deadline time.Time) (ctx context.Context, end func())
}{
	{"WithDeadline", func(parent context.Context, deadline time.Time) (context.Context, func()) {
		return context.WithDeadline(parent, deadline)
	}},
	{"reqCtx", func(parent context.Context, deadline time.Time) (context.Context, func()) {
		rc := &reqCtx{parent: parent, deadline: deadline}
		return rc, rc.stop
	}},
}

// ended polls Err, never Done, until ctx has ended.
func ended(t *testing.T, ctx context.Context) error {
	t.Helper()
	eventually(t, "the context to end", func() bool { return ctx.Err() != nil })
	return ctx.Err()
}

// await waits for ch, failing after 10s.
func await[T any](t *testing.T, ch <-chan T) (v T) {
	t.Helper()
	select {
	case v = <-ch:
	case <-time.After(10 * time.Second):
		t.Fatal("nothing arrived in 10s")
	}
	return v
}

func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

type ctxKey struct{}

// TestRequestContextMatchesWithDeadline: the context of a request with a
// budget builds no timer until its first Done, and is observably
// context.WithDeadline cancelled when the handler returns. Each case runs on
// both and must read the same; cancelling the parent is Server.Close.
func TestRequestContextMatchesWithDeadline(t *testing.T) {
	const short = 20 * time.Millisecond
	cases := []struct {
		name   string
		budget time.Duration
		run    func(t *testing.T, ctx context.Context, end, closeServer func(), deadline time.Time) string
		want   string
	}{
		{"Deadline", time.Hour, func(_ *testing.T, ctx context.Context, _, _ func(), deadline time.Time) string {
			dl, ok := ctx.Deadline()
			return fmt.Sprint(ok, dl.Equal(deadline))
		}, "true true"},
		{"Err before expiry", time.Hour, func(_ *testing.T, ctx context.Context, _, _ func(), _ time.Time) string {
			return fmt.Sprint(ctx.Err(), closed(ctx.Done()), ctx.Err())
		}, "<nil> false <nil>"},
		{"Err after expiry without Done", short, func(t *testing.T, ctx context.Context, _, closeServer func(), deadline time.Time) string {
			err := ended(t, ctx)
			closeServer()
			return fmt.Sprint(err, !time.Now().Before(deadline), ctx.Err())
		}, "context deadline exceeded true context deadline exceeded"},
		{"Err after expiry after Done", short, func(t *testing.T, ctx context.Context, _, _ func(), deadline time.Time) string {
			await(t, ctx.Done())
			return fmt.Sprint(!time.Now().Before(deadline), ctx.Err())
		}, "true context deadline exceeded"},
		{"Done closes at expiry", short, func(t *testing.T, ctx context.Context, _, _ func(), deadline time.Time) string {
			done := ctx.Done()
			closedEarly := closed(done)
			await(t, done)
			return fmt.Sprint(closedEarly, !time.Now().Before(deadline), ctx.Done() == done)
		}, "false true true"},
		{"Server.Close cancels it", time.Hour, func(t *testing.T, ctx context.Context, _, closeServer func(), _ time.Time) string {
			done := ctx.Done()
			closeServer()
			await(t, done)
			return fmt.Sprint(ctx.Err(), context.Cause(ctx))
		}, "context canceled context canceled"},
		{"Server.Close without Done", time.Hour, func(t *testing.T, ctx context.Context, _, closeServer func(), _ time.Time) string {
			closeServer()
			err := ctx.Err()
			return fmt.Sprint(err, closed(ctx.Done()))
		}, "context canceled true"},
		{"handler returned", time.Hour, func(t *testing.T, ctx context.Context, end, _ func(), _ time.Time) string {
			end()
			err := ctx.Err()
			return fmt.Sprint(err, closed(ctx.Done()), context.Cause(ctx), ctx.Err())
		}, "context canceled true context canceled context canceled"},
		{"handler returned after Done", time.Hour, func(t *testing.T, ctx context.Context, end, _ func(), _ time.Time) string {
			done := ctx.Done()
			end()
			await(t, done)
			return fmt.Sprint(ctx.Err(), context.Cause(ctx))
		}, "context canceled context canceled"},
		{"handler returned after expiry", short, func(t *testing.T, ctx context.Context, end, _ func(), _ time.Time) string {
			await(t, ctx.Done())
			end()
			return fmt.Sprint(ctx.Err(), context.Cause(ctx))
		}, "context deadline exceeded context deadline exceeded"},
		{"WithCancel child", short, func(t *testing.T, ctx context.Context, _, _ func(), deadline time.Time) string {
			child, cancel := context.WithCancel(ctx)
			defer cancel()
			await(t, child.Done())
			return fmt.Sprint(!time.Now().Before(deadline), child.Err(), context.Cause(child))
		}, "true context deadline exceeded context deadline exceeded"},
		{"AfterFunc at expiry", short, func(t *testing.T, ctx context.Context, _, _ func(), deadline time.Time) string {
			at := make(chan time.Time, 1)
			context.AfterFunc(ctx, func() { at <- time.Now() })
			return fmt.Sprint(!await(t, at).Before(deadline), ctx.Err())
		}, "true context deadline exceeded"},
		{"Cause before expiry", time.Hour, func(_ *testing.T, ctx context.Context, _, _ func(), _ time.Time) string {
			return fmt.Sprint(context.Cause(ctx))
		}, "<nil>"},
		{"Cause after expiry", short, func(t *testing.T, ctx context.Context, _, _ func(), _ time.Time) string {
			ended(t, ctx)
			return fmt.Sprint(context.Cause(ctx))
		}, "context deadline exceeded"},
		{"Value", time.Hour, func(_ *testing.T, ctx context.Context, _, _ func(), _ time.Time) string {
			return fmt.Sprintf("%v %v %v", ctx.Value(ctxKey{}), ctx.Value("absent"), IsOneWay(ctx))
		}, "parent's <nil> false"},
	}
	for _, tc := range cases {
		for _, rc := range requestContexts {
			t.Run(tc.name+"/"+rc.name, func(t *testing.T) {
				parent, closeServer := context.WithCancel(context.WithValue(context.Background(), ctxKey{}, "parent's"))
				defer closeServer()
				deadline := time.Now().Add(tc.budget)
				ctx, end := rc.make(parent, deadline)
				defer end()
				if got := tc.run(t, ctx, end, closeServer, deadline); got != tc.want {
					t.Fatalf("got %q, want %q", got, tc.want)
				}
			})
		}
	}

	t.Run("no timer until Done", func(t *testing.T) {
		rc := &reqCtx{parent: context.Background(), deadline: time.Now().Add(time.Hour)}
		_, _ = rc.Deadline()
		_ = rc.Err()
		_ = rc.Value(ctxKey{})
		_ = IsOneWay(rc)
		if rc.armed != nil {
			t.Fatal("Deadline, Err or Value armed the timer")
		}
		rc.Done()
		if rc.armed == nil {
			t.Fatal("Done did not arm the context")
		}
		rc.stop()
		if !errors.Is(rc.Err(), context.Canceled) {
			t.Fatalf("stopped: %v", rc.Err())
		}
	})

	// Through a server: a budgeted frame's handler runs under the request
	// context, which ends once the handler has returned.
	t.Run("served", func(t *testing.T) {
		got := make(chan context.Context, 1)
		c := startPair(t, func(ctx context.Context, _ byte, p []byte) ([]byte, error) {
			got <- ctx
			return p, nil
		})
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		p, err := c.Call(ctx, MsgCall, []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		ReleasePayload(p)
		served := await(t, got)
		if _, ok := served.(*reqCtx); !ok {
			t.Fatalf("handler ran under %T, want the request context", served)
		}
		if err := ended(t, served); !errors.Is(err, context.Canceled) {
			t.Fatalf("after the handler returned: %v, want context.Canceled", err)
		}
	})
}

// TestSubMicrosecondBudgetKeepsItsDeadline: the wire counts a budget in
// whole microseconds. One under 1 µs rounds up rather than down to a
// flagged zero; a flagged zero from a peer is already spent, not "no
// deadline"; and a budget past time.Duration's range clamps, not wraps.
func TestSubMicrosecondBudgetKeepsItsDeadline(t *testing.T) {
	budget := func(us uint64) []byte {
		w := header(frameMagic, flagDeadline, 1)
		w = binary.BigEndian.AppendUint64(w, us)
		return append(w, 'x')
	}
	sub, err := appendFrame(nil, frame{msgType: MsgCall, reqID: 42, deadline: 500 * time.Nanosecond, payload: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sub, budget(1)) {
		t.Fatalf("500ns budget on the wire: % x, want 1 µs", sub)
	}
	for _, tc := range []struct {
		name string
		wire []byte
		want time.Duration
	}{
		{"500ns", sub, time.Microsecond},
		{"flagged zero", budget(0), -1},
		{"max uint64", budget(math.MaxUint64), math.MaxInt64 / 1000 * time.Microsecond},
		{"largest in range", budget(math.MaxInt64 / 1000), math.MaxInt64 / 1000 * time.Microsecond},
	} {
		f, err := readFrame(bytes.NewReader(tc.wire))
		if err != nil {
			t.Fatal(err)
		}
		ReleasePayload(f.payload)
		if f.deadline != tc.want {
			t.Errorf("%s: read budget %v, want %v", tc.name, f.deadline, tc.want)
		}
	}

	// The handler of a flagged zero runs already expired.
	type seen struct {
		hasDeadline bool
		err         error
	}
	got := make(chan seen, 1)
	n := netsim.NewNetwork()
	defer n.Close()
	ln, err := n.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, func(ctx context.Context, _ byte, p []byte) ([]byte, error) {
		_, ok := ctx.Deadline()
		got <- seen{ok, ctx.Err()}
		return nil, nil
	})
	defer srv.Close()
	nc, err := n.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	go func() { _, _ = nc.Write(budget(0)) }()
	reply, err := readFrame(nc)
	if err != nil {
		t.Fatal(err)
	}
	ReleasePayload(reply.payload)
	if s := await(t, got); !s.hasDeadline || !errors.Is(s.err, context.DeadlineExceeded) {
		t.Fatalf("flagged zero budget: handler saw deadline=%t err=%v, want an expired deadline", s.hasDeadline, s.err)
	}
}
