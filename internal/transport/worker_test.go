package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"nrmi/internal/leakcheck"
)

// workerGoroutines counts the live server worker goroutines of the process,
// and those of them blocked receiving their next frame. The second count is
// what the tests synchronize on: Stats().Parked is raised a few instructions
// before the worker is on the channel, and only a worker that is on it gets
// the read loop's next frame.
func workerGoroutines() (live, receiving int) {
	for _, g := range leakcheck.Stacks() {
		if strings.Contains(g, "transport.(*Server).worker(") {
			live++
			if header, _, _ := strings.Cut(g, "\n"); strings.Contains(header, "[chan receive") {
				receiving++
			}
		}
	}
	return live, receiving
}

// awaitParked waits until exactly n workers are blocked on their channel.
func awaitParked(t *testing.T, n int) {
	t.Helper()
	eventually(t, fmt.Sprintf("%d parked workers", n), func() bool {
		_, receiving := workerGoroutines()
		return receiving == n
	})
}

// eventually polls cond until it holds; worker parking and exit trail the
// reply that lets a test proceed, so their counters settle asynchronously.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func echo(_ context.Context, _ byte, p []byte) ([]byte, error) { return p, nil }

// TestWorkerReuseSequential: a caller that waits for each reply keeps its
// worker warm. A frame that finds the worker parked always reuses it; the
// reply is queued before the worker parks, so a caller that does not wait
// for that can overtake it and start another — once or twice when the
// scheduler holds the finished worker back, never once per call.
func TestWorkerReuseSequential(t *testing.T) {
	srv, c := startServerPair(t, echo)
	const calls = 1000
	call := func() {
		t.Helper()
		p, err := c.Call(context.Background(), MsgCall, []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		ReleasePayload(p)
	}
	for i := 0; i < calls; i++ {
		call()
		awaitParked(t, 1)
	}
	// Served is counted once the Write carrying the reply returns, which
	// can trail the caller's return: Drain waits for it.
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Started != 1 || st.Served != calls {
		t.Fatalf("stats %+v, want %d requests on 1 worker", st, calls)
	}
	for i := 0; i < calls; i++ {
		call()
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Served != 2*calls {
		t.Fatalf("served %d requests, want %d", st.Served, 2*calls)
	}
	if cold := st.Started - 1; cold > calls/100 {
		t.Fatalf("%d back-to-back calls started %d more workers, want under 1%%", calls, cold)
	}
	eventually(t, "every worker parked", func() bool { return srv.Stats().Parked == st.Started })
}

// TestWorkersNeverQueue: 64 requests whose handlers all wait for each other
// can only finish if none of them waits for a busy worker. Afterwards the
// connection keeps at most maxIdleWorkers of the 64 workers.
func TestWorkersNeverQueue(t *testing.T) {
	const n = 64
	var barrier sync.WaitGroup
	barrier.Add(n)
	srv, c := startServerPair(t, func(ctx context.Context, _ byte, p []byte) ([]byte, error) {
		barrier.Done()
		barrier.Wait()
		return p, nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Call(ctx, MsgCall, nil); err != nil {
				t.Errorf("a request queued behind the barrier: %v", err)
			}
		}()
	}
	wg.Wait()
	// Served is counted after the reply's Write returns: Drain waits for it.
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Started != n || st.Served != n {
		t.Fatalf("stats %+v, want %d workers started for %d requests", st, n, n)
	}
	// The surplus exits instead of parking; the connection is still open.
	eventually(t, "surplus workers to exit", func() bool {
		live, receiving := workerGoroutines()
		return live <= maxIdleWorkers && receiving == live && srv.Stats().Parked == int64(live)
	})
	if parked := srv.Stats().Parked; parked < 1 {
		t.Fatalf("no worker stayed parked after the burst (parked=%d)", parked)
	}
}

// TestWorkerSurvivesPanic: safeHandle's recovery runs per request, inside
// the worker loop, so the worker that panicked serves the next request.
func TestWorkerSurvivesPanic(t *testing.T) {
	srv, c := startServerPair(t, func(_ context.Context, _ byte, p []byte) ([]byte, error) {
		if string(p) == "boom" {
			panic("kaboom")
		}
		return p, nil
	})
	_, err := c.Call(context.Background(), MsgCall, []byte("boom"))
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "transport: handler panicked: kaboom" {
		t.Fatalf("want the panic as an error reply, got %v", err)
	}
	awaitParked(t, 1)
	got, err := c.Call(context.Background(), MsgCall, []byte("after"))
	if err != nil || string(got) != "after" {
		t.Fatalf("call after panic: %q, %v", got, err)
	}
	ReleasePayload(got)
	if st := srv.Stats(); st.Started != 1 {
		t.Fatalf("started %d workers: the one that panicked was not reused", st.Started)
	}
}

// TestWorkerCarriesNothingOver: what request N did to its context and to
// the goroutine it ran on is gone when request N+1 runs on the same worker —
// the deadline context is per request, and profiler labels a handler set
// without restoring are cleared.
func TestWorkerCarriesNothingOver(t *testing.T) {
	type seen struct {
		err         error
		hasDeadline bool
		labelled    bool
	}
	second := make(chan seen, 1)
	srv, c := startServerPair(t, func(ctx context.Context, _ byte, p []byte) ([]byte, error) {
		if string(p) == "first" {
			pprof.SetGoroutineLabels(pprof.WithLabels(ctx, pprof.Labels("nrmi_test_request", "first")))
			<-ctx.Done()
			return nil, ctx.Err()
		}
		var prof bytes.Buffer
		_ = pprof.Lookup("goroutine").WriteTo(&prof, 1)
		_, hasDeadline := ctx.Deadline()
		second <- seen{ctx.Err(), hasDeadline, strings.Contains(prof.String(), "nrmi_test_request")}
		return p, nil
	})
	// The deadline ships with the frame; waiting without it lets the
	// server's own expiry come back as the reply.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	pc, err := sendCall(c, ctx, []byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = pc.Wait(context.Background())
	var se *StatusError
	if !errors.As(err, &se) || se.Code != StatusCancelled {
		t.Fatalf("first request: want the server's cancelled status, got %v", err)
	}
	awaitParked(t, 1)
	p, err := c.Call(context.Background(), MsgCall, []byte("second"))
	if err != nil {
		t.Fatal(err)
	}
	ReleasePayload(p)
	got := <-second
	if got.err != nil || got.hasDeadline {
		t.Errorf("second request sees the first one's context: err=%v deadline=%t", got.err, got.hasDeadline)
	}
	if got.labelled {
		t.Error("second request runs with the first one's profiler labels on a goroutine")
	}
	if st := srv.Stats(); st.Started != 1 {
		t.Fatalf("started %d workers, want both requests on one", st.Started)
	}
}

// TestWorkersExitWithConnection: parked workers hold up neither Drain nor
// Close, and they belong to the connection — when the client goes away they
// go too, with the server still running.
func TestWorkersExitWithConnection(t *testing.T) {
	srv, c := startServerPair(t, echo)
	if _, err := c.Call(context.Background(), MsgCall, nil); err != nil {
		t.Fatal(err)
	}
	awaitParked(t, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain with a parked worker: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	eventually(t, "the closed connection's workers to exit", func() bool {
		live, _ := workerGoroutines()
		return live == 0 && srv.Stats().Parked == 0
	})

	srv2, c2 := startServerPair(t, echo)
	if _, err := c2.Call(context.Background(), MsgCall, nil); err != nil {
		t.Fatal(err)
	}
	awaitParked(t, 1)
	closed := make(chan error, 1)
	go func() { closed <- srv2.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return with a worker parked")
	}
	// Close waits for the read loops, and they for their workers.
	if n, _ := workerGoroutines(); n != 0 {
		t.Fatalf("%d worker goroutines outlive Server.Close", n)
	}
}
