package rmi

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nrmi/internal/transport"
	"nrmi/internal/wire"
)

// TestMetricsRejectedCallsExcludedFromBytesIn is the accounting regression
// for request-size rejection: a MaxRequestBytes refusal must count in
// CallsRejected and contribute to neither CallsServed nor BytesIn — the
// method never ran and the payload was never decoded.
func TestMetricsRejectedCallsExcludedFromBytesIn(t *testing.T) {
	// The limit is one byte under what the request encodes to, as an
	// unlimited server counts it.
	open := newDegradeEnv(t, nil, nil)
	if _, err := open.client.Stub("server", "gate").Call(context.Background(), "Quick", chaosTree()); err != nil {
		t.Fatal(err)
	}
	limit := int(open.srv.Metrics().BytesIn) - 1
	env := newDegradeEnv(t, func(o *Options) { o.MaxRequestBytes = limit }, nil)
	stub := env.client.Stub("server", "gate")
	_, err := stub.Call(context.Background(), "Quick", chaosTree())
	if err == nil {
		t.Fatalf("a request one byte over MaxRequestBytes = %d was not rejected", limit)
	}
	m := env.srv.Metrics()
	if m.CallsRejected != 1 {
		t.Errorf("CallsRejected = %d, want 1", m.CallsRejected)
	}
	if m.CallsServed != 0 || m.CallErrors != 0 {
		t.Errorf("rejected call leaked into served/errors: %+v", m)
	}
	if m.BytesIn != 0 {
		t.Errorf("BytesIn = %d after a rejected request, want 0 (rejections are excluded)", m.BytesIn)
	}
}

// TestRetiredFlagFrameRefusedUnderRequestCap: flag 0x02 once made every
// receiver inflate the payload before MaxRequestBytes saw it, and these 64 KiB
// of DEFLATE (zeros, two bits per 258 of them) inflate to 64 MiB. The
// transport now refuses the frame from its header and closes the connection:
// no reply, no method, nothing counted, and the server's heap stays under
// the cap.
func TestRetiredFlagFrameRefusedUnderRequestCap(t *testing.T) {
	const maxRequest = 1 << 20
	env := newDegradeEnv(t, func(o *Options) { o.MaxRequestBytes = maxRequest }, nil)
	bomb := append([]byte{0xec, 0xc1, 0x01, 0x01, 0, 0, 0, 0x80, 0x90, 0xfe, 0xaf, 0xee, 0x08, 0x0a}, make([]byte, 65000)...)
	frame := make([]byte, 16, 16+len(bomb))
	binary.BigEndian.PutUint16(frame[0:2], 0x4E52)
	frame[2], frame[3] = transport.MsgCall, 0x02
	binary.BigEndian.PutUint64(frame[4:12], 1)
	binary.BigEndian.PutUint32(frame[12:16], uint32(len(bomb)))
	frame = append(frame, bomb...)

	nc, err := env.net.Dial("server")
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := nc.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _ = nc.Write(frame) // the server hangs up mid-frame: a short write is the expected outcome
	reply, err := io.ReadAll(nc)
	runtime.ReadMemStats(&after)
	if err != nil || len(reply) != 0 {
		t.Fatalf("server answered %d bytes (err %v); want the connection closed with no reply", len(reply), err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > maxRequest {
		t.Errorf("a %d-byte frame made the process allocate %d bytes, past MaxRequestBytes %d", len(frame), grew, maxRequest)
	}
	if m := env.srv.Metrics(); m.CallsServed != 0 || m.CallsRejected != 0 || m.BytesIn != 0 {
		t.Errorf("the refused frame reached dispatch: %+v", m)
	}
}

// TestRetiredMessageTypesRefused: frame types 3 and 4 (the naming service
// and the DGC before they were calls on reserved exports) and 7 (a ping)
// are retired. The server answers each with its unknown-type error, and
// the connection serves the next call.
func TestRetiredMessageTypesRefused(t *testing.T) {
	env := newDegradeEnv(t, nil, nil)
	nc, err := env.net.Dial("server")
	if err != nil {
		t.Fatal(err)
	}
	conn := transport.NewConn(nc)
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, typ := range []byte{3, 4, 7} {
		_, err := conn.Call(ctx, typ, []byte("probe"))
		var remote *transport.RemoteError
		if !errors.As(err, &remote) || !strings.Contains(remote.Msg, "unknown message type") {
			t.Errorf("type %d answered %v; want the unknown-type error", typ, err)
		}
	}
	var req bytes.Buffer
	enc := wire.NewEncoder(&req, wire.Options{})
	for _, err := range []error{
		enc.EncodeString(dgcName), enc.EncodeString("Clean"), enc.EncodeUint(1),
		enc.EncodeUint(uint64(semCopy)), enc.Encode(uint64(0)), enc.Flush(),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	reply, err := conn.Call(ctx, transport.MsgCall, req.Bytes())
	if err != nil {
		t.Fatalf("a call after the retired types: %v", err)
	}
	transport.ReleasePayload(reply)
}

// TestSmallRequestCannotAllocateBig: MaxRequestBytes bounds what a request
// makes the server allocate only if the decoder believes no length the
// request's own bytes cannot carry. This call is a []int64 — no registered type
// needed — of 67 108 863 elements in 25 bytes: a typed remote error, and no
// 512 MiB slice before it.
func TestSmallRequestCannotAllocateBig(t *testing.T) {
	env := newDegradeEnv(t, func(o *Options) { o.MaxRequestBytes = 1024 }, nil)
	var req bytes.Buffer
	enc := wire.NewEncoder(&req, wire.Options{})
	for _, err := range []error{
		enc.EncodeString("gate"), enc.EncodeString("Quick"), enc.EncodeUint(1),
		enc.EncodeUint(uint64(semCopy)), enc.Encode([]int64{}), enc.Flush(),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	// The empty slice's length is the last byte.
	payload := binary.AppendUvarint(req.Bytes()[:req.Len()-1], 1<<26-1)

	nc, err := env.net.Dial("server")
	if err != nil {
		t.Fatal(err)
	}
	conn := transport.NewConn(nc)
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = conn.Call(ctx, transport.MsgCall, payload)
	runtime.ReadMemStats(&after)
	var remote *transport.RemoteError
	if !errors.As(err, &remote) || !strings.Contains(remote.Msg, "decoding argument 0") {
		t.Errorf("a %d-byte request was answered %v; want a remote decoding error", len(payload), err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("a %d-byte request made the process allocate %d KiB", len(payload), grew>>10)
	}
	if m := env.srv.Metrics(); m.CallsServed != 1 || m.CallErrors != 1 {
		t.Errorf("served/errors = %d/%d, want 1/1", m.CallsServed, m.CallErrors)
	}
}

// TestMetricsCancelledCallCountsEverywhere pins the documented semantics
// of CallsCancelled: a call whose propagated deadline expires during
// execution is served, errored, AND cancelled — one event, three
// counters.
func TestMetricsCancelledCallCountsEverywhere(t *testing.T) {
	env := newDegradeEnv(t, nil, func(o *Options) { o.CallTimeout = 50 * time.Millisecond })
	stub := env.client.Stub("server", "gate")
	if _, err := stub.Call(context.Background(), "WaitCtx", chaosTree()); err == nil {
		t.Fatal("abandoned call succeeded")
	}
	// The server finishes its accounting asynchronously after the client
	// gave up; poll until the cancellation lands.
	deadline := time.Now().Add(5 * time.Second)
	for env.srv.Metrics().CallsCancelled == 0 {
		if time.Now().After(deadline) {
			t.Fatal("CallsCancelled never counted")
		}
		time.Sleep(time.Millisecond)
	}
	m := env.srv.Metrics()
	if m.CallsServed != 1 || m.CallErrors != 1 || m.CallsCancelled != 1 {
		t.Errorf("served/errors/cancelled = %d/%d/%d, want 1/1/1", m.CallsServed, m.CallErrors, m.CallsCancelled)
	}
	if m.CallsAbandoned != 0 {
		t.Errorf("CallsAbandoned = %d for an executed call, want 0", m.CallsAbandoned)
	}
	close(env.svc.release)
}

// TestMetricsAbandonedBeforeDispatch drives the pre-dispatch abandonment
// path directly: a call whose context is already dead when it clears
// admission must count ONLY in CallsAbandoned. Before the CallsAbandoned
// split this path incremented CallsCancelled without CallsServed or
// CallErrors, silently breaking CallsServed ≥ CallErrors ≥ CallsCancelled.
func TestMetricsAbandonedBeforeDispatch(t *testing.T) {
	srv, err := NewServer("x", Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.handle(ctx, transport.MsgCall, []byte("never decoded")); err == nil {
		t.Fatal("abandoned dispatch returned no error")
	}
	m := srv.Metrics()
	if m.CallsAbandoned != 1 {
		t.Errorf("CallsAbandoned = %d, want 1", m.CallsAbandoned)
	}
	if m.CallsServed != 0 || m.CallErrors != 0 || m.CallsCancelled != 0 || m.BytesIn != 0 {
		t.Errorf("abandonment leaked into other counters: %+v", m)
	}
}

// monotonic fails the test if any counter in cur regressed below prev.
func monotonic(t *testing.T, label string, prev, cur []int64) {
	t.Helper()
	for i := range cur {
		if cur[i] < prev[i] {
			t.Errorf("%s counter %d regressed: %d -> %d", label, i, prev[i], cur[i])
		}
	}
}

func serverCounters(m Metrics) []int64 {
	return []int64{m.CallsServed, m.CallErrors, m.BytesIn, m.BytesOut, m.ObjectsRestored,
		m.CallsRejected, m.CallsUnavailable, m.CallsCancelled, m.CallsAbandoned, int64(m.DrainDuration)}
}

func clientCounters(m ClientMetrics) []int64 {
	return []int64{m.CallsIssued, m.CallErrors, m.Attempts, m.Retries, m.Dials,
		m.Reconnects, m.BytesSent, m.BytesReceived}
}

// TestMetricsSnapshotInvariantsUnderStress hammers Server.Metrics and
// Client.Metrics while a mixed workload (successes, unknown-method errors,
// deadline cancellations) runs, asserting that every counter is monotonic
// across snapshots and that the disposition invariant CallsServed ≥
// CallErrors ≥ CallsCancelled holds at every instant. Run under -race this
// is also the data-race proof for the metrics paths.
func TestMetricsSnapshotInvariantsUnderStress(t *testing.T) {
	env := newDegradeEnv(t,
		func(o *Options) { o.MaxConcurrentCalls = 4 },
		func(o *Options) {
			o.CallTimeout = 5 * time.Millisecond
			o.Retry = RetryPolicy{MaxAttempts: 2, Seed: 7}
		})
	// WaitCtx parks one token per call; nothing in this test releases the
	// gate, so drain the tokens to keep cancelled bodies from blocking.
	finished := make(chan struct{})
	defer close(finished)
	go func() {
		for {
			select {
			case <-env.svc.entered:
			case <-finished:
				return
			}
		}
	}()
	stub := env.client.Stub("server", "gate")

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Snapshot watchers: one per endpoint, spinning as fast as they can.
	watch := func(check func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					check()
				}
			}
		}()
	}
	prevSrv := serverCounters(env.srv.Metrics())
	var srvMu sync.Mutex
	watch(func() {
		m := env.srv.Metrics()
		if m.CallsServed < m.CallErrors || m.CallErrors < m.CallsCancelled {
			t.Errorf("disposition invariant violated: served=%d errors=%d cancelled=%d",
				m.CallsServed, m.CallErrors, m.CallsCancelled)
		}
		cur := serverCounters(m)
		srvMu.Lock()
		monotonic(t, "server", prevSrv, cur)
		prevSrv = cur
		srvMu.Unlock()
	})
	prevCl := clientCounters(env.client.Metrics())
	var clMu sync.Mutex
	watch(func() {
		m := env.client.Metrics()
		if m.CallsIssued < m.CallErrors {
			t.Errorf("client invariant violated: issued=%d errors=%d", m.CallsIssued, m.CallErrors)
		}
		if m.Attempts < m.CallsIssued {
			t.Errorf("client invariant violated: attempts=%d < issued=%d", m.Attempts, m.CallsIssued)
		}
		cur := clientCounters(m)
		clMu.Lock()
		monotonic(t, "client", prevCl, cur)
		prevCl = cur
		clMu.Unlock()
	})

	const workers, per = 6, 30
	var work sync.WaitGroup
	var quickOK atomic.Int64
	for w := 0; w < workers; w++ {
		work.Add(1)
		go func(w int) {
			defer work.Done()
			ctx := context.Background()
			for i := 0; i < per; i++ {
				switch (w + i) % 3 {
				case 0:
					// Quick may still time out while WaitCtx calls hold every
					// slot; any outcome is a valid disposition to account for.
					if _, err := stub.Call(ctx, "Quick", chaosTree()); err == nil {
						quickOK.Add(1)
					}
				case 1:
					if _, err := stub.Call(ctx, "NoSuchMethod", chaosTree()); err == nil {
						t.Error("unknown method succeeded")
					}
				case 2:
					if _, err := stub.Call(ctx, "WaitCtx", chaosTree()); err == nil {
						t.Error("deadline-doomed call succeeded")
					}
				}
			}
		}(w)
	}
	work.Wait()
	close(stop)
	wg.Wait()

	// Settle: the server counts cancellations asynchronously after the
	// client returns; wait for the last handlers to finish accounting.
	deadline := time.Now().Add(5 * time.Second)
	var m Metrics
	for {
		m = env.srv.Metrics()
		if m.CallsCancelled >= workers*per/3 || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if m.CallsServed == 0 || m.CallErrors == 0 || m.CallsCancelled == 0 {
		t.Errorf("workload did not exercise all dispositions: %+v", m)
	}
	if quickOK.Load() == 0 {
		t.Error("no Quick call ever succeeded; the success disposition went unexercised")
	}
	if cm := env.client.Metrics(); cm.Retries == 0 {
		t.Errorf("retry policy never fired: %+v", cm)
	}
}
