package transport

import (
	"context"
	"testing"
	"time"

	"nrmi/internal/leakcheck"
)

// TestCancelReplyRaceDoesNotLeakPayloads races client deadlines against
// reply delivery under the package's always-on ownership ledger. When a
// cancellation loses the race — the read loop has already claimed the
// pending entry and delivered the reply to the call's buffered channel —
// Conn.Call must still drain and recycle the pooled payload; before that
// drain existed, every such crossing stranded one pool buffer. The test
// also proves no path Puts a payload twice.
func TestCancelReplyRaceDoesNotLeakPayloads(t *testing.T) {
	c := startPair(t, func(_ context.Context, _ byte, p []byte) ([]byte, error) {
		out := make([]byte, len(p))
		copy(out, p)
		return out, nil
	})
	// 64 bytes: an exact pooled class, so every reply payload is tracked.
	payload := make([]byte, 64)
	const workers, per = 8, 60
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < per; i++ {
				// Deadlines straddle the reply latency, so cancellation and
				// reply delivery cross inside Conn.Call in both orders.
				d := time.Duration((i%7)+1) * 100 * time.Microsecond
				ctx, cancel := context.WithTimeout(context.Background(), d)
				p, err := c.Call(ctx, MsgCall, payload)
				cancel()
				if err == nil {
					ReleasePayload(p)
				}
			}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	// Straggler handlers and unmatched replies recycle asynchronously in
	// the read loop; Settle polls until the ledger is clean.
	leakcheck.Settle(t)
}
