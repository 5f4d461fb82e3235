// Client resilience: the retry/timeout policy layer. Following the
// separable-policy argument of the RAFDA line of work (and Schill et al.'s
// interference-free network objects), failure handling lives here as
// configuration rather than in application code — while staying inside the
// paper's Section 6.2 constraint that failures themselves remain visible:
// a call that exhausts its policy still returns its error.
//
// The invariant the layer must never break is exactly-once restore. A
// copy-restore call mutates the caller's object graph only in
// ApplyResponse, after the full response arrived; retrying a call whose
// response bytes were already being consumed could interleave two
// restores or re-execute against a half-observed outcome, so the client
// refuses it categorically (ResponseConsumedError). Everything before
// that point failed without touching the caller's graph and is fair game.
package rmi

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"nrmi/internal/transport"
)

// The backoff doubles per attempt (backoffMultiplier) and each pause is
// spread by ±backoffJitter of itself, decorrelating clients that fail
// together.
const (
	backoffMultiplier = 2
	backoffJitter     = 0.2
)

// RetryPolicy configures automatic re-sends of failed remote calls.
// The zero value disables retries (every call gets exactly one attempt).
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per call, including the
	// first; values below 2 disable retrying.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt (default 5ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 500ms).
	MaxDelay time.Duration
	// Seed seeds the jitter generator, making a client's backoff schedule
	// replayable; 0 seeds from the clock.
	Seed int64
}

// withDefaults fills unset knobs.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.BaseDelay <= 0 {
		p.BaseDelay = 5 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 500 * time.Millisecond
	}
	return p
}

// ResponseConsumedError marks a call that failed after response bytes
// were consumed. The idempotency guard: such a call is never re-sent —
// retrying it would violate exactly-once restore semantics — so the
// failure always surfaces to the application.
type ResponseConsumedError struct {
	// Method is the remote method whose response failed to apply.
	Method string
	// Err is the decode or restore error.
	Err error
}

// Error implements the error interface.
func (e *ResponseConsumedError) Error() string {
	return fmt.Sprintf("rmi: %s failed after response bytes were consumed (not retried): %v", e.Method, e.Err)
}

// Unwrap exposes the cause to errors.Is / errors.As.
func (e *ResponseConsumedError) Unwrap() error { return e.Err }

// Retryable reports whether a failed call may be safely re-sent under the
// at-least-once contract:
//
//   - remote application errors are not: the method ran and said no;
//   - consumed-response failures are not: exactly-once restore;
//   - caller cancellation is not: the caller gave up;
//   - typed server rejections (ErrUnavailable while draining,
//     ErrOverloaded from admission control) are: the server guarantees
//     the method never ran;
//   - a server-side deadline cancellation is, the same as a local
//     per-attempt timeout (at-least-once territory either way);
//   - everything else — dial errors, connection failures, per-attempt
//     deadlines — is, because a failed attempt never touched the
//     caller's graph (the §6.2 atomicity the chaos suite verifies).
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	var consumed *ResponseConsumedError
	if errors.As(err, &consumed) {
		return false
	}
	var status *transport.StatusError
	if errors.As(err, &status) {
		// Before the RemoteError check: typed statuses are server
		// *rejections*, not application outcomes.
		return true
	}
	var remote *transport.RemoteError
	if errors.As(err, &remote) {
		return false
	}
	if errors.Is(err, context.Canceled) {
		return false
	}
	return true
}

// backoff computes the pause before attempt+1, exponential with jitter.
// The jitter draw comes from the client's seeded generator so schedules
// replay under a fixed RetryPolicy.Seed.
func (c *Client) backoff(pol RetryPolicy, attempt int) time.Duration {
	d := float64(pol.BaseDelay) * math.Pow(backoffMultiplier, float64(attempt-1))
	if lim := float64(pol.MaxDelay); d > lim {
		d = lim
	}
	c.retryMu.Lock()
	f := c.retryRng.Float64()
	c.retryMu.Unlock()
	return time.Duration(d + d*backoffJitter*(2*f-1))
}
