package rmi

import (
	"maps"
	"sync"
	"sync/atomic"

	"nrmi/internal/transport"
)

// clientMetrics is the client-side cumulative counter block; every field is
// monotonic. It mirrors serverMetrics so operators can read both ends of a
// path with the same vocabulary.
type clientMetrics struct {
	calls            atomic.Int64
	errors           atomic.Int64
	attempts         atomic.Int64
	retries          atomic.Int64
	dials            atomic.Int64
	reconnects       atomic.Int64
	bytesSent        atomic.Int64
	bytesReceived    atomic.Int64
	payloadsReleased atomic.Int64

	// Async counters: promises issued by CallAsync, and promises
	// relinquished via Abandon before consumption.
	asyncIssued       atomic.Int64
	promisesAbandoned atomic.Int64

	// evictionCauses tallies pooled connections discarded because the
	// health check found them dead, keyed by the root-cause label from
	// evictionCause.
	causeMu        sync.Mutex
	evictionCauses map[string]int64
}

// noteEviction records the cause of one dead-connection eviction.
func (m *clientMetrics) noteEviction(cause string) {
	m.causeMu.Lock()
	if m.evictionCauses == nil {
		m.evictionCauses = make(map[string]int64)
	}
	m.evictionCauses[cause]++
	m.causeMu.Unlock()
}

// ClientMetrics is a point-in-time snapshot of a client's cumulative
// counters, the caller-side counterpart of Metrics. All counters are
// monotonically non-decreasing for the lifetime of the Client.
type ClientMetrics struct {
	// CallsIssued is the number of remote invocations started (each counted
	// once, however many attempts it took).
	CallsIssued int64
	// CallErrors is how many of those invocations ultimately failed, after
	// the retry policy was exhausted. CallsIssued ≥ CallErrors always.
	CallErrors int64
	// Attempts is the number of request sends, including the first attempt
	// of every call. Attempts ≥ CallsIssued always.
	Attempts int64
	// Retries is the number of re-sends (attempts beyond a call's first);
	// Attempts == CallsIssued + Retries once all in-flight calls settle.
	Retries int64
	// Dials is the number of transport connections successfully opened.
	Dials int64
	// Reconnects is how many of those dials replaced a pooled connection
	// found dead, so Dials - Reconnects is the number of first connections
	// per address.
	Reconnects int64
	// BytesSent is the total encoded request bytes handed to the transport
	// (counted once per call; retries re-send the same bytes and are not
	// re-counted).
	BytesSent int64
	// BytesReceived is the total decoded response bytes consumed by
	// successful calls.
	BytesReceived int64
	// PayloadsReleased counts pooled reply payloads returned to the
	// transport buffer pool — the ownership ledger the payload leak tests
	// audit against.
	PayloadsReleased int64
	// EvictionCauses tallies pooled connections discarded because the
	// health check found them dead, by root cause ("EOF", "transport:
	// connection closed", ...), so a fleet operator can tell peer
	// restarts from partitions without scraping logs. Every eviction is
	// a reconnect, so the tallies sum to Reconnects. Nil until the first
	// eviction; the map is a copy and safe to retain.
	EvictionCauses map[string]int64
	// EngineFallbacks is never incremented; it stays for its readers, benchmark/workload.go and benchmark/report.go.
	EngineFallbacks int64
	// AsyncIssued counts promises successfully issued by CallAsync. Each
	// also counts under CallsIssued when it settles (Wait or Abandon).
	AsyncIssued int64
	// PromisesAbandoned counts promises relinquished via Abandon before
	// consumption; each contributes one CallError with ErrPromiseAbandoned.
	PromisesAbandoned int64
}

// Metrics returns a snapshot of the client's counters. Counters are read
// individually, so a snapshot taken during concurrent calls may be skewed
// by in-flight updates, but each counter is itself exact and monotonic.
func (c *Client) Metrics() ClientMetrics {
	m := ClientMetrics{
		CallsIssued:       c.metrics.calls.Load(),
		CallErrors:        c.metrics.errors.Load(),
		Attempts:          c.metrics.attempts.Load(),
		Retries:           c.metrics.retries.Load(),
		Dials:             c.metrics.dials.Load(),
		Reconnects:        c.metrics.reconnects.Load(),
		BytesSent:         c.metrics.bytesSent.Load(),
		BytesReceived:     c.metrics.bytesReceived.Load(),
		PayloadsReleased:  c.metrics.payloadsReleased.Load(),
		AsyncIssued:       c.metrics.asyncIssued.Load(),
		PromisesAbandoned: c.metrics.promisesAbandoned.Load(),
	}
	c.metrics.causeMu.Lock()
	m.EvictionCauses = maps.Clone(c.metrics.evictionCauses)
	c.metrics.causeMu.Unlock()
	return m
}

// releasePayload returns a pooled reply payload to the transport pool and
// counts it. All client-side payload releases go through here so the
// ownership ledger (PayloadsReleased) stays complete.
func (c *Client) releasePayload(p []byte) {
	if p != nil {
		c.metrics.payloadsReleased.Add(1)
	}
	transport.ReleasePayload(p)
}
