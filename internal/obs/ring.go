package obs

import (
	"sort"
	"sync"
	"time"
)

// TracePhase is one phase of an exported trace.
type TracePhase struct {
	Phase string `json:"phase"`
	Ns    int64  `json:"ns"`
	Bytes int64  `json:"bytes,omitempty"`
	Items int64  `json:"items,omitempty"`
}

// Trace is one finished call in the trace export.
type Trace struct {
	Service  string       `json:"service"`
	Method   string       `json:"method"`
	Start    time.Time    `json:"start"`
	TotalNs  int64        `json:"total_ns"`
	Err      bool         `json:"err,omitempty"`
	BytesIn  int64        `json:"bytes_in"`
	BytesOut int64        `json:"bytes_out"`
	Phases   []TracePhase `json:"phases"`
}

// traceEntry is one held call: the collector's own fixed-size record, no
// per-call slice allocation. The export form is built on demand.
type traceEntry struct {
	key CallKey
	cs  CallStats
}

// traceRing is a bounded mutex-guarded ring of recent calls. Recording
// overwrites the oldest entry; memory use is fixed at capacity.
type traceRing struct {
	mu     sync.Mutex
	buf    []traceEntry
	next   int
	filled bool
}

func (r *traceRing) init(capacity int) {
	r.buf = make([]traceEntry, capacity)
}

func (r *traceRing) add(key CallKey, cs *CallStats) {
	r.mu.Lock()
	r.buf[r.next] = traceEntry{key, *cs}
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.filled = true
	}
	r.mu.Unlock()
}

// slowest exports the n slowest held calls, slowest first.
func (r *traceRing) slowest(n int) []Trace {
	r.mu.Lock()
	live := r.buf[:r.next]
	if r.filled {
		live = r.buf
	}
	entries := make([]traceEntry, len(live))
	copy(entries, live)
	r.mu.Unlock()

	sort.Slice(entries, func(i, j int) bool { return entries[i].cs.Total > entries[j].cs.Total })
	if n > len(entries) {
		n = len(entries)
	}
	out := make([]Trace, 0, n)
	for _, e := range entries[:n] {
		cs := &e.cs
		t := Trace{
			Service:  e.key.Service,
			Method:   e.key.Method,
			Start:    cs.Start,
			TotalNs:  int64(cs.Total),
			Err:      cs.Err,
			BytesIn:  cs.BytesIn,
			BytesOut: cs.BytesOut,
		}
		for p := 0; p < NumPhases; p++ {
			if cs.PhaseCount[p] == 0 {
				continue
			}
			t.Phases = append(t.Phases, TracePhase{
				Phase: Phase(p).String(),
				Ns:    cs.PhaseNs[p],
				Bytes: cs.PhaseBytes[p],
				Items: cs.PhaseItems[p],
			})
		}
		out = append(out, t)
	}
	return out
}
