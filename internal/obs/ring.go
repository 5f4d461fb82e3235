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
	Allocs   int64        `json:"allocs,omitempty"`
	Phases   []TracePhase `json:"phases"`
}

// traceEntry is the ring's compact internal form: fixed arrays, no
// per-call slice allocation. The export form is built on demand.
type traceEntry struct {
	key     CallKey
	start   time.Time
	totalNs int64
	err     bool
	in, out int64
	allocs  int64
	ns      [NumPhases]int64
	bytes   [NumPhases]int64
	items   [NumPhases]int64
	count   [NumPhases]uint32
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
	e := &r.buf[r.next]
	e.key = key
	e.start = cs.Start
	e.totalNs = int64(cs.Total)
	e.err = cs.Err
	e.in, e.out = cs.BytesIn, cs.BytesOut
	e.allocs = cs.Allocs
	e.ns = cs.PhaseNs
	e.bytes = cs.PhaseBytes
	e.items = cs.PhaseItems
	e.count = cs.PhaseCount
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

	sort.Slice(entries, func(i, j int) bool { return entries[i].totalNs > entries[j].totalNs })
	if n > len(entries) {
		n = len(entries)
	}
	out := make([]Trace, 0, n)
	for _, e := range entries[:n] {
		t := Trace{
			Service:  e.key.Service,
			Method:   e.key.Method,
			Start:    e.start,
			TotalNs:  e.totalNs,
			Err:      e.err,
			BytesIn:  e.in,
			BytesOut: e.out,
		}
		if e.allocs >= 0 {
			t.Allocs = e.allocs
		}
		for p := 0; p < NumPhases; p++ {
			if e.count[p] == 0 {
				continue
			}
			t.Phases = append(t.Phases, TracePhase{
				Phase: Phase(p).String(),
				Ns:    e.ns[p],
				Bytes: e.bytes[p],
				Items: e.items[p],
			})
		}
		out = append(out, t)
	}
	return out
}
