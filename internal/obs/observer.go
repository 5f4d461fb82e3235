package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Config tunes an Observer. The zero value is usable.
type Config struct {
	// Tag labels every export from this observer, so runs of different
	// configurations (e.g. "v2" vs "v2-portable") stay distinguishable
	// after the fact.
	Tag string
	// TraceCapacity bounds the trace ring buffer (default 256 calls).
	TraceCapacity int
	// SlowN is how many slowest traces exports return by default
	// (default 32).
	SlowN int
	// AllocSampling brackets every call with allocation-counter reads and
	// feeds a per-call allocs histogram. The counter is process-global:
	// enable it only on single-threaded measurement runs.
	AllocSampling bool
}

// Observer aggregates finished calls into per-(service, method, phase)
// histograms and keeps a bounded ring of recent calls for slowest-N trace
// export. All methods are safe for concurrent use.
type Observer struct {
	cfg     Config
	methods sync.Map // CallKey -> *methodAgg
	ring    traceRing
	phaseNs [NumPhases]atomic.Int64

	pubMu     sync.Mutex
	published string
}

// phaseAgg aggregates one phase of one method.
type phaseAgg struct {
	lat   Hist
	bytes Hist
	items atomic.Int64
}

// methodAgg aggregates one (service, method) key.
type methodAgg struct {
	calls    atomic.Int64
	errors   atomic.Int64
	bytesIn  atomic.Int64
	bytesOut atomic.Int64
	total    Hist
	allocs   Hist
	phases   [NumPhases]phaseAgg
}

// New returns an Observer with the given configuration.
func New(cfg Config) *Observer {
	if cfg.TraceCapacity <= 0 {
		cfg.TraceCapacity = 256
	}
	if cfg.SlowN <= 0 {
		cfg.SlowN = 32
	}
	o := &Observer{cfg: cfg}
	o.ring.init(cfg.TraceCapacity)
	return o
}

// agg returns (creating on first use) the aggregation bucket for key.
func (o *Observer) agg(key CallKey) *methodAgg {
	if m, ok := o.methods.Load(key); ok {
		return m.(*methodAgg)
	}
	m, _ := o.methods.LoadOrStore(key, &methodAgg{})
	return m.(*methodAgg)
}

// record aggregates one finished call.
func (o *Observer) record(key CallKey, cs *CallStats) {
	m := o.agg(key)
	m.calls.Add(1)
	if cs.Err {
		m.errors.Add(1)
	}
	m.bytesIn.Add(cs.BytesIn)
	m.bytesOut.Add(cs.BytesOut)
	m.total.Observe(int64(cs.Total))
	if cs.Allocs >= 0 {
		m.allocs.Observe(cs.Allocs)
	}
	for p := 0; p < NumPhases; p++ {
		if cs.PhaseCount[p] == 0 {
			continue
		}
		o.phaseNs[p].Add(cs.PhaseNs[p])
		pa := &m.phases[p]
		pa.lat.Observe(cs.PhaseNs[p])
		pa.bytes.Observe(cs.PhaseBytes[p])
		pa.items.Add(cs.PhaseItems[p])
	}
	o.ring.add(key, cs)
}

// PhaseNs returns the nanoseconds the calls finished so far spent in each
// phase, summed over every key without the walk Snapshot makes.
func (o *Observer) PhaseNs() (ns [NumPhases]int64) {
	for p := range ns {
		ns[p] = o.phaseNs[p].Load()
	}
	return ns
}

// PhaseSnapshot is the exported aggregate of one phase of one method.
type PhaseSnapshot struct {
	// Phase is the stable phase name (see Phase.String).
	Phase string `json:"phase"`
	// Latency is the log-bucketed phase-duration histogram (nanoseconds).
	Latency HistSnapshot `json:"latency_ns"`
	// Bytes is the log-bucketed per-call bytes histogram for the phase.
	Bytes HistSnapshot `json:"bytes"`
	// Items is the cumulative object count the phase processed
	// (linear-map entries, content records, snapshot copies).
	Items int64 `json:"items"`
}

// MethodSnapshot is the exported aggregate of one (service, method) key.
type MethodSnapshot struct {
	Service  string `json:"service"`
	Method   string `json:"method"`
	Calls    int64  `json:"calls"`
	Errors   int64  `json:"errors"`
	BytesIn  int64  `json:"bytes_in"`
	BytesOut int64  `json:"bytes_out"`
	// TotalNs is the whole-call latency histogram (nanoseconds).
	TotalNs HistSnapshot `json:"total_ns"`
	// Allocs is the per-call heap-allocation histogram; only populated
	// under Config.AllocSampling.
	Allocs HistSnapshot `json:"allocs,omitempty"`
	// Phases holds one entry per phase that ran at least once.
	Phases []PhaseSnapshot `json:"phases"`
}

// PhaseMeanNs returns the mean duration of the named phase in
// nanoseconds, or 0 when the phase never ran.
func (m *MethodSnapshot) PhaseMeanNs(phase string) float64 {
	for i := range m.Phases {
		if m.Phases[i].Phase == phase {
			return m.Phases[i].Latency.Mean()
		}
	}
	return 0
}

// Snapshot is the full metrics export of an Observer.
type Snapshot struct {
	// Tag is Config.Tag, identifying the run variant.
	Tag string `json:"tag,omitempty"`
	// TakenAt is when the snapshot was assembled.
	TakenAt time.Time `json:"taken_at"`
	// Methods lists every (service, method) seen, sorted by key.
	Methods []MethodSnapshot `json:"methods"`
}

// Method returns the snapshot of one (service, method) key, or nil.
func (s *Snapshot) Method(service, method string) *MethodSnapshot {
	for i := range s.Methods {
		if s.Methods[i].Service == service && s.Methods[i].Method == method {
			return &s.Methods[i]
		}
	}
	return nil
}

// Snapshot captures the observer's aggregates. It is weakly consistent
// with concurrent recording (each counter is read atomically, the set is
// not frozen), which is the usual monitoring contract.
func (o *Observer) Snapshot() Snapshot {
	s := Snapshot{Tag: o.cfg.Tag, TakenAt: time.Now()}
	o.methods.Range(func(k, v any) bool {
		key := k.(CallKey)
		m := v.(*methodAgg)
		ms := MethodSnapshot{
			Service:  key.Service,
			Method:   key.Method,
			Calls:    m.calls.Load(),
			Errors:   m.errors.Load(),
			BytesIn:  m.bytesIn.Load(),
			BytesOut: m.bytesOut.Load(),
			TotalNs:  m.total.Snapshot(),
			Allocs:   m.allocs.Snapshot(),
		}
		for p := 0; p < NumPhases; p++ {
			pa := &m.phases[p]
			lat := pa.lat.Snapshot()
			if lat.Count == 0 {
				continue
			}
			ms.Phases = append(ms.Phases, PhaseSnapshot{
				Phase:   Phase(p).String(),
				Latency: lat,
				Bytes:   pa.bytes.Snapshot(),
				Items:   pa.items.Load(),
			})
		}
		s.Methods = append(s.Methods, ms)
		return true
	})
	sort.Slice(s.Methods, func(i, j int) bool {
		a, b := s.Methods[i], s.Methods[j]
		if a.Service != b.Service {
			return a.Service < b.Service
		}
		return a.Method < b.Method
	})
	return s
}

// Slowest returns the n slowest calls currently held by the trace ring,
// slowest first. n ≤ 0 means Config.SlowN.
func (o *Observer) Slowest(n int) []Trace {
	if n <= 0 {
		n = o.cfg.SlowN
	}
	return o.ring.slowest(n)
}
