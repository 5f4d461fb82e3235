package obs

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestNilCollectorIsInert pins the disabled path: every operation on the
// nil collector must be a no-op, because production call sites run it
// unconditionally.
func TestNilCollectorIsInert(t *testing.T) {
	c := Begin(nil, "svc", "M")
	if c != nil {
		t.Fatal("Begin(nil observer) must return the nil collector")
	}
	c.Mark(PhaseEncode, 0, 0)
	c.Mark(PhaseDecodeReply, 1, 2)
	c.SetIO(1, 2)
	c.Finish(errors.New("x"))
}

// TestNilCollectorAllocs pins the zero-allocation contract of the
// disabled path (the basis of the <2% overhead gate).
func TestNilCollectorAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(1000, func() {
		c := Begin(nil, "svc", "M")
		for p := Phase(0); p < NumPhases; p++ {
			c.Mark(p, 1, 1)
		}
		c.SetIO(1, 2)
		c.Finish(nil)
	})
	if allocs != 0 {
		t.Fatalf("nil collector allocates %.1f objects per call, want 0", allocs)
	}
}

// TestEnabledCollectorSteadyStateAllocs verifies the pooled collector
// allocates nothing per call once warm (the ring and aggregation buckets
// pre-exist after the first call).
func TestEnabledCollectorSteadyStateAllocs(t *testing.T) {
	o := New()
	run := func() {
		c := Begin(o, "svc", "M")
		c.Mark(PhaseEncode, 64, 0)
		c.Mark(PhaseTransport, 128, 0)
		c.SetIO(128, 64)
		c.Finish(nil)
	}
	run() // warm the method bucket
	allocs := testing.AllocsPerRun(1000, run)
	if allocs > 0 {
		t.Fatalf("enabled collector allocates %.1f objects per call in steady state, want 0", allocs)
	}
}

// TestPhaseAggregation drives known phases through an Observer and checks
// the per-phase aggregates.
func TestPhaseAggregation(t *testing.T) {
	o := New()
	for i := 0; i < 5; i++ {
		c := Begin(o, "svc", "M")
		time.Sleep(time.Millisecond)
		c.Mark(PhaseEncode, 100, 7)
		c.Mark(PhaseRestoreCommit, 0, 0)
		c.SetIO(100, 200)
		var err error
		if i == 0 {
			err = errors.New("boom")
		}
		c.Finish(err)
	}
	s := o.Snapshot()
	m := s.Method("svc", "M")
	if m == nil {
		t.Fatal("method svc.M missing from snapshot")
	}
	if m.Calls != 5 || m.Errors != 1 {
		t.Errorf("calls/errors = %d/%d, want 5/1", m.Calls, m.Errors)
	}
	if m.BytesIn != 500 || m.BytesOut != 1000 {
		t.Errorf("bytes in/out = %d/%d, want 500/1000", m.BytesIn, m.BytesOut)
	}
	if len(m.Phases) != 2 {
		t.Fatalf("phases = %d, want 2 (encode, restore-commit)", len(m.Phases))
	}
	enc := m.Phases[0]
	if enc.Phase != "encode" {
		t.Fatalf("first phase = %q", enc.Phase)
	}
	if enc.Latency.Count != 5 || enc.Latency.Sum < 5*int64(time.Millisecond) {
		t.Errorf("encode latency count=%d sum=%d", enc.Latency.Count, enc.Latency.Sum)
	}
	if enc.Bytes.Sum != 500 || enc.Items != 35 {
		t.Errorf("encode bytes=%d items=%d, want 500/35", enc.Bytes.Sum, enc.Items)
	}
	if mean := m.PhaseMeanNs("encode"); mean < float64(time.Millisecond) {
		t.Errorf("encode mean %.0fns below the 1ms sleep", mean)
	}
	if m.PhaseMeanNs("transport") != 0 {
		t.Error("transport phase never ran but reports a mean")
	}
}

// TestMarksTileTheCall pins the boundary model: each Mark bills the time
// since the previous boundary, so the phases are contiguous and exclusive,
// add up to the call up to its last Mark, and a phase marked twice
// accumulates both stretches.
func TestMarksTileTheCall(t *testing.T) {
	o := New()
	o.ring.init(1)
	c := Begin(o, "s", "m")
	time.Sleep(2 * time.Millisecond)
	c.Mark(PhaseEncode, 5, 1)
	time.Sleep(2 * time.Millisecond)
	c.Mark(PhaseTransport, 0, 0)
	c.Mark(PhaseEncode, 5, 1)
	time.Sleep(time.Millisecond)
	c.Finish(nil)
	tr := o.Slowest(1)[0]
	var sum int64
	for _, ph := range tr.Phases {
		sum += ph.Ns
	}
	if sum > tr.TotalNs || tr.TotalNs-sum < int64(time.Millisecond) {
		t.Errorf("phases sum to %dns of a %dns call, want all but the 1ms after the last mark", sum, tr.TotalNs)
	}
	snap := o.Snapshot()
	m := snap.Method("s", "m")
	enc, tsp := m.Phases[0], m.Phases[1]
	if enc.Latency.Count != 1 || enc.Bytes.Sum != 10 || enc.Items != 2 {
		t.Errorf("encode = %+v, want one observation of both marks", enc)
	}
	if enc.Latency.Sum < int64(2*time.Millisecond) || tsp.Latency.Sum < int64(2*time.Millisecond) {
		t.Errorf("encode %dns, transport %dns: each must hold the 2ms before its mark", enc.Latency.Sum, tsp.Latency.Sum)
	}
}

// TestHistBuckets pins the log-bucketing and quantile approximation.
func TestHistBuckets(t *testing.T) {
	var h Hist
	for _, v := range []int64{0, 1, 2, 3, 4, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 6 || s.Sum != 1010 || s.Max != 1000 {
		t.Fatalf("count/sum/max = %d/%d/%d", s.Count, s.Sum, s.Max)
	}
	// Buckets: [0,0]:1, [1,1]:1, [2,3]:2, [4,7]:1, [512,1023]:1.
	if len(s.Buckets) != 5 {
		t.Fatalf("buckets = %+v", s.Buckets)
	}
	if s.Buckets[2].Lo != 2 || s.Buckets[2].Hi != 3 || s.Buckets[2].Count != 2 {
		t.Errorf("bucket[2] = %+v", s.Buckets[2])
	}
	if s.P50 < 2 || s.P50 > 3 {
		t.Errorf("p50 = %d, want within [2,3]", s.P50)
	}
	if s.P99 != 1000 {
		t.Errorf("p99 = %d, want clamped to max 1000", s.P99)
	}
	var empty Hist
	es := empty.Snapshot()
	if es.P50 != 0 || es.Count != 0 {
		t.Errorf("empty histogram snapshot = %+v", es)
	}
}

// TestTraceRingBounded fills the ring past capacity and checks the export
// is bounded, sorted slowest-first, and slowN long by default.
func TestTraceRingBounded(t *testing.T) {
	const capacity, calls = slowN + 8, slowN + 20
	o := New()
	o.ring.init(capacity)
	for i := 0; i < calls; i++ {
		cs := CallStats{
			Start: time.Now(),
			Total: time.Duration(i+1) * time.Millisecond, // deterministic ranking
		}
		cs.PhaseNs[PhaseTransport] = int64(cs.Total)
		cs.PhaseCount[PhaseTransport] = 1
		o.record(CallKey{Service: "s", Method: "m"}, &cs)
	}
	traces := o.Slowest(0)
	if len(traces) != slowN {
		t.Fatalf("Slowest(0) = %d traces, want slowN=%d", len(traces), slowN)
	}
	for i := 1; i < len(traces); i++ {
		if traces[i].TotalNs > traces[i-1].TotalNs {
			t.Fatalf("traces not sorted slowest-first: %d after %d", traces[i].TotalNs, traces[i-1].TotalNs)
		}
	}
	if traces[0].TotalNs != int64(calls*time.Millisecond) {
		t.Errorf("slowest = %dns, want the %dms call", traces[0].TotalNs, calls)
	}
	if all := o.Slowest(100); len(all) != capacity {
		t.Errorf("ring holds %d, want capacity %d", len(all), capacity)
	}
}

// TestConcurrentRecording hammers one Observer from many goroutines; run
// under -race this is the data-race proof for the aggregation paths.
func TestConcurrentRecording(t *testing.T) {
	o := New()
	o.ring.init(16)
	var wg sync.WaitGroup
	const workers, per = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c := Begin(o, "svc", "M")
				c.Mark(PhaseEncode, int64(i), 0)
				c.Finish(nil)
				if i%10 == 0 {
					_ = o.Snapshot()
					_ = o.Slowest(4)
				}
			}
		}(w)
	}
	wg.Wait()
	snap := o.Snapshot()
	m := snap.Method("svc", "M")
	if m == nil || m.Calls != workers*per {
		t.Fatalf("calls = %v, want %d", m, workers*per)
	}
}

// TestHandlerEndpoints scrapes the debug endpoints: each answers
// application/json that decodes into its export type with no key the type
// lacks.
func TestHandlerEndpoints(t *testing.T) {
	o := New()
	c := Begin(o, "svc", "M")
	c.Mark(PhaseEncode, 10, 0)
	c.Finish(nil)

	srv := httptest.NewServer(o.Handler())
	defer srv.Close()
	scrape := func(path string, v any) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); resp.StatusCode != 200 || ct != "application/json" {
			t.Fatalf("GET %s: status %d, content-type %q, want 200 application/json", path, resp.StatusCode, ct)
		}
		dec := json.NewDecoder(resp.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(v); err != nil {
			t.Fatalf("GET %s does not match its export type: %v", path, err)
		}
	}

	var snap Snapshot
	scrape(MetricsPath, &snap)
	if snap.Method("svc", "M") == nil {
		t.Fatalf("metrics snapshot = %+v", snap)
	}
	var traces []Trace
	scrape(TracesPath+"?n=1", &traces)
	if len(traces) != 1 || traces[0].Service != "svc" || len(traces[0].Phases) == 0 {
		t.Fatalf("traces = %+v", traces)
	}

	bad, err := srv.Client().Get(srv.URL + TracesPath + "?n=bogus")
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != 400 {
		t.Errorf("bad n parameter: status %d, want 400", bad.StatusCode)
	}
}

// TestPhaseNsSumsEveryKey: PhaseNs is the per-phase total of every key the
// observer holds, the sum Snapshot's histograms carry.
func TestPhaseNsSumsEveryKey(t *testing.T) {
	o := New()
	for _, svc := range []string{"a", "#1", "#2"} {
		c := Begin(o, svc, "M")
		time.Sleep(time.Microsecond)
		c.Mark(PhaseSrvExecute, 0, 0)
		c.Mark(PhaseSrvEncode, 0, 0)
		c.Finish(nil)
	}
	var want [NumPhases]int64
	for _, m := range o.Snapshot().Methods {
		for _, p := range m.Phases {
			for i := Phase(0); i < NumPhases; i++ {
				if p.Phase == i.String() {
					want[i] += p.Latency.Sum
				}
			}
		}
	}
	if got := o.PhaseNs(); got != want || got[PhaseSrvExecute] < 3*int64(time.Microsecond) {
		t.Fatalf("PhaseNs %v, want the snapshot's sums %v", got, want)
	}
}
