package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestNilCollectorIsInert pins the disabled path: every operation on the
// nil collector must be a no-op, because production call sites run it
// unconditionally.
func TestNilCollectorIsInert(t *testing.T) {
	c := Begin(nil, "svc", "M")
	if c != nil {
		t.Fatal("Begin(nil recorder) must return the nil collector")
	}
	sp := c.Start(PhaseEncode)
	sp.End()
	sp = c.Start(PhaseTransport)
	sp.EndBytes(10)
	sp = c.Start(PhaseDecodeReply)
	sp.EndN(1, 2)
	c.SetIO(1, 2)
	c.Finish(errors.New("x"))
}

// TestNilCollectorAllocs pins the zero-allocation contract of the
// disabled path (the basis of the <2% overhead gate).
func TestNilCollectorAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(1000, func() {
		c := Begin(nil, "svc", "M")
		for p := Phase(0); p < NumPhases; p++ {
			sp := c.Start(p)
			sp.EndBytes(1)
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
	o := New(Config{})
	run := func() {
		c := Begin(o, "svc", "M")
		sp := c.Start(PhaseEncode)
		sp.EndBytes(64)
		sp = c.Start(PhaseTransport)
		sp.EndBytes(128)
		c.SetIO(128, 64)
		c.Finish(nil)
	}
	run() // warm the method bucket
	allocs := testing.AllocsPerRun(1000, run)
	if allocs > 0 {
		t.Fatalf("enabled collector allocates %.1f objects per call in steady state, want 0", allocs)
	}
}

// TestPhaseAggregation drives known spans through an Observer and checks
// the per-phase aggregates.
func TestPhaseAggregation(t *testing.T) {
	o := New(Config{Tag: "test"})
	for i := 0; i < 5; i++ {
		c := Begin(o, "svc", "M")
		sp := c.Start(PhaseEncode)
		time.Sleep(time.Millisecond)
		sp.EndN(100, 7)
		sp = c.Start(PhaseRestoreCommit)
		sp.End()
		c.SetIO(100, 200)
		var err error
		if i == 0 {
			err = errors.New("boom")
		}
		c.Finish(err)
	}
	s := o.Snapshot()
	if s.Tag != "test" {
		t.Errorf("Tag = %q", s.Tag)
	}
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

// TestSpanEndIdempotent pins that double-End and defer-after-End add
// nothing twice.
func TestSpanEndIdempotent(t *testing.T) {
	o := New(Config{})
	c := Begin(o, "s", "m")
	sp := c.Start(PhaseEncode)
	sp.End()
	sp.End()
	sp.EndBytes(999)
	c.Finish(nil)
	snap := o.Snapshot()
	m := snap.Method("s", "m")
	if m.Phases[0].Latency.Count != 1 {
		t.Errorf("encode count = %d after double End, want 1", m.Phases[0].Latency.Count)
	}
	if m.Phases[0].Bytes.Sum != 0 {
		t.Errorf("bytes leaked through an ended span: %d", m.Phases[0].Bytes.Sum)
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
// is bounded and sorted slowest-first.
func TestTraceRingBounded(t *testing.T) {
	o := New(Config{TraceCapacity: 8, SlowN: 4})
	for i := 0; i < 20; i++ {
		cs := CallStats{
			Start:  time.Now(),
			Total:  time.Duration(i+1) * time.Millisecond, // deterministic ranking
			Allocs: -1,
		}
		cs.PhaseNs[PhaseTransport] = int64(cs.Total)
		cs.PhaseCount[PhaseTransport] = 1
		o.RecordCall(CallKey{Service: "s", Method: "m"}, &cs)
	}
	traces := o.Slowest(0)
	if len(traces) != 4 {
		t.Fatalf("Slowest(0) = %d traces, want SlowN=4", len(traces))
	}
	for i := 1; i < len(traces); i++ {
		if traces[i].TotalNs > traces[i-1].TotalNs {
			t.Fatalf("traces not sorted slowest-first: %d after %d", traces[i].TotalNs, traces[i-1].TotalNs)
		}
	}
	if traces[0].TotalNs != int64(20*time.Millisecond) {
		t.Errorf("slowest = %dns, want the 20ms call", traces[0].TotalNs)
	}
	if all := o.Slowest(100); len(all) != 8 {
		t.Errorf("ring holds %d, want capacity 8", len(all))
	}
}

// TestConcurrentRecording hammers one Observer from many goroutines; run
// under -race this is the data-race proof for the aggregation paths.
func TestConcurrentRecording(t *testing.T) {
	o := New(Config{TraceCapacity: 16})
	var wg sync.WaitGroup
	const workers, per = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c := Begin(o, "svc", "M")
				sp := c.Start(PhaseEncode)
				sp.EndBytes(int64(i))
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

// TestHandlerEndpoints scrapes the debug endpoints and decodes the JSON
// schema the obs-smoke gate validates.
func TestHandlerEndpoints(t *testing.T) {
	o := New(Config{Tag: "http"})
	c := Begin(o, "svc", "M")
	sp := c.Start(PhaseEncode)
	sp.EndBytes(10)
	c.Finish(nil)

	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("metrics endpoint JSON: %v", err)
	}
	if snap.Tag != "http" || snap.Method("svc", "M") == nil {
		t.Fatalf("metrics snapshot = %+v", snap)
	}

	tresp, err := srv.Client().Get(srv.URL + TracesPath + "?n=1")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	var traces []Trace
	if err := json.NewDecoder(tresp.Body).Decode(&traces); err != nil {
		t.Fatalf("traces endpoint JSON: %v", err)
	}
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

// publishRuns numbers TestPublish's runs: expvar names are process-wide and
// permanent, so each run (go test -count=N) takes a name of its own.
var publishRuns atomic.Int32

// TestPublish pins expvar registration semantics: idempotent per
// observer+name, an error (not a panic) on collisions.
func TestPublish(t *testing.T) {
	name := fmt.Sprintf("nrmi.test.obs.%d", publishRuns.Add(1))
	o := New(Config{})
	if err := o.Publish(name); err != nil {
		t.Fatal(err)
	}
	if err := o.Publish(name); err != nil {
		t.Errorf("re-publishing the same name: %v", err)
	}
	o2 := New(Config{})
	if err := o2.Publish(name); err == nil {
		t.Error("publishing a second observer under a taken name must fail")
	}
}

// allocSink defeats dead-code elimination in TestAllocSampling.
var allocSink []*[64]byte

// TestAllocSampling verifies Config.AllocSampling feeds the allocs
// histogram.
func TestAllocSampling(t *testing.T) {
	o := New(Config{AllocSampling: true})
	c := Begin(o, "s", "m")
	allocSink = allocSink[:0]
	// The runtime publishes a size class's allocation count when the
	// allocating P swaps that class's span out (128 of these per 8 KiB
	// span), so allocate through many spans: 100 objects can all land in
	// one and stay invisible.
	for i := 0; i < 4096; i++ {
		allocSink = append(allocSink, new([64]byte))
	}
	c.Finish(nil)
	snap := o.Snapshot()
	m := snap.Method("s", "m")
	if m.Allocs.Count != 1 || m.Allocs.Sum < 1 {
		t.Errorf("allocs histogram = %+v, want 1 sampled call with >0 allocs", m.Allocs)
	}
}
