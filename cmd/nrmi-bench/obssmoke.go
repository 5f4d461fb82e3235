package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"nrmi/internal/bench"
	"nrmi/internal/obs"
	"nrmi/internal/wire"
)

// runObsSmoke is the observability smoke gate (make obs-smoke): it runs a
// scenario-III workload with a phase observer attached to both endpoints,
// serves the observer's debug endpoints on a real listener, scrapes and
// validates both JSON exports, and fails if the disabled (nil-observer)
// instrumentation path costs more than maxOverheadPct of a measured
// scenario-III call.
func runObsSmoke(maxOverheadPct float64) error {
	const size = 256
	o := obs.New(obs.Config{Tag: "obs-smoke"})
	e, err := bench.NewEnv(bench.EnvConfig{Engine: wire.EngineV2, Obs: o})
	if err != nil {
		return fmt.Errorf("obs-smoke: env: %w", err)
	}
	defer e.Close()

	spec := bench.RunSpec{Scenario: bench.ScenarioIII, Size: size, Iterations: 15, Seed: 1, Verify: true}
	cell, err := bench.RunNRMI(e, spec)
	if err != nil {
		return fmt.Errorf("obs-smoke: workload: %w", err)
	}
	callNs := cell.Millis * 1e6
	// The promise phases (async-issue, async-await) only exist on the
	// CallAsync path: issue a few on the same stub, outside the timed cell.
	if err := asyncCalls(e, spec, 3); err != nil {
		return fmt.Errorf("obs-smoke: async workload: %w", err)
	}

	// Serve the observer on a real listener and scrape it over TCP, the
	// way an operator would.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("obs-smoke: listen: %w", err)
	}
	srv := &http.Server{Handler: o.Handler()}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	snap, err := scrapeMetrics(base + obs.MetricsPath)
	if err != nil {
		return err
	}
	if err := validateSnapshot(snap, spec.Iterations); err != nil {
		return err
	}
	traces, err := scrapeTraces(base + obs.TracesPath + "?n=8")
	if err != nil {
		return err
	}
	if err := validateTraces(traces); err != nil {
		return err
	}

	nopNs := measureNopPath()
	overhead := 100 * nopNs / callNs
	fmt.Fprintf(os.Stderr, "obs-smoke: scenario III @%d call %.0f µs; nop instrumentation path %.1f ns/call (%.4f%%)\n",
		size, callNs/1e3, nopNs, overhead)
	fmt.Fprintf(os.Stderr, "obs-smoke: %s ok (%d methods), %s ok (%d traces)\n",
		obs.MetricsPath, len(snap.Methods), obs.TracesPath, len(traces))
	if overhead > maxOverheadPct {
		return fmt.Errorf("obs-smoke: disabled-path overhead %.3f%% exceeds the %.1f%% gate", overhead, maxOverheadPct)
	}
	return nil
}

// asyncCalls runs n scenario calls through CallAsync + Wait, verified like
// the synchronous ones.
func asyncCalls(e *bench.Env, spec bench.RunSpec, n int) error {
	stub := e.Client.Stub(bench.ServerAddr, "nrmi")
	ctx := context.Background()
	for i := 0; i < n; i++ {
		seed := spec.Seed + int64(i)
		w, script := bench.NewWorld(spec.Scenario, seed, spec.Size)
		rw := bench.ToRWorld(w)
		p, err := stub.CallAsync(ctx, "Apply", rw.Root, script)
		if err != nil {
			return err
		}
		if _, err := p.Wait(ctx); err != nil {
			return err
		}
		if err := bench.Verify(rw.ToWorld(), bench.Expected(spec.Scenario, seed, spec.Size, script)); err != nil {
			return err
		}
	}
	return nil
}

func scrapeJSON(url string, v any) error {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return fmt.Errorf("obs-smoke: GET %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("obs-smoke: GET %s: status %s", url, resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		return fmt.Errorf("obs-smoke: GET %s: content-type %q, want application/json", url, ct)
	}
	dec := json.NewDecoder(resp.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("obs-smoke: %s does not match the export schema: %w", url, err)
	}
	return nil
}

func scrapeMetrics(url string) (*obs.Snapshot, error) {
	var snap obs.Snapshot
	if err := scrapeJSON(url, &snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

func scrapeTraces(url string) ([]obs.Trace, error) {
	var traces []obs.Trace
	if err := scrapeJSON(url, &traces); err != nil {
		return nil, err
	}
	return traces, nil
}

// validateSnapshot checks the scraped metrics export: the workload's
// method must be present with every expected pipeline phase populated.
func validateSnapshot(snap *obs.Snapshot, iters int) error {
	if snap.Tag != "obs-smoke" {
		return fmt.Errorf("obs-smoke: snapshot tag %q, want obs-smoke", snap.Tag)
	}
	ms := snap.Method("nrmi", "Apply")
	if ms == nil {
		return fmt.Errorf("obs-smoke: snapshot has no nrmi/Apply aggregate")
	}
	// Client and server each record once per call under the shared key.
	if want := int64(2 * iters); ms.Calls < want {
		return fmt.Errorf("obs-smoke: nrmi/Apply calls = %d, want >= %d", ms.Calls, want)
	}
	if ms.BytesIn == 0 || ms.BytesOut == 0 {
		return fmt.Errorf("obs-smoke: nrmi/Apply byte counters silent")
	}
	valid := make(map[string]bool, obs.NumPhases)
	for p := 0; p < obs.NumPhases; p++ {
		valid[obs.Phase(p).String()] = true
	}
	seen := make(map[string]bool, len(ms.Phases))
	for _, ph := range ms.Phases {
		if !valid[ph.Phase] {
			return fmt.Errorf("obs-smoke: unknown phase %q in export", ph.Phase)
		}
		if ph.Latency.Count == 0 {
			return fmt.Errorf("obs-smoke: phase %q exported with an empty latency histogram", ph.Phase)
		}
		seen[ph.Phase] = true
	}
	// Every pipeline phase must have run.
	for p := 0; p < obs.NumPhases; p++ {
		name := obs.Phase(p).String()
		if !seen[name] {
			return fmt.Errorf("obs-smoke: phase %q missing from the nrmi/Apply export", name)
		}
	}
	return nil
}

func validateTraces(traces []obs.Trace) error {
	if len(traces) == 0 {
		return fmt.Errorf("obs-smoke: trace export is empty")
	}
	for _, tr := range traces {
		if tr.Service == "" || tr.Method == "" || tr.TotalNs <= 0 {
			return fmt.Errorf("obs-smoke: malformed trace %+v", tr)
		}
		if len(tr.Phases) == 0 {
			return fmt.Errorf("obs-smoke: trace %s/%s has no phases", tr.Service, tr.Method)
		}
	}
	return nil
}

// measureNopPath times the disabled instrumentation path: the exact
// per-call sequence of collector operations the client and server execute
// when no Observer is configured (Begin returns the nil collector). This
// is the cost every un-observed call pays for the instrumentation being
// compiled in.
func measureNopPath() float64 {
	const iters = 1_000_000
	// One warm pass keeps the first-call setup out of the measurement.
	nopCallOnce()
	start := time.Now()
	for i := 0; i < iters; i++ {
		nopCallOnce()
	}
	return float64(time.Since(start).Nanoseconds()) / iters
}

// nopCallOnce replays one call's worth of nil-collector operations: both
// endpoints' Begin/SetIO/Finish plus a mark per pipeline phase.
func nopCallOnce() {
	oc := obs.Begin(nil, "nrmi", "Apply")
	for p := 0; p < obs.NumPhases; p++ {
		oc.Mark(obs.Phase(p), 1, 1)
	}
	oc.SetIO(1, 1)
	oc.Finish(nil)
}
