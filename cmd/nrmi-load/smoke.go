package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"nrmi/internal/load"
)

// runLoadSmoke is the make load-smoke gate, three checks in one exit
// code:
//
//  1. the generator's coordinated-omission self-check replays a scripted
//     500 ms stall on a virtual clock and verifies the exact latency mass
//     the schedule implies — the accounting, not the host, is under test;
//  2. a deterministic low-rate wall-clock run against a 2-server fleet
//     must issue exactly the scheduled call count with zero errors (the
//     counts are schedule-derived, so they are exact on any host);
//  3. the capacity-table snapshot it produces must round-trip the JSON
//     schema with unknown fields disallowed.
func runLoadSmoke(cfg harnessConfig) error {
	if err := load.SelfCheck(); err != nil {
		return fmt.Errorf("load-smoke: coordinated-omission self-check: %w", err)
	}
	fmt.Fprintln(os.Stderr, "load-smoke: virtual-clock coordinated-omission self-check ok")

	// Tiny wall-clock run: light enough for the slowest CI host, exact in
	// its counts. Service time 0 keeps it fast; the SLO stays the real
	// gate so a pathological host still fails loudly.
	cfg.Service = 0
	cfg.Workers = 8
	const rps, fleetSize = 200, 2
	warmup, window := 100*time.Millisecond, 500*time.Millisecond
	env, fs, err := newFleet(fleetSize, cfg)
	if err != nil {
		return fmt.Errorf("load-smoke: fleet: %w", err)
	}
	defer env.close()
	rep, err := load.Run(context.Background(), load.Config{
		RPS: rps, Workers: cfg.Workers, Warmup: warmup, Window: window,
	}, env.target(fs, cfg.ListLen))
	if err != nil {
		return fmt.Errorf("load-smoke: run: %w", err)
	}
	fmt.Fprintf(os.Stderr, "load-smoke: %s\n", rep)
	wantIssued := int64(rps * float64(warmup+window) / float64(time.Second))
	wantMeasured := int64(rps * float64(window) / float64(time.Second))
	if rep.Issued != wantIssued || rep.Measured != wantMeasured {
		return fmt.Errorf("load-smoke: issued/measured = %d/%d, want exactly %d/%d (open-loop schedule)",
			rep.Issued, rep.Measured, wantIssued, wantMeasured)
	}
	if rep.Errors != 0 {
		return fmt.Errorf("load-smoke: %d errors against a healthy loopback fleet", rep.Errors)
	}
	if p99 := time.Duration(rep.Latency.P99); p99 > cfg.SLO {
		return fmt.Errorf("load-smoke: p99 %v breaches the %v SLO at %d rps on loopback", p99, cfg.SLO, int(rps))
	}
	var served int64
	for _, svc := range env.svcs {
		served += svc.calls.Load()
	}
	if served != rep.Issued {
		return fmt.Errorf("load-smoke: servers saw %d calls, harness issued %d", served, rep.Issued)
	}
	for _, st := range fs.Balancer().Endpoints() {
		if st.Ejected || st.Faults != 0 {
			return fmt.Errorf("load-smoke: endpoint %s unhealthy after clean run: %+v", st.Addr, st)
		}
	}

	// Schema gate on a real snapshot written from this run.
	path := filepath.Join(os.TempDir(), fmt.Sprintf("nrmi-load-smoke-%d.json", os.Getpid()))
	defer os.Remove(path)
	snap := capacityReport{
		Tag: "nrmi-load", Policy: cfg.Policy.String(),
		SLOP99Ms: float64(cfg.SLO) / 1e6, MaxErrorRate: cfg.MaxErrorRate,
		WarmupMs: float64(warmup) / 1e6, WindowMs: float64(window) / 1e6,
		Workers: cfg.Workers, ServiceMs: 0, ConcPerSrv: cfg.Conc, Seed: cfg.Seed,
		SingleHost: true,
		Fleets: []fleetCapacity{{
			Servers: fleetSize, MaxRPS: rps, Saturated: false,
			P99MsAtMax:     float64(rep.Latency.P99) / 1e6,
			ErrorRateAtMax: rep.ErrorRate(),
			Probes: []probeResult{{
				RPS: rps, AchievedRPS: rep.AchievedRPS,
				P99Ms:     float64(rep.Latency.P99) / 1e6,
				P999Ms:    float64(rep.Latency.Quantile(0.999)) / 1e6,
				MaxMs:     float64(rep.Latency.Max) / 1e6,
				ErrorRate: rep.ErrorRate(), LateStarts: rep.LateStarts, OK: true,
			}},
		}},
	}
	if err := writeAndVerify(path, &snap); err != nil {
		return fmt.Errorf("load-smoke: %w", err)
	}
	fmt.Fprintln(os.Stderr, "load-smoke: capacity-table schema round-trip ok")
	return nil
}
