// Command nrmi-load drives an open-loop, coordinated-omission-aware load
// harness (internal/load) against a fleet of in-process NRMI servers
// behind the client-side balancer (internal/balance), and finds each
// fleet size's capacity: the highest offered rate whose p99 latency —
// measured from intended start times, so queueing delay is charged
// honestly — stays under the SLO with a bounded error rate.
//
// The default run probes fleets of 1, 2 and 4 servers and writes the
// capacity table to BENCH_5.json (the snapshot EXPERIMENTS.md quotes).
// Absolute rates depend on the host; the shape — capacity growing with
// fleet size while the SLO holds — is the reproducible claim.
//
// Usage:
//
//	nrmi-load [-out BENCH_5.json] [-servers 1,2,4] [-slo 20ms]
//	          [-max-error-rate 0.001] [-warmup 250ms] [-window 1s]
//	          [-workers 128] [-service 1ms] [-conc 8] [-list 8]
//	          [-start-rps 1000] [-max-rps 65536] [-policy consistent-hash]
//	          [-seed 1]
//	nrmi-load -smoke   # deterministic self-check + tiny run + schema gate
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"nrmi/internal/balance"
	"nrmi/internal/load"
)

func main() {
	var (
		out       = flag.String("out", "BENCH_5.json", "path for the capacity-table JSON snapshot")
		servers   = flag.String("servers", "1,2,4", "comma-separated fleet sizes to probe")
		slo       = flag.Duration("slo", 20*time.Millisecond, "p99 latency SLO a sustainable rate must hold")
		maxErr    = flag.Float64("max-error-rate", 0.001, "maximum error rate a sustainable rate may show")
		warmup    = flag.Duration("warmup", 250*time.Millisecond, "per-probe warmup excluded from measurement")
		window    = flag.Duration("window", time.Second, "per-probe measurement window")
		workers   = flag.Int("workers", 128, "pacing workers (bounds client concurrency)")
		service   = flag.Duration("service", time.Millisecond, "server-side service time per call")
		conc      = flag.Int("conc", 8, "per-server concurrent-call limit (admission control)")
		listLen   = flag.Int("list", 8, "length of the restorable list each call carries")
		startRPS  = flag.Float64("start-rps", 1000, "first probe rate of the capacity search")
		maxRPS    = flag.Float64("max-rps", 65536, "upper bound of the capacity search")
		maxProbes = flag.Int("max-probes", 8, "probe budget per fleet size")
		policyStr = flag.String("policy", "consistent-hash", "routing policy: consistent-hash or least-loaded")
		seed      = flag.Int64("seed", 1, "seed for the balancer tie-break RNG")
		smoke     = flag.Bool("smoke", false, "run the deterministic smoke gate and exit")
	)
	flag.Parse()

	policy, err := parsePolicy(*policyStr)
	if err != nil {
		log.Fatalf("nrmi-load: %v", err)
	}
	cfg := harnessConfig{
		SLO: *slo, MaxErrorRate: *maxErr,
		Warmup: *warmup, Window: *window, Workers: *workers,
		Service: *service, Conc: *conc, ListLen: *listLen,
		Policy: policy, Seed: *seed,
	}

	if *smoke {
		if err := runLoadSmoke(cfg); err != nil {
			log.Fatalf("nrmi-load: %v", err)
		}
		return
	}

	sizes, err := parseFleetSizes(*servers)
	if err != nil {
		log.Fatalf("nrmi-load: %v", err)
	}
	rep := capacityReport{
		Tag:          "nrmi-load",
		Policy:       policy.String(),
		SLOP99Ms:     float64(*slo) / 1e6,
		MaxErrorRate: *maxErr,
		WarmupMs:     float64(*warmup) / 1e6,
		WindowMs:     float64(*window) / 1e6,
		Workers:      *workers,
		ServiceMs:    float64(*service) / 1e6,
		ConcPerSrv:   *conc,
		Seed:         *seed,
		SingleHost:   true,
	}
	for _, n := range sizes {
		fc := findCapacity(n, cfg, *startRPS, *maxRPS, *maxProbes)
		rep.Fleets = append(rep.Fleets, fc)
		fmt.Fprintf(os.Stderr, "nrmi-load: %d server(s): max sustainable %.0f rps (p99 %.2f ms, errors %.3f%%) in %d probes\n",
			n, fc.MaxRPS, fc.P99MsAtMax, 100*fc.ErrorRateAtMax, len(fc.Probes))
	}
	if err := writeAndVerify(*out, &rep); err != nil {
		log.Fatalf("nrmi-load: %v", err)
	}
	fmt.Fprintf(os.Stderr, "nrmi-load: wrote %s\n", *out)
}

// harnessConfig is everything one probe needs besides its rate.
type harnessConfig struct {
	SLO          time.Duration
	MaxErrorRate float64
	Warmup       time.Duration
	Window       time.Duration
	Workers      int
	Service      time.Duration
	Conc         int
	ListLen      int
	Policy       balance.PolicyKind
	Seed         int64
}

// probeResult is one rung of a fleet's capacity ladder.
type probeResult struct {
	RPS         float64 `json:"rps"`
	AchievedRPS float64 `json:"achieved_rps"`
	P99Ms       float64 `json:"p99_ms"`
	P999Ms      float64 `json:"p999_ms"`
	MaxMs       float64 `json:"max_ms"`
	ErrorRate   float64 `json:"error_rate"`
	LateStarts  int64   `json:"late_starts"`
	OK          bool    `json:"ok"`
}

// fleetCapacity is the capacity verdict for one fleet size.
type fleetCapacity struct {
	Servers int `json:"servers"`
	// MaxRPS is the highest probed rate meeting the SLO (0 when even the
	// lowest probe failed); Saturated is false when the search hit the
	// -max-rps ceiling still passing, i.e. capacity is at least MaxRPS.
	MaxRPS         float64       `json:"max_sustainable_rps"`
	Saturated      bool          `json:"saturated"`
	P99MsAtMax     float64       `json:"p99_ms_at_max"`
	ErrorRateAtMax float64       `json:"error_rate_at_max"`
	Probes         []probeResult `json:"probes"`
}

// capacityReport is the BENCH_5.json schema.
type capacityReport struct {
	Tag          string  `json:"tag"`
	Policy       string  `json:"policy"`
	SLOP99Ms     float64 `json:"slo_p99_ms"`
	MaxErrorRate float64 `json:"max_error_rate"`
	WarmupMs     float64 `json:"warmup_ms"`
	WindowMs     float64 `json:"window_ms"`
	Workers      int     `json:"workers"`
	ServiceMs    float64 `json:"service_ms"`
	ConcPerSrv   int     `json:"conc_per_server"`
	Seed         int64   `json:"seed"`
	// SingleHost records that every fleet shares one machine's cores with
	// the load generator, so multi-server points measure the balancer and
	// admission control, not linear hardware scaling.
	SingleHost bool            `json:"single_host"`
	Fleets     []fleetCapacity `json:"fleets"`
}

// runProbe offers rps against a fresh n-server fleet and grades the
// result against the SLO. A fresh fleet per probe keeps probes
// independent: a saturating probe cannot leave queues that poison the
// next one.
func runProbe(n int, cfg harnessConfig, rps float64) probeResult {
	env, fs, err := newFleet(n, cfg)
	if err != nil {
		log.Fatalf("nrmi-load: fleet setup: %v", err)
	}
	defer env.close()
	rep, err := load.Run(context.Background(), load.Config{
		RPS: rps, Workers: cfg.Workers, Warmup: cfg.Warmup, Window: cfg.Window,
	}, env.target(fs, cfg.ListLen))
	if err != nil {
		log.Fatalf("nrmi-load: probe run: %v", err)
	}
	pr := probeResult{
		RPS:         rps,
		AchievedRPS: rep.AchievedRPS,
		P99Ms:       float64(rep.Latency.P99) / 1e6,
		P999Ms:      float64(rep.Latency.Quantile(0.999)) / 1e6,
		MaxMs:       float64(rep.Latency.Max) / 1e6,
		ErrorRate:   rep.ErrorRate(),
		LateStarts:  rep.LateStarts,
	}
	pr.OK = pr.P99Ms <= float64(cfg.SLO)/1e6 && pr.ErrorRate <= cfg.MaxErrorRate
	fmt.Fprintf(os.Stderr, "nrmi-load:   %d srv @ %6.0f rps: p99 %7.2f ms, errors %.3f%%, late %d -> %s\n",
		n, rps, pr.P99Ms, 100*pr.ErrorRate, pr.LateStarts, verdict(pr.OK))
	return pr
}

func verdict(ok bool) string {
	if ok {
		return "ok"
	}
	return "over SLO"
}

// findCapacity searches for the highest sustainable rate: double while
// passing, then bisect between the best pass and the worst fail until
// they are within 15% or the probe budget runs out.
func findCapacity(n int, cfg harnessConfig, startRPS, maxRPS float64, maxProbes int) fleetCapacity {
	fc := fleetCapacity{Servers: n}
	var goodP probeResult
	var good, bad float64
	rps := startRPS
	for i := 0; i < maxProbes; i++ {
		pr := runProbe(n, cfg, rps)
		fc.Probes = append(fc.Probes, pr)
		if pr.OK {
			good = rps
			goodP = pr
		} else {
			bad = rps
		}
		switch {
		case bad == 0: // still climbing
			if rps >= maxRPS {
				i = maxProbes // passed at the ceiling: done
				continue
			}
			rps = min(rps*2, maxRPS)
		case good == 0: // even the floor failed: descend
			rps /= 2
			if rps < 1 {
				i = maxProbes
				continue
			}
		default:
			if bad/good <= 1.15 {
				i = maxProbes // bracketed tightly enough
				continue
			}
			rps = (good + bad) / 2
		}
	}
	fc.MaxRPS = good
	fc.Saturated = bad > 0
	fc.P99MsAtMax = goodP.P99Ms
	fc.ErrorRateAtMax = goodP.ErrorRate
	return fc
}

// writeAndVerify writes the snapshot and re-reads it with unknown fields
// disallowed — the same schema gate the other bench snapshots use, so a
// drifted struct fails here and not in a consumer.
func writeAndVerify(path string, rep *capacityReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return verifySnapshot(path)
}

// verifySnapshot schema-checks a written capacity table.
func verifySnapshot(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var back capacityReport
	if err := dec.Decode(&back); err != nil {
		return fmt.Errorf("%s does not match the capacity-table schema: %w", path, err)
	}
	if back.Tag != "nrmi-load" || len(back.Fleets) == 0 {
		return fmt.Errorf("%s: implausible snapshot (tag %q, %d fleets)", path, back.Tag, len(back.Fleets))
	}
	return nil
}

func parseFleetSizes(s string) ([]int, error) {
	var sizes []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad fleet size %q", part)
		}
		sizes = append(sizes, n)
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("no fleet sizes given")
	}
	return sizes, nil
}

func parsePolicy(s string) (balance.PolicyKind, error) {
	switch s {
	case "consistent-hash":
		return balance.ConsistentHash, nil
	case "least-loaded":
		return balance.LeastLoaded, nil
	}
	return 0, fmt.Errorf("unknown policy %q (want consistent-hash or least-loaded)", s)
}
