// Command benchmark is the repo's one benchmark: the only source of
// performance claims. A driver process and, per workload, a server child
// (this binary re-executed with -serve), both with GOMAXPROCS=1, talk over
// a real loopback TCP socket. See README.md.
//
//	bash benchmark/run.sh -workload tree256-restore -seed 1 -seconds 16 -trace 0
//	bash benchmark/run.sh -out all.json                 # all workloads, slices interleaved
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

// config is one benchmark run.
type config struct {
	workloads []workload
	seed      int64
	seconds   int  // measuring time per workload
	trace     bool // spend the second half of the time on the traced pass
	// The run shape. Only the tests change it, to stay short.
	setups   int           // set-ups per workload; the last one is measured on
	warmup   int           // untimed calls at the end of each set-up
	slices   int           // timed slices per workload without trace
	sliceDur time.Duration // wall time of one slice
	corrupt  int           // see rig.corrupt; -1 in every real run
}

// timedSlices is how many slices a run's measuring time is cut into; the
// reported value of a metric is the median over them.
const timedSlices = 16

func defaultConfig(ws []workload, seed int64, seconds int, trace bool) config {
	return config{
		workloads: ws, seed: seed, seconds: seconds, trace: trace,
		setups: 5, warmup: warmupCalls, slices: timedSlices, sliceDur: time.Duration(seconds) * time.Second / timedSlices,
		corrupt: -1,
	}
}

// wlRun is what one workload measured.
type wlRun struct {
	w           workload
	rig         *rig
	setups      []float64 // seconds
	slices      []sliceResult
	childPeakKB int64 // the child's peak resident set at teardown
	trace       *tracer
	// The traced calls are verified like any other and count as attempted.
	traceAttempted, traceFailed int
}

// runBenchmark measures the configured workloads. With trace, half the
// slices are replaced by the traced pass, so a run takes cfg.seconds per
// workload either way.
func runBenchmark(cfg config, log io.Writer) (*report, []span, error) {
	runs := make([]*wlRun, len(cfg.workloads))
	defer func() {
		for _, run := range runs {
			if run != nil && run.rig != nil {
				run.rig.close()
			}
		}
	}()
	// Set-up is repeated so that setup_s is a median; the last set-up of
	// each workload stays up. Idle children cost nothing: only the workload
	// being measured has a busy child at any time.
	for i, w := range cfg.workloads {
		run := &wlRun{w: w}
		runs[i] = run
		for n := 0; n < cfg.setups; n++ {
			if run.rig != nil {
				run.rig.close()
			}
			r, d, err := setUp(w, cfg.seed, cfg.warmup)
			if err != nil {
				return nil, nil, err
			}
			run.rig = r
			run.setups = append(run.setups, d.Seconds())
		}
		run.rig.corrupt = cfg.corrupt
		if err := run.rig.calibrateCtl(); err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(log, "%s: set up in %.3f s (median of %d)\n", w.name, median(run.setups), cfg.setups)
	}
	// Slices are interleaved round-robin across workloads: the box has slow
	// phases of tens of seconds, and interleaving puts such a phase into a
	// few slices of every workload instead of all slices of one.
	slices := cfg.slices
	if cfg.trace {
		slices /= 2
	}
	for s := 0; s < slices; s++ {
		for _, run := range runs {
			res, err := run.rig.slice(cfg.sliceDur)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", run.w.name, err)
			}
			run.slices = append(run.slices, res)
		}
	}
	var spans []span
	rep := newReport(cfg)
	for _, run := range runs {
		if cfg.trace {
			var err error
			traceDur := time.Duration(cfg.slices-slices) * cfg.sliceDur
			if run.trace, run.traceAttempted, run.traceFailed, err = run.rig.tracePass(traceDur); err != nil {
				return nil, nil, err
			}
			spans = append(spans, run.trace.spans...)
		}
		rets, err := run.rig.ctl.Call(context.Background(), "PeakRSSKB")
		if err != nil {
			return nil, nil, fmt.Errorf("%s: ctl: %w", run.w.name, err)
		}
		run.childPeakKB, _ = rets[0].(int64)
		if n := run.rig.conns.conns.Load(); n != 1 {
			return nil, nil, fmt.Errorf("%s: the client opened %d connections, want 1", run.w.name, n)
		}
		wr, err := run.report()
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", run.w.name, err)
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	return rep, spans, nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-serve" {
		if err := serveMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark child:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(driverMain(os.Args[1:], os.Stdout, os.Stderr))
}

func driverMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: all, slices interleaved)")
	seed := fs.Int64("seed", 1, "the only input knob: call i uses world seed seed + i mod 1024")
	seconds := fs.Int("seconds", 24, "measuring time per workload")
	trace := fs.Int("trace", 0, "1: halve the slices and spend the rest on the traced per-layer pass")
	out := fs.String("out", "", "write the full JSON report to this file")
	traceOut := fs.String("trace-out", "", "write the spans of the traced pass to this file")
	compare := fs.Bool("compare", false, "compare two reports: -compare a.json b.json")
	spec := fs.String("spec", "BENCHMARK.json", "metric directions and bounds, for -compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: -compare a.json b.json")
			return 2
		}
		return compareMain(*spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "usage: [-workload name] [-seed n] [-seconds n] [-trace 0|1] [-out file] [-trace-out file]")
		return 2
	}
	ws := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "unknown workload %q\n", *name)
			return 2
		}
		ws = []workload{w}
	}
	cfg := defaultConfig(ws, *seed, *seconds, *trace == 1)

	runtime.GOMAXPROCS(1)
	// A hang is a failed run, not a stuck pipeline: every call has a
	// deadline, and so has the run. Children die with the driver in any
	// case (their stdin closes); killing them here is for the tidy exit.
	limit := time.Duration(len(ws)*(2**seconds+20)+30) * time.Second
	time.AfterFunc(limit, func() {
		fmt.Fprintf(stderr, "benchmark: still running after %s, giving up\n", limit)
		killChildren()
		os.Exit(3)
	})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killChildren()
		os.Exit(130)
	}()
	defer killChildren() // also on panic, before the runtime prints it

	return runAndReport(cfg, *name != "", *out, *traceOut, stdout, stderr)
}

// runAndReport runs the benchmark and writes its outputs. Failed calls do
// not suppress the report, but they fail the run.
func runAndReport(cfg config, single bool, out, traceOut string, stdout, stderr io.Writer) int {
	rep, spans, err := runBenchmark(cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	rep.printTable(stderr)
	if err := writeOutputs(rep, spans, out, traceOut, single, stdout); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	code := 0
	for _, wr := range rep.Workloads {
		if !wr.Correct {
			fmt.Fprintf(stderr, "benchmark: %s: %d of %d calls failed\n", wr.Name, wr.Failed, wr.Attempted)
			code = 1
		}
	}
	return code
}

// writeOutputs writes the report file, the span file and standard output:
// the driver's one-line result for a single workload, the whole report
// otherwise.
func writeOutputs(rep *report, spans []span, out, traceOut string, single bool, stdout io.Writer) error {
	doc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	doc = append(doc, '\n')
	if out != "" {
		if err := os.WriteFile(out, doc, 0o644); err != nil {
			return err
		}
	}
	if traceOut != "" {
		b, err := json.Marshal(spans)
		if err != nil {
			return err
		}
		if err := os.WriteFile(traceOut, b, 0o644); err != nil {
			return err
		}
	}
	if single {
		doc, err = rep.Workloads[0].resultLine(rep.Trace)
		if err != nil {
			return err
		}
		doc = append(doc, '\n')
	}
	_, err = stdout.Write(doc)
	return err
}
