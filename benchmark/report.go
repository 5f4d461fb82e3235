package main

// From measurements to the report: metric definitions, medians over slices,
// the JSON document, the driver's result line and the human table.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"text/tabwriter"
	"time"
)

// samples holds, per metric, one value per slice (end to end), per set-up
// (setup_s) or per traced call (layers).
type samples map[string][]float64

func (s samples) add(name string, v ...float64) { s[name] = append(s[name], v...) }

type metricDef struct{ name, unit string }

// The metric names and units. BENCHMARK.json declares the same sets with
// direction and bound; TestNamesMatchSpec keeps the two equal.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"call_p50_us", "us"},
	{"calls_per_s", "1/s"},
	{"cpu_us_per_call", "us"},
	{"allocs_per_call", "count"},
	{"alloc_bytes_per_call", "B"},
	{"wire_bytes_per_call", "B"},
	{"peak_rss_mb", "MB"},
}

var perLayerMetrics = []metricDef{
	{"graph.walk_ns", "ns"}, {"graph.copy_ns", "ns"}, {"graph.walk_objects", "count"},
	{"graph.walk_allocs", "count"}, {"graph.copy_allocs", "count"},

	{"wire.encode_ns", "ns"}, {"wire.decode_ns", "ns"}, {"wire.encoded_bytes", "B"},
	{"wire.encode_allocs", "count"}, {"wire.decode_allocs", "count"},

	{"core.request_ns", "ns"}, {"core.accept_ns", "ns"}, {"core.respond_ns", "ns"}, {"core.apply_ns", "ns"},
	{"core.request_bytes", "B"}, {"core.response_bytes", "B"},
	{"core.request_allocs", "count"}, {"core.accept_allocs", "count"},
	{"core.respond_allocs", "count"}, {"core.apply_allocs", "count"},
	{"core.restored_objects", "count"}, {"core.new_objects", "count"},

	{"transport.echo_ns", "ns"}, {"transport.echo_allocs", "count"},
	{"transport.client_writes_per_call", "count"}, {"transport.client_reads_per_call", "count"},
	{"transport.server_writes_per_call", "count"}, {"transport.server_reads_per_call", "count"},
	{"transport.frame_overhead_bytes", "B"},

	{"rmi.call_ns", "ns"}, {"rmi.call_p50_raw_us", "us"}, {"rmi.call_p99_us", "us"}, {"rmi.call_samples", "count"},
	{"rmi.unattributed_ns", "ns"},
	{"rmi.client_cpu_us_per_call", "us"}, {"rmi.server_cpu_us_per_call", "us"},
	{"rmi.client_allocs_per_call", "count"}, {"rmi.server_allocs_per_call", "count"},
	{"rmi.retries", "count"}, {"rmi.engine_fallbacks", "count"}, {"rmi.batched_calls", "count"},

	{"app.execute_ns", "ns"}, {"app.execute_allocs", "count"},

	{"trace.overhead_share", "ratio"}, {"trace.unattributed_share", "ratio"},

	{"host.calib_ns", "ns"}, {"host.ref_us", "us"},
}

// metricReport is one metric of one workload.
type metricReport struct {
	Unit  string  `json:"unit"`
	Value float64 `json:"value"` // median of Slices
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	// Slices are the values the median was taken over; kept for the
	// end-to-end metrics, which -compare needs, and dropped for the layers.
	Slices []float64 `json:"slices,omitempty"`
	// Samples is how many measurements stand behind the metric: calls for
	// the per-call figures, set-ups for setup_s, traced calls for a layer.
	Samples int `json:"samples"`
}

type workloadReport struct {
	Name      string                  `json:"name"`
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	EndToEnd  map[string]metricReport `json:"end_to_end"`
	PerLayer  map[string]metricReport `json:"per_layer,omitempty"`
	// CalibNs is the fixed CPU loop timed before and after every slice: a
	// slow phase of the box shows here.
	CalibNs metricReport `json:"calib_ns"`
}

type hostFacts struct {
	// NProc is the CPUs of the box and Pinned the one CPU run.sh confined
	// both processes to ("no" when run without it or without taskset).
	NProc            int    `json:"nproc"`
	Pinned           string `json:"pinned_cpu"`
	GoVersion        string `json:"go_version"`
	DriverGOMAXPROCS int    `json:"driver_gomaxprocs"`
	ChildGOMAXPROCS  int    `json:"child_gomaxprocs"`
	Network          string `json:"network"`
}

type report struct {
	Host      hostFacts        `json:"host"`
	Commit    string           `json:"commit"`
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Trace     bool             `json:"trace"`
	Workloads []workloadReport `json:"workloads"`
}

func newReport(cfg config) *report {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	// run.sh counts the CPUs before it pins: NumCPU sees the mask.
	nproc, err := strconv.Atoi(os.Getenv("NRMI_BENCH_NPROC"))
	if err != nil {
		nproc = runtime.NumCPU()
	}
	pinned := os.Getenv("NRMI_BENCH_PINNED_CPU")
	if pinned == "" {
		pinned = "no"
	}
	return &report{
		Host: hostFacts{
			NProc:            nproc,
			Pinned:           pinned,
			GoVersion:        runtime.Version(),
			DriverGOMAXPROCS: runtime.GOMAXPROCS(0),
			ChildGOMAXPROCS:  1,
			// No link rate is claimed: the bytes cross the host's loopback.
			Network: "loopback TCP",
		},
		Commit:  commit,
		Seed:    cfg.seed,
		Seconds: cfg.seconds,
		Trace:   cfg.trace,
	}
}

// quartiles returns the three quartiles of v as Python's
// statistics.quantiles(v, n=4) takes them; of a single value, that value.
func quartiles(v []float64) (q [3]float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	for k := range q {
		if len(s) == 1 {
			q[k] = s[0]
			continue
		}
		pos := float64(k+1) * float64(len(s)+1) / 4
		i := min(max(int(pos), 1), len(s)-1)
		q[k] = s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return q
}

func median(v []float64) float64 { return quartiles(v)[1] }

// summarize turns the samples of the listed metrics into reports. Every
// listed metric must have been measured.
func summarize(defs []metricDef, s samples, keepSlices bool) (map[string]metricReport, error) {
	out := make(map[string]metricReport, len(defs))
	for _, d := range defs {
		v := s[d.name]
		if len(v) == 0 {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		m := metricReport{Unit: d.unit, Value: median(v), Min: v[0], Max: v[0], Samples: len(v)}
		for _, x := range v {
			m.Min, m.Max = math.Min(m.Min, x), math.Max(m.Max, x)
		}
		if keepSlices {
			m.Slices = v
		}
		out[d.name] = m
	}
	return out, nil
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// report builds the workload's report from its set-ups, slices and trace.
func (run *wlRun) report() (workloadReport, error) {
	wr := workloadReport{Name: run.w.name, Attempted: run.traceAttempted, Failed: run.traceFailed}
	e2e, layer := samples{}, samples{}
	if run.trace != nil {
		layer = run.trace.samples
	}
	var calls, latSamples int
	for _, s := range run.slices {
		wr.Attempted += s.attempted
		wr.Failed += s.failed
		calls += s.attempted
		latSamples += len(s.lats)
		n := float64(s.attempted)
		sorted := sortedCopy(s.lats)
		// Times and the rate are scaled to the reference speed, slice by
		// slice (see refClock); the layer metrics are all as measured.
		scale := run.w.refUs / s.refUs
		e2e.add("call_p50_us", micros(quantile(sorted, 0.5))*scale)
		e2e.add("calls_per_s", float64(s.attempted-s.failed)/s.wall.Seconds()/scale)
		e2e.add("cpu_us_per_call", float64(s.client.CPUMicros+s.server.CPUMicros)/n*scale)
		e2e.add("allocs_per_call", float64(s.client.Mallocs+s.server.Mallocs)/n)
		e2e.add("alloc_bytes_per_call", float64(s.client.AllocBytes+s.server.AllocBytes)/n)
		e2e.add("wire_bytes_per_call", float64(s.client.Bytes)/n)

		layer.add("host.ref_us", s.refUs)
		layer.add("rmi.call_p50_raw_us", micros(quantile(sorted, 0.5)))
		layer.add("rmi.call_p99_us", micros(quantile(sorted, 0.99)))
		layer.add("rmi.client_cpu_us_per_call", float64(s.client.CPUMicros)/n)
		layer.add("rmi.server_cpu_us_per_call", float64(s.server.CPUMicros)/n)
		layer.add("rmi.client_allocs_per_call", float64(s.client.Mallocs)/n)
		layer.add("rmi.server_allocs_per_call", float64(s.server.Mallocs)/n)
		layer.add("rmi.retries", float64(s.metrics.Retries))
		layer.add("rmi.engine_fallbacks", float64(s.metrics.EngineFallbacks))
		layer.add("rmi.batched_calls", float64(s.server.BatchedCalls))
		layer.add("transport.client_writes_per_call", float64(s.client.Writes)/n)
		layer.add("transport.client_reads_per_call", float64(s.client.Reads)/n)
		layer.add("transport.server_writes_per_call", float64(s.server.Writes)/n)
		layer.add("transport.server_reads_per_call", float64(s.server.Reads)/n)
		// What the frames add to the payloads rmi handed to the transport.
		layer.add("transport.frame_overhead_bytes", (float64(s.client.Bytes)-float64(s.metrics.BytesSent+s.metrics.BytesReceived))/n)
		layer.add("host.calib_ns", s.calibNs...)
	}
	e2e.add("setup_s", run.setups...)
	// Both processes' resident-set high-water marks. The driver's includes
	// the benchmark's own worlds, and when one driver runs several
	// workloads it is the peak over all of them so far.
	e2e.add("peak_rss_mb", float64(run.childPeakKB+peakRSSKB())/1024)
	var err error
	if wr.EndToEnd, err = summarize(endToEndMetrics, e2e, true); err != nil {
		return wr, err
	}
	for name, m := range wr.EndToEnd {
		if name != "setup_s" && name != "peak_rss_mb" {
			m.Samples = calls // per-call figures: the calls behind them, not the slices
			wr.EndToEnd[name] = m
		}
	}
	calib, err := summarize([]metricDef{{"host.calib_ns", "ns"}}, layer, true)
	if err != nil {
		return wr, err
	}
	wr.CalibNs = calib["host.calib_ns"]
	if run.trace != nil {
		layer.add("rmi.call_samples", float64(latSamples))
		p50 := median(layer["rmi.call_p50_raw_us"]) * 1e3
		layer.add("trace.overhead_share", (median(layer["rmi.call_ns"])-p50)/p50)
		if wr.PerLayer, err = summarize(perLayerMetrics, layer, false); err != nil {
			return wr, err
		}
	}
	wr.Correct = wr.Failed == 0
	return wr, nil
}

// resultLine is what the benchmark driver reads from the last line of
// standard output: end-to-end metrics without trace, layer metrics with.
func (wr workloadReport) resultLine(trace bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	src := wr.EndToEnd
	if trace {
		src = wr.PerLayer
	}
	metrics := make(map[string]value, len(src))
	for name, m := range src {
		metrics[name] = value{m.Value, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.Correct, wr.Attempted, wr.Failed, metrics})
}

// printTable writes the human-readable report.
func (rep *report) printTable(w io.Writer) {
	fmt.Fprintf(w, "nrmi benchmark: commit %s, seed %d, %d s per workload, %s, %d CPUs (pinned to CPU: %s), %s, GOMAXPROCS %d (driver) / %d (server child)\n",
		rep.Commit, rep.Seed, rep.Seconds, rep.Host.Network, rep.Host.NProc, rep.Host.Pinned, rep.Host.GoVersion, rep.Host.DriverGOMAXPROCS, rep.Host.ChildGOMAXPROCS)
	fmt.Fprintln(w, `How to read it: every value is the median over the run's slices (or traced calls), with min and max beside it.
The end-to-end times and the rate are scaled to the reference speed (host.ref_us against its nominal value,
README.md "Noise"); every layer metric is as measured.
Driver and child share one CPU and a caller waits for its reply, so nothing runs in parallel: a faster layer saves
its share of cpu_us_per_call, and on tree256-* (one call in flight) the same in call_p50_us. On tree16-restore and
tree16-pipelined two or eight calls are in flight: call_p50_us includes queueing behind the others, so a saving
per call can move it by a multiple. allocs_per_call moves the times only through GC, so it is gated on its own.`)
	for _, wr := range rep.Workloads {
		fmt.Fprintf(w, "\n== %s: %d calls attempted, %d failed\n", wr.Name, wr.Attempted, wr.Failed)
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(tw, "metric\tunit\tmedian\tmin\tmax\tn\t")
		row := func(name string, m metricReport) {
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.4g\t%d\t\n", name, m.Unit, m.Value, m.Min, m.Max, m.Samples)
		}
		for _, d := range endToEndMetrics {
			row(d.name, wr.EndToEnd[d.name])
		}
		row("calib_ns", wr.CalibNs)
		if wr.PerLayer != nil {
			for _, d := range perLayerMetrics {
				row(d.name, wr.PerLayer[d.name])
			}
		}
		_ = tw.Flush()
		if wr.PerLayer == nil {
			continue
		}
		// Self times seen from outside are differences of separately
		// measured medians, not exclusive spans: derived, and said so.
		l := wr.PerLayer
		fmt.Fprintf(w, "derived self times (ns): core.request - wire.encode = %.0f, core.accept - wire.decode - graph.walk = %.0f\n",
			l["core.request_ns"].Value-l["wire.encode_ns"].Value,
			l["core.accept_ns"].Value-l["wire.decode_ns"].Value-l["graph.walk_ns"].Value)
		if share := l["trace.unattributed_share"].Value; math.Abs(share) > 0.15 {
			fmt.Fprintf(w, "warning: the hand-driven steps leave %.0f%% of rmi.call_ns unattributed (reconciliation line: 15%%)\n", share*100)
		}
	}
}
