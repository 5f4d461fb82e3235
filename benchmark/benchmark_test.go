package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// The test binary doubles as the server child, as the real binary does.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-serve" {
		if err := serveMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark child:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

// smokeConfig is the real run shape shrunk to one 64-call batch per slice.
func smokeConfig(ws []workload, trace bool) config {
	cfg := defaultConfig(ws, 1, 1, trace)
	cfg.setups, cfg.warmup, cfg.slices, cfg.sliceDur = 1, 64, 2, time.Nanosecond
	return cfg
}

// TestGeneratorPinned freezes the ported generator: a later change to it
// would silently change what every workload measures.
func TestGeneratorPinned(t *testing.T) {
	w, script := newWorld(1, 256)
	if n := len(collect(w.Root)); n != 256 {
		t.Errorf("nodes = %d, want 256", n)
	}
	if len(w.Aliases) != 32 || len(script) != 24 {
		t.Errorf("aliases, ops = %d, %d, want 32, 24", len(w.Aliases), len(script))
	}
	const before, after = 7823661633223451764, 7041797538746375482
	if got := checksum(w.Root); got != before {
		t.Errorf("checksum of the generated tree = %d, want %d", got, before)
	}
	script.apply(w.Root)
	if got := checksum(w.Root); got != after {
		t.Errorf("checksum after the script = %d, want %d", got, after)
	}
	if w16, s16 := newWorld(1, 16); len(collect(w16.Root)) != 16 || len(w16.Aliases) != 2 || len(s16) != 9 {
		t.Errorf("16-node world: %d nodes, %d aliases, %d ops, want 16, 2, 9", len(collect(w16.Root)), len(w16.Aliases), len(s16))
	}

	// The request's length on the wire, through the public API only.
	w256, _ := workloadByName("tree256-restore")
	r, _, err := setUp(w256, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	if got, want := r.client.Metrics().BytesSent, int64(4022); got != want {
		t.Errorf("request bytes of seed 1 = %d, want %d", got, want)
	}
}

func TestEqualWorldsSeesAliases(t *testing.T) {
	a, script := newWorld(7, 64)
	b, _ := newWorld(7, 64)
	if !equalWorlds(a, b) {
		t.Fatal("same seed, different worlds")
	}
	// Applying the script to the twin through the restorable form and back
	// keeps aliases attached to their nodes, unlinked or not.
	rb := toRWorld(b)
	script.apply(a.Root)
	script.applyR(rb.Root)
	if !equalWorlds(a, rb.toWorld()) {
		t.Fatal("script applied to both forms diverged")
	}
	b = rb.toWorld()
	b.Aliases[3] = b.Root
	if a.Aliases[3] != a.Root && equalWorlds(a, b) {
		t.Fatal("a moved alias went unnoticed")
	}
}

// TestSmoke runs all five workloads and the traced pass, 64 timed calls
// each, and checks that what is emitted is what BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	var spec benchSpec
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	rep, spans, err := runBenchmark(smokeConfig(workloads, true), os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Error("the traced pass recorded no spans")
	}
	byName := make(map[string]workloadReport)
	var names, specNames []string
	for _, wr := range rep.Workloads {
		byName[wr.Name] = wr
		names = append(names, wr.Name)
		if !wr.Correct || wr.Failed != 0 || wr.Attempted < batchCalls {
			t.Errorf("%s: correct %v, %d attempted, %d failed", wr.Name, wr.Correct, wr.Attempted, wr.Failed)
		}
		for _, trace := range []bool{false, true} {
			line, err := wr.resultLine(trace)
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				Metrics map[string]struct{ Unit string }
			}
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatal(err)
			}
			declared := spec.EndToEnd
			if trace {
				declared = spec.PerLayer
			}
			want := make(map[string]struct{ Unit string })
			for _, m := range declared {
				want[m.Name] = struct{ Unit string }{m.Unit}
			}
			if !reflect.DeepEqual(got.Metrics, want) {
				t.Errorf("%s trace=%v: emitted metrics and units differ from BENCHMARK.json:\n got %v\nwant %v", wr.Name, trace, got.Metrics, want)
			}
		}
	}
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name)
	}
	sort.Strings(names)
	sort.Strings(specNames)
	if !reflect.DeepEqual(names, specNames) {
		t.Errorf("workloads run %v, BENCHMARK.json declares %v", names, specNames)
	}
	// tree256-copy is the workload that bypasses restore: if these were not
	// small there, it would not be one.
	for _, m := range []string{"core.respond_ns", "core.apply_ns"} {
		cp, rs := byName["tree256-copy"].PerLayer[m].Value, byName["tree256-restore"].PerLayer[m].Value
		if cp >= rs/10 {
			t.Errorf("%s on tree256-copy = %.0f, not under a tenth of tree256-restore's %.0f", m, cp, rs)
		}
	}
}

// TestCorruptedExpectationFailsRun damages one expected world: the run
// must still print its result, marked incorrect, and exit non-zero.
func TestCorruptedExpectationFailsRun(t *testing.T) {
	for _, name := range []string{"tree16-restore", "tree256-copy"} {
		w, _ := workloadByName(name)
		cfg := smokeConfig([]workload{w}, false)
		cfg.corrupt = 5
		var stdout bytes.Buffer
		if code := runAndReport(cfg, true, "", "", &stdout, os.Stderr); code == 0 {
			t.Errorf("%s: exit code 0 with a corrupted expectation", name)
		}
		var got struct {
			Correct           bool
			Attempted, Failed int
		}
		if err := json.Unmarshal(stdout.Bytes(), &got); err != nil {
			t.Fatalf("%s: result line %q: %v", name, stdout.String(), err)
		}
		if got.Correct || got.Failed != 1 || got.Attempted != 2*batchCalls {
			t.Errorf("%s: result %+v, want incorrect with 1 of %d failed", name, got, 2*batchCalls)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "call_p50_us", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "calls_per_s", Better: "higher", Bound: 0.10}
	mk := func(v ...float64) metricReport { return metricReport{Value: median(v), Slices: v} }
	for _, c := range []struct {
		name string
		a, b metricReport
		m    specMetric
		want string
	}{
		{"within the bound", mk(100, 101, 102, 103), mk(105, 106, 107, 108), lower, "ok"},
		{"better", mk(100, 101, 102, 103), mk(50, 51, 52, 53), lower, "ok"},
		{"worse, both sides tight", mk(100, 101, 102, 103), mk(120, 121, 122, 123), lower, "worse"},
		{"worse but b's slices overlap a's", mk(100, 101, 102, 103), mk(90, 100, 130, 160), lower, "unresolved"},
		{"noisy, yet every slice worse", mk(100, 101, 102, 103), mk(110, 120, 150, 190), lower, "worse"},
		{"throughput fell", mk(1000, 1010, 1020, 1030), mk(800, 810, 820, 830), higher, "worse"},
		{"throughput rose", mk(1000, 1010, 1020, 1030), mk(1200, 1210, 1220, 1230), higher, "ok"},
	} {
		if _, got := verdict(c.a, c.b, c.m); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	// The spread is Python's statistics.quantiles(v, n=4): for 1..8 the
	// quartiles are 2.25 and 6.75.
	if got, want := quartileSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8}), 4.5/4.5; got != want {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

func TestCompareExitCode(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64) string {
		m := metricReport{Value: p50, Slices: []float64{p50, p50, p50, p50}}
		rep := report{Workloads: []workloadReport{{Name: "tree16-restore", EndToEnd: map[string]metricReport{}, CalibNs: metricReport{Value: 1}}}}
		for _, d := range endToEndMetrics {
			rep.Workloads[0].EndToEnd[d.name] = m
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := dir + "/" + name
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow := write("a.json", 100), write("same.json", 100), write("slow.json", 200)
	var out bytes.Buffer
	if code := compareMain("../BENCHMARK.json", a, same, &out, os.Stderr); code != 0 {
		t.Errorf("identical reports: exit code %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareMain("../BENCHMARK.json", a, slow, &out, os.Stderr); code == 0 || !strings.Contains(out.String(), "worse") {
		t.Errorf("doubled latencies: exit code %d\n%s", code, out.String())
	}
}
