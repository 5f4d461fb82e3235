package main

// -compare a.json b.json: is b worse than a by more than the bound
// BENCHMARK.json fixes, per end-to-end metric and workload?

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the benchmark itself reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median.
func quartileSpread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q := quartiles(v)
	return (q[2] - q[0]) / q[1]
}

// verdict compares one metric of one workload. b is worse when its median
// is worse than a's by more than bound. That verdict is withheld as
// unresolved when either side's own slices spread wider than the bound,
// unless every slice of b is worse than every slice of a.
func verdict(a, b metricReport, m specMetric) (relWorse float64, v string) {
	sign := 1.0 // positive relWorse means b is worse
	if m.Better == "higher" {
		sign = -1
	}
	relWorse = sign * (b.Value - a.Value) / a.Value
	if relWorse <= m.Bound {
		return relWorse, "ok"
	}
	if quartileSpread(a.Slices) <= m.Bound && quartileSpread(b.Slices) <= m.Bound {
		return relWorse, "worse"
	}
	for _, x := range a.Slices {
		for _, y := range b.Slices {
			if sign*(y-x) <= 0 {
				return relWorse, "unresolved"
			}
		}
	}
	return relWorse, "worse"
}

func compareMain(specPath, aPath, bPath string, stdout, stderr io.Writer) int {
	var spec benchSpec
	var a, b report
	for path, v := range map[string]any{specPath: &spec, aPath: &a, bPath: &b} {
		if err := readJSON(path, v); err != nil {
			fmt.Fprintln(stderr, "compare:", err)
			return 2
		}
	}
	byName := make(map[string]workloadReport)
	for _, wr := range b.Workloads {
		byName[wr.Name] = wr
	}
	worse := 0
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tb worse by\tbound\tcalib drift\tverdict\t")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			continue
		}
		// The same CPU loop timed in both runs: when it drifted as much as
		// a metric did, suspect the box, not the code.
		drift := (wb.CalibNs.Value - wa.CalibNs.Value) / wa.CalibNs.Value
		for _, m := range spec.EndToEnd {
			ma, mb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			rel, v := verdict(ma, mb, m)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%+.2f%%\t%.1f%%\t%+.1f%%\t%s\t\n", wa.Name, m.Name, ma.Value, mb.Value, rel*100, m.Bound*100, drift*100, v)
		}
		if wb.Failed > wa.Failed {
			worse++
			fmt.Fprintf(tw, "%s\tfailed\t%d\t%d\t\t\t\tworse\t\n", wa.Name, wa.Failed, wb.Failed)
		}
	}
	_ = tw.Flush()
	if worse > 0 {
		fmt.Fprintf(stdout, "%d worse\n", worse)
		return 1
	}
	return 0
}
