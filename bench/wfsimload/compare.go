package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// record is one run's result as -out appends it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

// benchmarkSpec is the part of BENCHMARK.json the verdicts need.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readSpec() (*benchmarkSpec, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// readRuns loads the untraced runs of a result file: workload → metric →
// one value per run.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace != 0 {
			continue
		}
		if runs[rec.Workload] == nil {
			runs[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Metrics {
			runs[rec.Workload][name] = append(runs[rec.Workload][name], m.Value)
		}
	}
	return runs, sc.Err()
}

// worsening is by how much of the parent's median the change's median is
// worse (positive) or better (negative).
func worsening(parent, change float64, better string) float64 {
	if parent == 0 {
		return 0
	}
	d := (change - parent) / math.Abs(parent)
	if better == "higher" {
		d = -d
	}
	return d
}

// verdict applies the rule of the choosing-metrics guide: worse when the
// change's median is worse than the parent's by more than the bound; when
// either side's own spread is wider than the bound the pairing is
// unresolved, not unchanged — unless every run of the change reads better
// than every run of the parent.
func verdict(parent, change []float64, better string, bound float64) string {
	if worsening(median(parent), median(change), better) > bound {
		return "worse"
	}
	if len(parent) >= 2 && len(change) >= 2 && math.Max(spread(parent), spread(change)) > bound {
		p, c := sorted(parent), sorted(change)
		allBetter := c[0] > p[len(p)-1]
		if better == "lower" {
			allBetter = c[len(c)-1] < p[0]
		}
		if !allBetter {
			return "unresolved"
		}
	}
	return "ok"
}

// compareFiles prints one row per workload × end-to-end metric.
func compareFiles(w io.Writer, parentPath, changePath string) error {
	spec, err := readSpec()
	if err != nil {
		return err
	}
	parent, err := readRuns(parentPath)
	if err != nil {
		return err
	}
	change, err := readRuns(changePath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tparent\tchange\tworse by\tbound\tverdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			p, c := parent[wl.Name][m.Name], change[wl.Name][m.Name]
			if len(p) == 0 || len(c) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t-\t-\t-\t%.2f\tmissing\n", wl.Name, m.Name, m.Unit, m.Bound)
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%+.1f%%\t%.0f%%\t%s\n",
				wl.Name, m.Name, m.Unit, median(p), median(c),
				100*worsening(median(p), median(c), m.Better), 100*m.Bound,
				verdict(p, c, m.Better, m.Bound))
		}
	}
	return tw.Flush()
}

// boundFloors are the smallest bounds calibration may freeze (the contract
// caps every bound at 0.25).
var boundFloors = map[string]float64{
	"ops_per_s": 0.10, "p50_ms": 0.10, "cpu_ms_per_op": 0.10,
	"p95_ms": 0.15, "setup_s": 0.20,
	"ok_share": 0.01, "correct_share": 0.01, "slo_ok_share": 0.01,
}

// calibrateFiles summarises several sets of runs of the same code: per
// workload and metric, each set's median, how far the worst set's median
// lies from the median of sets, the widest within-set spread, and the bound
// that follows: max(floor, 2 × largest deviation).
func calibrateFiles(w io.Writer, paths []string) error {
	type row struct {
		SetMedians   []float64 `json:"set_medians"`
		SetSpreads   []float64 `json:"set_spreads"`
		Median       float64   `json:"median_of_sets"`
		MaxDeviation float64   `json:"max_deviation"`
		MaxSpread    float64   `json:"max_spread"`
		Bound        float64   `json:"bound"`
	}
	out := map[string]map[string]*row{}
	var sets []string
	for _, path := range paths {
		sets = append(sets, filepath.Base(path))
		runs, err := readRuns(path)
		if err != nil {
			return err
		}
		for wl, metrics := range runs {
			if out[wl] == nil {
				out[wl] = map[string]*row{}
			}
			for name, vals := range metrics {
				if out[wl][name] == nil {
					out[wl][name] = &row{}
				}
				r := out[wl][name]
				r.SetMedians = append(r.SetMedians, median(vals))
				r.SetSpreads = append(r.SetSpreads, spread(vals))
			}
		}
	}
	for _, metrics := range out {
		for name, r := range metrics {
			r.Median = median(r.SetMedians)
			for i, m := range r.SetMedians {
				if r.Median != 0 {
					r.MaxDeviation = math.Max(r.MaxDeviation, math.Abs(m-r.Median)/r.Median)
				}
				if s := r.SetSpreads[i]; !math.IsNaN(s) {
					r.MaxSpread = math.Max(r.MaxSpread, s)
				}
			}
			r.Bound = math.Min(0.25, math.Max(boundFloors[name], 2*r.MaxDeviation))
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{"sets": sets, "metrics": out})
}
