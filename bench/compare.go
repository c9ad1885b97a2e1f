package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// quartiles mirrors Python's statistics.quantiles(values, n=4), the
// rule the acceptance check uses, so -compare judges spread the way the
// driver does.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// side is one file's view of one workload x metric: the median over its
// runs and the spread (interquartile distance over the median). With
// four runs or more the spread is across runs; with fewer it falls back
// to the spread across the windows inside the runs.
type side struct {
	median, spread float64
	runs           int
}

func readSide(f *resultFile, workload, metric string) (side, bool) {
	var vals, within []float64
	for _, r := range f.Runs {
		if r.Workload != workload || r.Trace {
			continue
		}
		v, ok := r.Metrics[metric]
		if !ok {
			continue
		}
		vals = append(vals, v.Value)
		if v.N > 1 && v.Value != 0 {
			within = append(within, (v.Q3-v.Q1)/v.Value)
		}
	}
	if len(vals) == 0 {
		return side{}, false
	}
	s := side{median: median(vals), runs: len(vals)}
	switch {
	case len(vals) >= 4:
		q1, q2, q3 := quartiles(vals)
		s.median, s.spread = q2, (q3-q1)/q2
	case len(within) > 0:
		s.spread = median(within)
	}
	return s, true
}

func saveResult(path string, f *resultFile) error {
	raw, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

func loadResult(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints, per workload x end-to-end metric, both medians,
// the ratio b/a with its base, the bound, and a verdict. With loss the
// share by which b is worse than a and spread the wider of the two
// sides' own spreads: worse when loss exceeds bound + spread (no spread
// explains it), ok when loss is within the bound and so is the spread,
// unresolved in between (the spread is wider than the bound, or the
// loss beyond the bound lies inside it).
func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := loadResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResult(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "a = %s   b = %s   ratio = b/a (base a)\n", pathA, pathB)
	fmt.Fprintf(w, "%-15s %-16s %13s %13s %7s %6s %9s %9s  %s\n",
		"workload", "metric", "a median", "b median", "ratio", "bound", "a spread", "b spread", "verdict")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			sa, okA := readSide(a, wl.Name, m.Name)
			sb, okB := readSide(b, wl.Name, m.Name)
			if !okA || !okB {
				fmt.Fprintf(w, "%-15s %-16s missing from %s\n", wl.Name, m.Name, map[bool]string{true: pathB, false: pathA}[okA])
				worse = true
				continue
			}
			ratio := sb.median / sa.median
			loss, spread := ratio-1, max(sa.spread, sb.spread)
			if m.Better == "higher" {
				loss = 1 - ratio
			}
			verdict := "ok"
			switch {
			case loss > m.Bound+spread:
				verdict = "worse"
				worse = true
			case loss > m.Bound || spread > m.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-15s %-16s %13.6g %13.6g %7.3f %5.0f%% %8.1f%% %8.1f%%  %s\n",
				wl.Name, m.Name, sa.median, sb.median, ratio, m.Bound*100, sa.spread*100, sb.spread*100, verdict)
		}
	}
	return worse, nil
}

// referenceJSON renders bench/reference.json: what the issue wanted in
// BENCHMARK.json and its fixed schema has no key for. The reference
// box's size, the constants a run's shape depends on, each per-layer
// metric's place in the ledger, and the end-to-end baselines (median and
// spread over the runs in the given result files).
func referenceJSON(paths []string) ([]byte, error) {
	type baseline struct {
		Workload string  `json:"workload"`
		Metric   string  `json:"metric"`
		Unit     string  `json:"unit"`
		Median   float64 `json:"median"`
		Spread   float64 `json:"spread"`
		Runs     int     `json:"runs"`
	}
	type ledger struct {
		Name  string `json:"name"`
		Layer string `json:"layer"`
		Moves string `json:"should_move"`
		On    string `json:"on_workload"`
	}
	ref := struct {
		NProc         int        `json:"nproc"`
		Go            string     `json:"go"`
		RunSeconds    int        `json:"run_seconds"`
		WindowMs      int        `json:"window_ms"`
		StormPPS      int        `json:"storm_pps"`
		StormPeriodMs int        `json:"storm_update_period_ms"`
		ClosedWindow  int        `json:"closed_loop_frames_in_flight"`
		Baselines     []baseline `json:"baselines"`
		PerLayer      []ledger   `json:"per_layer"`
	}{RunSeconds: runSeconds, WindowMs: windowMs, StormPPS: stormPPS, StormPeriodMs: stormPeriodMs, ClosedWindow: closedWindow}
	all := &resultFile{}
	for _, path := range paths {
		f, err := loadResult(path)
		if err != nil {
			return nil, err
		}
		ref.NProc, ref.Go = f.NProc, f.Go
		all.Runs = append(all.Runs, f.Runs...)
	}
	for _, wl := range workloads {
		for _, m := range endToEnd {
			if s, ok := readSide(all, wl.Name, m.Name); ok {
				ref.Baselines = append(ref.Baselines, baseline{wl.Name, m.Name, m.Unit, s.median, s.spread, s.runs})
			}
		}
	}
	for _, m := range perLayer {
		ref.PerLayer = append(ref.PerLayer, ledger{m.Name, m.Layer, m.Moves, m.On})
	}
	raw, err := json.MarshalIndent(ref, "", "  ")
	return append(raw, '\n'), err
}
