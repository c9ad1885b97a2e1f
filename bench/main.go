// Command bench is the repository's one benchmark: four named workloads
// driven through the public API of internal/ipbm and its layers, the
// end-to-end metrics BENCHMARK.json bounds, and an outside-in per-layer
// ledger from a separate traced run. See README.md.
//
//	bash bench/run.sh                                  # every workload, untraced then traced
//	bash bench/run.sh --workload rtc_small --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	NProc int          `json:"nproc"`
	Go    string       `json:"go"`
	Runs  []*runResult `json:"runs"`
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (default: all four, untraced then traced)")
		seed     = flag.Int64("seed", 1, "seeds trafficgen and the flow-order permutation")
		seconds  = flag.Int("seconds", runSeconds, "measured phase of a run, in seconds")
		trace    = flag.Int("trace", 0, "1: the traced run (per-layer metrics, bench/out/trace-<workload>.json)")
		repeat   = flag.Int("repeat", 1, "without -workload: run the whole set this many times, seed, seed+1, ...")
		out      = flag.String("out", "", "without -workload: where the JSON result goes (default bench/out/result.json)")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json as this harness defines it")
		refFrom  = flag.Bool("reference", false, "print bench/reference.json from result files: -reference a.json ...")
		result   = flag.String("result", "", "with -workload: also write the run, quartiles and all, to this file")
	)
	flag.Parse()
	switch {
	case *manifest:
		os.Stdout.Write(manifestJSON())
	case *refFrom:
		raw, err := referenceJSON(flag.Args())
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(raw)
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare a.json b.json"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
	case *workload != "":
		w := workloadByName(*workload)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		res, err := runOne(*w, *seed, *seconds, *trace == 1)
		if err != nil {
			fatal(err)
		}
		printRun(res)
		if *result != "" {
			if err := saveResult(*result, &resultFile{Runs: []*runResult{res}}); err != nil {
				fatal(err)
			}
		}
		fmt.Println(driverLine(res))
	default:
		dir, err := outDir()
		if err != nil {
			fatal(err)
		}
		file := resultFile{NProc: runtime.NumCPU(), Go: runtime.Version()}
		for rep := 0; rep < *repeat; rep++ {
			for _, w := range workloads {
				for trace := 0; trace <= 1; trace++ {
					res, err := runChild(dir, w.Name, *seed+int64(rep), *seconds, trace)
					if err != nil {
						fatal(err)
					}
					file.Runs = append(file.Runs, res)
				}
			}
		}
		if *out == "" {
			*out = filepath.Join(dir, "result.json")
		}
		if err := saveResult(*out, &file); err != nil {
			fatal(err)
		}
		fmt.Println("result written to", *out)
		for _, r := range file.Runs {
			if !r.Correct {
				os.Exit(1)
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runChild runs one workload in a process of its own, exactly as the
// driver does, so that no run inherits another's heap, and reads its
// result back.
func runChild(dir, workload string, seed int64, seconds, trace int) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "run.json")
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-result", path)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (trace %d): %w", workload, trace, err)
	}
	f, err := loadResult(path)
	if err != nil {
		return nil, err
	}
	return f.Runs[0], os.Remove(path)
}

func runOne(w workloadSpec, seed int64, seconds int, traced bool) (*runResult, error) {
	o := defaultOpts(w, seed, seconds)
	if traced {
		return runTraced(o)
	}
	return runUntraced(o)
}

// declared lists the metrics a run of this kind must report.
func declared(traced bool) []metricSpec {
	if traced {
		return perLayer
	}
	return endToEnd
}

// printRun prints every metric by name with its unit, the quartiles and
// sample count beside it, then the verdict.
func printRun(r *runResult) {
	kind := "end-to-end"
	if r.Trace {
		kind = "per-layer (traced)"
	}
	fmt.Printf("== %s  seed %d  %s\n", r.Workload, r.Seed, kind)
	for _, m := range declared(r.Trace) {
		v, ok := r.Metrics[m.Name]
		if !ok {
			fmt.Printf("  %-28s %14s %-6s (does not apply to this workload)\n", m.Name, "n/a", m.Unit)
			continue
		}
		line := fmt.Sprintf("  %-28s %14.6g %-6s", m.Name, v.Value, v.Unit)
		if v.N > 1 && (v.Q1 != 0 || v.Q3 != 0) {
			line += fmt.Sprintf(" median %.6g q1 %.6g q3 %.6g n %d", v.Med, v.Q1, v.Q3, v.N)
		} else if v.N > 1 {
			line += fmt.Sprintf(" n %d", v.N)
		}
		if m.Moves != "" {
			line += fmt.Sprintf("  [%s -> %s on %s]", m.Layer, m.Moves, m.On)
		}
		fmt.Println(line)
	}
	fmt.Printf("  correct %v  attempted %d  failed %d\n", r.Correct, r.Attempted, r.Failed)
	for _, p := range r.Problems {
		fmt.Println("  PROBLEM:", p)
	}
}

// driverLine is the one JSON object the driver reads from the last line
// of standard output: exactly the declared metrics of this kind of run.
// A per-layer metric that does not apply to the workload is reported as
// 0 there (the driver wants every name); printRun shows it as n/a.
func driverLine(r *runResult) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for _, m := range declared(r.Trace) {
		v := r.Metrics[m.Name].Value
		if math.IsNaN(v) || math.IsInf(v, 0) || (!r.Trace && v <= 0) {
			line.Correct = false
			v = 0
		}
		line.Metrics[m.Name] = mv{v, m.Unit}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	return string(raw)
}

// manifestJSON renders BENCHMARK.json from spec.go.
func manifestJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.Name, w.Why})
	}
	for _, s := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{s.Name, s.Unit, s.Better, s.Bound})
	}
	for _, s := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{s.Name, s.Unit, s.Better})
	}
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		fatal(err)
	}
	return append(raw, '\n')
}
