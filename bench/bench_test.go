package main

import (
	"bytes"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// tiny shrinks a workload's tables for the smoke test.
func (w workloadSpec) tiny() workloadSpec {
	w.flows = min(w.flows, 512)
	w.host = min(w.host, 512)
	w.lpm = min(w.lpm, 512)
	w.probe = min(w.probe, 128)
	return w
}

// smokeOpts is a run short enough for `go test`: tiny tables, a 400 ms
// measured phase in 10 ms windows, three set-up repeats.
func smokeOpts(w workloadSpec, seed int64) runOpts {
	return runOpts{w: w.tiny(), seed: seed, measure: 400 * time.Millisecond, warm: 100 * time.Millisecond,
		window: 10 * time.Millisecond, fill: 256}
}

// notOn names the per-layer metrics that do not apply to a workload:
// the C3 design has no selector table, and only reconfig_storm has a
// schedule to be late against and a control plane beside its traffic.
func notOn(metric, workload string) bool {
	switch metric {
	case "match.lookup_ns.selector":
		return workload == "rtc_bigtable"
	case "gen.late_p99_us", "updates_done", "update_ms_p50", "update_ms_p90", "compiler.incr_compile_ms",
		"ipbm.commit_ms", "ctrlplane.apply_rpc_ms", "ipbm.stages_recompiled", "ipbm.stages_reused":
		return workload != "reconfig_storm"
	case "table_ops_per_s":
		return workload != "reconfig_storm" && workload != "rtc_bigtable"
	}
	return false
}

// realProblems drops the zero-allocation gate's complaint when the race
// detector is what made the hot path allocate.
func realProblems(r *runResult) []string {
	var out []string
	for _, p := range r.Problems {
		if raceEnabled && strings.HasPrefix(p, "allocs_per_pkt") {
			continue
		}
		out = append(out, p)
	}
	return out
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestManifestMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, manifestJSON()) {
		t.Fatal("BENCHMARK.json differs from spec.go: regenerate it with `bash bench/run.sh -manifest > BENCHMARK.json`")
	}
	seen := map[string]bool{}
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			if !nameRE.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("metric name %q is malformed or used twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
}

func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := runUntraced(smokeOpts(w, 1))
			if err != nil {
				t.Fatal(err)
			}
			if problems := realProblems(res); len(problems) > 0 || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("untraced run not correct: %+v", problems)
			}
			for _, m := range endToEnd {
				v, ok := res.Metrics[m.Name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v (present %v): must be a positive number", m.Name, v.Value, ok)
				}
			}
			tres, err := runTraced(smokeOpts(w, 1))
			if err != nil {
				t.Fatal(err)
			}
			if !tres.Correct {
				t.Fatalf("traced run not correct: %+v", tres.Problems)
			}
			for _, m := range perLayer {
				v, ok := tres.Metrics[m.Name]
				if ok == notOn(m.Name, w.Name) {
					t.Errorf("per-layer metric %s: emitted %v, applies %v", m.Name, ok, !notOn(m.Name, w.Name))
				}
				if ok && (math.IsNaN(v.Value) || math.IsInf(v.Value, 0)) {
					t.Errorf("per-layer metric %s = %v", m.Name, v.Value)
				}
			}
			if tres.Metrics["loss_frac"].Value != 0 || tres.Metrics["update_stall_us"].Value != 0 {
				t.Errorf("loss_frac %v, update_stall_us %v: both must be 0",
					tres.Metrics["loss_frac"].Value, tres.Metrics["update_stall_us"].Value)
			}
			if w.driver == driverRTC && !raceEnabled && tres.Metrics["allocs_per_pkt"].Value >= 0.01 {
				t.Errorf("allocs_per_pkt %v on a run-to-completion workload", tres.Metrics["allocs_per_pkt"].Value)
			}
			if _, err := os.Stat(filepath.Join("..", "bench", "out", "trace-"+w.Name+".json")); err != nil {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

// sequenceHash digests the first 4096 frames a seed generates.
func sequenceHash(t *testing.T, w workloadSpec, seed int64) uint64 {
	t.Helper()
	tr, err := newTraffic(&w, seed)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	buf := make([]byte, tr.maxLen)
	for k := 0; k < 4096; k++ {
		h.Write(tr.frame(k, buf))
	}
	return h.Sum64()
}

func TestSameSeedSameInputsAndCounts(t *testing.T) {
	for _, w := range workloads {
		if sequenceHash(t, w, 7) != sequenceHash(t, w, 7) {
			t.Errorf("%s: the same seed gave two frame sequences", w.Name)
		}
		if sequenceHash(t, w, 7) == sequenceHash(t, w, 8) {
			t.Errorf("%s: two seeds gave the same frame sequence", w.Name)
		}
	}
	w := *workloadByName("rtc_small")
	a, err := runTraced(smokeOpts(w, 3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := runTraced(smokeOpts(w, 3))
	if err != nil {
		t.Fatal(err)
	}
	if x, y := a.Metrics["tsp.lookups_per_pkt"].Value, b.Metrics["tsp.lookups_per_pkt"].Value; x != y {
		t.Errorf("tsp.lookups_per_pkt %v then %v for the same seed", x, y)
	}
	// The ratio is taken over a timed phase, so the two runs cover
	// slightly different numbers of passes over the same flow cycle.
	if x, y := a.Metrics["match.hit_ratio"].Value, b.Metrics["match.hit_ratio"].Value; math.Abs(x-y) > 1e-3 {
		t.Errorf("match.hit_ratio %v then %v for the same seed", x, y)
	}
	for _, r := range []*runResult{a, b} {
		if v := r.Metrics["allocs_per_pkt"].Value; v >= 0.01 && !raceEnabled {
			t.Errorf("allocs_per_pkt %v on rtc_small", v)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	// One run per workload, so a side's spread is the one inside the run:
	// its quartiles lie within of the value.
	mk := func(pps, within float64) *resultFile {
		f := &resultFile{}
		for _, w := range workloads {
			r := &runResult{Workload: w.Name, Correct: true, Metrics: map[string]value{}}
			for _, m := range endToEnd {
				v := 100.0
				if m.Name == "fwd_pps" {
					v = pps
				}
				r.Metrics[m.Name] = value{Value: v, Unit: m.Unit, Q1: v * (1 - within/2), Q3: v * (1 + within/2), N: 10}
			}
			f.Runs = append(f.Runs, r)
		}
		return f
	}
	dir := t.TempDir()
	for i, c := range []struct {
		pps, within float64
		worse       bool
		verdict     string
	}{
		{1010, 0.02, false, "ok"},
		{700, 0.02, true, "worse"},        // 30% fewer, steady sides
		{330, 0.30, true, "worse"},        // 3x slower: no spread explains it
		{850, 0.30, false, "unresolved"},  // 15% fewer inside a 30% spread
		{1000, 0.30, false, "unresolved"}, // no change, but too noisy to say so
	} {
		a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
		if err := saveResult(a, mk(1000, c.within)); err != nil {
			t.Fatal(err)
		}
		if err := saveResult(b, mk(c.pps, c.within)); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		worse, err := compareFiles(&out, a, b)
		if err != nil || worse != c.worse || !bytes.Contains(out.Bytes(), []byte("  "+c.verdict+"\n")) {
			t.Errorf("case %d (%v pps, spread %v): worse=%v err=%v, want %v and a %q line\n%s",
				i, c.pps, c.within, worse, err, c.worse, c.verdict, out.String())
		}
	}
}

// TestLatHist holds the histogram's quantiles to 1% of the exact ones.
func TestLatHist(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h latHist
	var xs []float64
	for i := 0; i < 100000; i++ {
		ns := int64(math.Exp(rng.NormFloat64()*1.5 + 9)) // log-normal around 8 µs
		h.add(ns)
		xs = append(xs, float64(ns))
	}
	s := sortedCopy(xs)
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		if got, want := h.quantile(q), quantile(s, q); math.Abs(got-want) > 0.01*want {
			t.Errorf("q%v = %v, exact %v", q, got, want)
		}
	}
}
