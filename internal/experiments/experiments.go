// Package experiments regenerates every table and figure of the paper's
// evaluation (the per-experiment index lives in DESIGN.md). Each
// experiment returns a structured result with a paper-style text
// rendering; cmd/experiments prints them and the top-level benchmarks wrap
// them in testing.B loops.
package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"ipsa/internal/compiler/backend"
	"ipsa/internal/hwmodel"
	"ipsa/internal/ipbm"
	"ipsa/internal/pisa"
	"ipsa/internal/template"
	"ipsa/internal/testbed"
	"ipsa/internal/tsp"
)

// Config parameterizes the harness.
type Config struct {
	// TestdataDir holds the shipped designs and scripts.
	TestdataDir string
	// NumTSPs sizes the IPSA device (software scale).
	NumTSPs int
	// Packets per software throughput measurement.
	Packets int
	// Entries installed per table when measuring repopulation cost. The
	// default nearly fills the base design's 1024-entry FIB and host
	// tables: with a few hundred, repopulating every table costs less
	// than one in-situ apply, and Table 1 would time the apply alone.
	Entries int
	// Exec selects the stage executor on both devices (fused closures by
	// default; the reference interpreter for comparison runs).
	Exec tsp.ExecMode
	// FlowOff disables the IPSA switch's always-on flow accounting — the
	// ablation knob for measuring its per-packet overhead.
	FlowOff bool
}

// Default returns the standard configuration rooted at dir.
func Default(dir string) Config {
	return Config{TestdataDir: dir, NumTSPs: 16, Packets: 20000, Entries: 1000}
}

// UseCases in paper order.
var UseCases = testbed.UseCases

// dir is the directory holding the shipped designs and scripts.
func (c Config) dir() testbed.Dir { return testbed.Dir(c.TestdataDir) }

func (c Config) compilerOpts() backend.Options {
	o := backend.DefaultOptions()
	o.NumTSPs = c.NumTSPs
	return o
}

// p4FullCompile runs the complete P4 flow on the *updated* P4 source of a
// use case: the thing the P4 flow must redo from scratch for every change.
// The PISA target maps one stage per processor, so nothing is merged.
func (c Config) p4FullCompile(uc string) (*template.Config, error) {
	opts := c.compilerOpts()
	opts.EnableMerge = false
	return c.dir().P4Full(opts, testbed.ScriptOf(uc))
}

// --- Population ------------------------------------------------------------

// RouterMAC and HostMAC are the test topology's router and bridged-host
// addresses.
var (
	RouterMAC = testbed.RouterMAC
	HostMAC   = testbed.HostMAC
)

// PopulateBase installs the base forwarding state plus n filler entries
// per FIB table (so repopulation cost is visible in the full flow).
// Entries for tables the installed design no longer has (e.g. nexthop_tbl
// after ECMP replaced it) are skipped.
func PopulateBase(t testbed.EntryTarget, cfg *template.Config, n int) error {
	return testbed.Install(t, cfg, testbed.Filled(n))
}

// PopulateUseCase installs the entries a use case's new tables need.
func PopulateUseCase(t testbed.EntryTarget, uc string, n int) error {
	return testbed.Install(t, nil, testbed.UseCase(uc, n))
}

// --- Table 1 ---------------------------------------------------------------

// Table1Row is one flow × use-case measurement.
type Table1Row struct {
	Flow      string // "PISA" | "IPSA" | "bmv2-equiv" | "ipbm"
	UseCase   string
	CompileMs float64
	LoadMs    float64
}

// Table1Result regenerates Table 1.
type Table1Result struct {
	Rows []Table1Row
}

// Table1 measures the update performance of the P4 flow (full recompile +
// full reload + full repopulation) against the rP4 flow (incremental
// compile + patch + new-table population). The hardware rows come from the
// FPGA time model fed with the real compiler deltas; the software rows are
// wall-clock measurements of the two behavioral models, each the quickest
// of table1Reps runs: C3's flows differ by less than the box's run-to-run
// spread once table writes are cheap, and one slow run must not decide
// which flow loads faster.
func Table1(cfg Config) (*Table1Result, error) {
	res := &Table1Result{}
	ltp := hwmodel.DefaultLoadTimeParams()
	for _, uc := range UseCases {
		var best table1Times
		var rep *backend.UpdateReport
		for i := 0; i < table1Reps; i++ {
			t, r, err := table1Once(cfg, uc)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				best, rep = t, r
			}
			best = best.min(t)
		}

		// Hardware rows from the FPGA time model, fed the real deltas.
		cost := hwmodel.UpdateCost{
			TotalStages:        len(rep.Config.IngressChain) + len(rep.Config.EgressChain),
			TotalTables:        len(rep.Config.Tables),
			ChangedStages:      len(rep.AddedStages) + len(rep.RemovedStages),
			NewTables:          len(rep.NewTables),
			RewrittenTSPs:      len(rep.RewrittenTSPs),
			HeaderLinksChanged: rep.HeaderLinksChanged,
		}
		for _, h := range rep.Config.Headers {
			if h.VarLen != nil {
				cost.VarLenHeaders++
			}
		}
		cost.Registers = len(rep.Config.Registers)

		res.Rows = append(res.Rows,
			Table1Row{Flow: "PISA", UseCase: uc, CompileMs: ltp.PISACompileMs(cost), LoadMs: ltp.PISALoadMs(cost)},
			Table1Row{Flow: "IPSA", UseCase: uc, CompileMs: ltp.IPSACompileMs(cost), LoadMs: ltp.IPSALoadMs(cost)},
			Table1Row{Flow: "bmv2-equiv", UseCase: uc, CompileMs: ms(best.bmv2Compile), LoadMs: ms(best.bmv2Load)},
			Table1Row{Flow: "ipbm", UseCase: uc, CompileMs: ms(best.ipbmCompile), LoadMs: ms(best.ipbmLoad)},
		)
	}
	return res, nil
}

// table1Reps is how many times Table1 measures each use case.
const table1Reps = 3

// table1Times is one measurement of a use case's two software flows.
type table1Times struct {
	ipbmCompile, ipbmLoad, bmv2Compile, bmv2Load time.Duration
}

func (a table1Times) min(b table1Times) table1Times {
	return table1Times{min(a.ipbmCompile, b.ipbmCompile), min(a.ipbmLoad, b.ipbmLoad),
		min(a.bmv2Compile, b.bmv2Compile), min(a.bmv2Load, b.bmv2Load)}
}

// table1Once times uc's rP4 flow on ipbm and its P4 flow on the PISA
// behavioral model once, each on a fresh switch, and returns the
// incremental compiler's update report.
func table1Once(cfg Config, uc string) (t table1Times, rep *backend.UpdateReport, err error) {
	// rP4 incremental flow, measured on ipbm.
	ws, err := cfg.dir().Workspace(cfg.compilerOpts())
	if err != nil {
		return t, nil, err
	}
	sw, err := ipbm.New(swOpts(cfg))
	if err != nil {
		return t, nil, err
	}
	if _, err := sw.ApplyConfig(ws.Current().Config); err != nil {
		return t, nil, err
	}
	if err := PopulateBase(sw, ws.Current().Config, cfg.Entries); err != nil {
		return t, nil, err
	}
	script, err := cfg.dir().Read(testbed.ScriptOf(uc))
	if err != nil {
		return t, nil, err
	}
	t0 := time.Now()
	if rep, err = ws.ApplyScript(script, cfg.dir().Read); err != nil {
		return t, nil, err
	}
	t.ipbmCompile = time.Since(t0)
	// Each timed load starts on a collected heap, so neither flow pays
	// for the garbage its set-up left.
	runtime.GC()
	t1 := time.Now()
	if _, err := sw.ApplyConfig(rep.Config); err != nil {
		return t, nil, err
	}
	if err := PopulateUseCase(sw, uc, cfg.Entries); err != nil {
		return t, nil, err
	}
	t.ipbmLoad = time.Since(t1)

	// P4 full flow, measured on the PISA behavioral model.
	popts := pisa.DefaultOptions()
	popts.Exec = cfg.Exec
	psw, err := pisa.New(popts)
	if err != nil {
		return t, nil, err
	}
	t2 := time.Now()
	fullCfg, err := cfg.p4FullCompile(uc)
	if err != nil {
		return t, nil, err
	}
	t.bmv2Compile = time.Since(t2)
	runtime.GC()
	t3 := time.Now()
	if _, err := psw.ApplyConfig(fullCfg); err != nil {
		return t, nil, err
	}
	// Full reload discards everything: the P4 flow must repopulate
	// every table, not just the new ones.
	if err := PopulateBase(psw, fullCfg, cfg.Entries); err != nil {
		return t, nil, err
	}
	if err := PopulateUseCase(psw, uc, cfg.Entries); err != nil {
		return t, nil, err
	}
	t.bmv2Load = time.Since(t3)
	return t, rep, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func swOpts(cfg Config) ipbm.Options {
	o := ipbm.DefaultOptions()
	o.NumTSPs = cfg.NumTSPs
	o.Exec = cfg.Exec
	o.FlowDisable = cfg.FlowOff
	return o
}

// Ratio reports incremental/full for a use case in one flow family.
func (r *Table1Result) Ratio(fullFlow, incFlow, uc string) float64 {
	var full, inc float64
	for _, row := range r.Rows {
		if row.UseCase != uc {
			continue
		}
		switch row.Flow {
		case fullFlow:
			full = row.CompileMs + row.LoadMs
		case incFlow:
			inc = row.CompileMs + row.LoadMs
		}
	}
	if full == 0 {
		return 0
	}
	return inc / full
}

// String renders the table.
func (r *Table1Result) String() string {
	var b strings.Builder
	b.WriteString("Table 1: compiling time t_C and loading time t_L (ms)\n")
	fmt.Fprintf(&b, "%-12s %-4s %12s %12s\n", "flow", "case", "t_C", "t_L")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %-4s %12.2f %12.2f\n", row.Flow, row.UseCase, row.CompileMs, row.LoadMs)
	}
	for _, uc := range UseCases {
		fmt.Fprintf(&b, "ratio IPSA/PISA %s: %5.2f%%   ratio ipbm/bmv2 %s: %5.2f%%\n",
			uc, r.Ratio("PISA", "IPSA", uc)*100, uc, r.Ratio("bmv2-equiv", "ipbm", uc)*100)
	}
	return b.String()
}
