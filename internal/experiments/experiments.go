// Package experiments regenerates every table and figure of the paper's
// evaluation (the per-experiment index lives in DESIGN.md). Each
// experiment returns a structured result with a paper-style text
// rendering; cmd/experiments prints them and the top-level benchmarks wrap
// them in testing.B loops.
package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"ipsa/internal/compiler/backend"
	"ipsa/internal/compiler/frontend"
	"ipsa/internal/ctrlplane"
	"ipsa/internal/hwmodel"
	"ipsa/internal/ipbm"
	"ipsa/internal/p4"
	"ipsa/internal/pisa"
	"ipsa/internal/pkt"
	"ipsa/internal/rp4/ast"
	"ipsa/internal/rp4/parser"
	"ipsa/internal/template"
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
var UseCases = []string{"C1", "C2", "C3"}

func scriptFile(uc string) string {
	switch uc {
	case "C1":
		return "ecmp.script"
	case "C2":
		return "srv6.script"
	case "C3":
		return "flowprobe.script"
	}
	return ""
}

func (c Config) read(name string) (string, error) {
	b, err := os.ReadFile(filepath.Join(c.TestdataDir, name))
	return string(b), err
}

func (c Config) loader() backend.Loader {
	return func(name string) (string, error) { return c.read(name) }
}

func (c Config) compilerOpts() backend.Options {
	o := backend.DefaultOptions()
	o.NumTSPs = c.NumTSPs
	return o
}

// baseWorkspace compiles the rP4 base design.
func (c Config) baseWorkspace() (*backend.Workspace, error) {
	src, err := c.read("base_l2l3.rp4")
	if err != nil {
		return nil, err
	}
	prog, err := parser.Parse("base_l2l3.rp4", src)
	if err != nil {
		return nil, err
	}
	return backend.NewWorkspace(prog, c.compilerOpts())
}

// p4FullCompile runs the complete P4 flow (parse, rp4fc, rp4bc) on the
// *updated* P4 source of a use case — the thing the P4 flow must redo from
// scratch for every change. The updated source is the base design merged
// with the use case's rP4 snippet, so both flows compile the same design.
func (c Config) p4FullCompile(uc string) (*template.Config, error) {
	src, err := c.read("base_l2l3.p4")
	if err != nil {
		return nil, err
	}
	hlir, err := p4.Parse("base_l2l3.p4", src)
	if err != nil {
		return nil, err
	}
	prog, _, err := frontend.Transform(hlir)
	if err != nil {
		return nil, err
	}
	opts := c.compilerOpts()
	opts.EnableMerge = false // the PISA target maps one stage per processor
	ws, err := backend.NewWorkspace(prog, opts)
	if err != nil {
		return nil, err
	}
	// Merge the use case's increment the way a developer editing the P4
	// source would (the full flow has no script language; we reuse the
	// snippet merge to build the same final design).
	if uc != "" {
		script, err := c.read(scriptFile(uc))
		if err != nil {
			return nil, err
		}
		script = rewriteScriptForP4Stages(script)
		rep, err := ws.ApplyScript(script, c.loader())
		if err != nil {
			return nil, err
		}
		return rep.Config, nil
	}
	return ws.Current().Config, nil
}

// rewriteScriptForP4Stages maps the rP4-native stage names used by the
// shipped scripts onto the <table>_stage names rp4fc generates.
func rewriteScriptForP4Stages(script string) string {
	repl := strings.NewReplacer(
		"port_map ", "port_map_tbl_stage ",
		"bd_vrf ", "bd_vrf_tbl_stage ",
		"l2_l3 ", "l2_l3_tbl_stage ",
		"ipv4_host_fib", "ipv4_host_stage",
		"ipv4_lpm_fib", "ipv4_lpm_stage",
		"ipv6_host_fib", "ipv6_host_stage",
		"ipv6_lpm_fib", "ipv6_lpm_stage",
		"nexthop ", "nexthop_tbl_stage ",
		"nexthop\n", "nexthop_tbl_stage\n",
		"l2_l3_rewrite", "smac_tbl_stage",
		"dmac ", "dmac_tbl_stage ",
	)
	return repl.Replace(script)
}

// --- Population ------------------------------------------------------------

type entryTarget interface {
	InsertEntry(req ctrlplane.EntryReq) (int, error)
}

// RouterMAC etc. are the canonical test topology addresses.
var (
	RouterMAC = pkt.MAC{0x02, 0, 0, 0, 0, 0x01}
	HostMAC   = pkt.MAC{0x02, 0, 0, 0, 0, 0x02}
	NhMAC     = pkt.MAC{0x02, 0, 0, 0, 0, 0x03}
	SmacMAC   = pkt.MAC{0x02, 0, 0, 0, 0, 0x04}
)

// PopulateBase installs the base forwarding state plus n filler entries
// per FIB table (so repopulation cost is visible in the full flow).
// Entries for tables the installed design no longer has (e.g. nexthop_tbl
// after ECMP replaced it) are skipped.
func PopulateBase(t entryTarget, cfg *template.Config, n int) error {
	type e = ctrlplane.EntryReq
	type fv = ctrlplane.FieldValue
	base := []e{
		{Table: "port_map_tbl", Keys: []fv{{Value: 1}}, Tag: 1, Params: []uint64{10}},
		{Table: "bd_vrf_tbl", Keys: []fv{{Value: 10}}, Tag: 1, Params: []uint64{100, 1}},
		{Table: "l2_l3_tbl", Keys: []fv{{Value: 100}, {Value: RouterMAC.Uint64()}}, Tag: 1},
		{Table: "nexthop_tbl", Keys: []fv{{Value: 7}}, Tag: 1, Params: []uint64{200, NhMAC.Uint64()}},
		{Table: "smac_tbl", Keys: []fv{{Value: 200}}, Tag: 1, Params: []uint64{SmacMAC.Uint64()}},
		{Table: "dmac_tbl", Keys: []fv{{Value: 200}, {Value: NhMAC.Uint64()}}, Tag: 1, Params: []uint64{3}},
		{Table: "dmac_tbl", Keys: []fv{{Value: 100}, {Value: HostMAC.Uint64()}}, Tag: 1, Params: []uint64{5}},
		// Covering route for the generated traffic.
		{Table: "ipv4_lpm", Keys: []fv{{Value: 0x0A000000}}, PrefixLen: 8, Tag: 1, Params: []uint64{7}},
	}
	for _, req := range base {
		if _, ok := cfg.Tables[req.Table]; !ok {
			continue
		}
		if _, err := t.InsertEntry(req); err != nil {
			return fmt.Errorf("populate %s: %w", req.Table, err)
		}
	}
	v6 := make([]byte, 16)
	v6[0], v6[1] = 0x20, 0x01
	if _, err := t.InsertEntry(e{Table: "ipv6_lpm", Keys: []fv{{Bytes: v6}}, PrefixLen: 32, Tag: 1, Params: []uint64{7}}); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if _, err := t.InsertEntry(e{
			Table: "ipv4_host",
			Keys:  []fv{{Value: 1}, {Value: uint64(0x0B000000 + i)}},
			Tag:   1, Params: []uint64{7},
		}); err != nil {
			return err
		}
		if _, err := t.InsertEntry(e{
			Table: "ipv4_lpm",
			Keys:  []fv{{Value: uint64(0x0C000000 + i<<8)}}, PrefixLen: 24,
			Tag: 1, Params: []uint64{7},
		}); err != nil {
			return err
		}
	}
	return nil
}

// PopulateUseCase installs the entries a use case's new tables need.
func PopulateUseCase(t entryTarget, uc string, n int) error {
	type e = ctrlplane.EntryReq
	type fv = ctrlplane.FieldValue
	switch uc {
	case "C1":
		// Next-hop group 7 gets two members in each selector.
		for _, tbl := range []string{"ecmp_ipv4", "ecmp_ipv6"} {
			for m := uint64(0); m < 2; m++ {
				if _, err := t.InsertEntry(e{
					Table: tbl, Keys: []fv{{Value: 7}},
					Tag: 1, Params: []uint64{200, NhMAC.Uint64() + m},
				}); err != nil {
					return err
				}
			}
		}
		// Second member's MAC needs a dmac entry.
		if _, err := t.InsertEntry(e{
			Table: "dmac_tbl",
			Keys:  []fv{{Value: 200}, {Value: NhMAC.Uint64() + 1}},
			Tag:   1, Params: []uint64{4},
		}); err != nil {
			return err
		}
	case "C2":
		sid := make([]byte, 16)
		sid[0], sid[15] = 0x20, 0xAA
		if _, err := t.InsertEntry(e{Table: "local_sid", Keys: []fv{{Bytes: sid}}, Tag: 1}); err != nil {
			return err
		}
		pfx := make([]byte, 16)
		pfx[0] = 0xfd
		if _, err := t.InsertEntry(e{Table: "end_transit", Keys: []fv{{Bytes: pfx}}, PrefixLen: 8, Tag: 1, Params: []uint64{7}}); err != nil {
			return err
		}
	case "C3":
		for i := 0; i < n; i++ {
			if _, err := t.InsertEntry(e{
				Table: "flow_probe",
				Keys:  []fv{{Value: 0x0A000001}, {Value: uint64(0x0A010000 + i)}},
				Tag:   1, Params: []uint64{uint64(i % 1024), 1 << 30},
			}); err != nil {
				return err
			}
		}
	}
	return nil
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
	ws, err := cfg.baseWorkspace()
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
	script, err := cfg.read(scriptFile(uc))
	if err != nil {
		return t, nil, err
	}
	t0 := time.Now()
	if rep, err = ws.ApplyScript(script, cfg.loader()); err != nil {
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

// parseRP4 is a tiny indirection so throughput.go can parse without
// importing the parser twice.
func parseRP4(name, src string) (*ast.Program, error) { return parser.Parse(name, src) }

// P4FullCompile exposes the full P4-flow compile for the benches.
func P4FullCompile(cfg Config, uc string) (*template.Config, error) {
	return cfg.p4FullCompile(uc)
}

// NewPISASwitch builds a default-sized PISA baseline switch.
func NewPISASwitch() (*pisa.Switch, error) { return pisa.New(pisa.DefaultOptions()) }
