package backend

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestParseScript(t *testing.T) {
	cmds, err := ParseScript(`
# comment
load ecmp.rp4 --func_name ecmp
add_link a b
link_header --pre ipv6 --next srh --tag 43
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmds) != 3 {
		t.Fatalf("cmds = %+v", cmds)
	}
	if cmds[0].Op != "load" || cmds[0].Args[0] != "ecmp.rp4" || cmds[0].Flags["func_name"] != "ecmp" {
		t.Errorf("load: %+v", cmds[0])
	}
	if cmds[2].Flags["tag"] != "43" {
		t.Errorf("link_header: %+v", cmds[2])
	}
	if _, err := ParseScript("frobnicate x"); err == nil {
		t.Error("unknown command accepted")
	}
	if _, err := ParseScript("load x --func_name"); err == nil {
		t.Error("flag without value accepted")
	}
}

func TestApplyECMPScript(t *testing.T) {
	w, err := NewWorkspace(loadBase(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := w.ApplyScript(readScript(t, "ecmp.script"), testdataLoader(t))
	if err != nil {
		t.Fatal(err)
	}
	// The nexthop stage (H) is replaced by the ECMP stage (paper Sec. 4.2).
	if len(rep.RemovedStages) != 1 || rep.RemovedStages[0] != "nexthop" {
		t.Errorf("removed = %v, want [nexthop]", rep.RemovedStages)
	}
	if len(rep.AddedStages) != 1 || rep.AddedStages[0] != "ecmp_stage" {
		t.Errorf("added = %v", rep.AddedStages)
	}
	// Only the two new ECMP tables need population (Table 1 note).
	if len(rep.NewTables) != 2 || rep.NewTables[0] != "ecmp_ipv4" || rep.NewTables[1] != "ecmp_ipv6" {
		t.Errorf("new tables = %v", rep.NewTables)
	}
	if len(rep.RemovedTables) != 1 || rep.RemovedTables[0] != "nexthop_tbl" {
		t.Errorf("removed tables = %v", rep.RemovedTables)
	}
	// Incremental layout: ECMP slots into the TSP freed by nexthop — a
	// single template rewrite, the in-situ promise.
	if len(rep.RewrittenTSPs) != 1 {
		t.Errorf("rewritten TSPs = %v, want exactly 1", rep.RewrittenTSPs)
	}
	if rep.Stats.LayoutRewrites != 1 {
		t.Errorf("layout rewrites = %d, want 1", rep.Stats.LayoutRewrites)
	}
	if rep.HeaderLinksChanged {
		t.Error("ECMP adds no header links")
	}
	// The updated base design round-trips through the printer/parser.
	rendered := w.RenderProgram()
	if !strings.Contains(rendered, "stage ecmp_stage") || strings.Contains(rendered, "stage nexthop ") {
		t.Errorf("rendered design wrong:\n%s", rendered)
	}
	if err := rep.Config.Validate(); err != nil {
		t.Errorf("updated config invalid: %v", err)
	}
	// ecmp_stage inherited the ingress pipe.
	if rep.Config.Stages["ecmp_stage"].Pipe != "ingress" {
		t.Errorf("ecmp_stage pipe = %q", rep.Config.Stages["ecmp_stage"].Pipe)
	}
}

func TestApplySRv6Script(t *testing.T) {
	opts := DefaultOptions()
	// SRv6's inner-IP linkage defeats the v4/v6 exclusivity merges, so the
	// updated design needs more physical TSPs than the paper's 8-stage
	// FPGA baseline; see EXPERIMENTS.md.
	opts.NumTSPs = 12
	w, err := NewWorkspace(loadBase(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := w.ApplyScript(readScript(t, "srv6.script"), testdataLoader(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.AddedStages) != 2 {
		t.Errorf("added = %v", rep.AddedStages)
	}
	if !rep.HeaderLinksChanged {
		t.Error("link_header not reported")
	}
	// SRH is now a parseable header.
	srh := rep.Config.HeaderByName("srh")
	if srh == nil {
		t.Fatal("srh header missing from config")
	}
	if srh.VarLen == nil || srh.VarLen.BaseBytes != 8 || srh.VarLen.UnitBytes != 8 {
		t.Errorf("srh varlen: %+v", srh.VarLen)
	}
	// ipv6's implicit parser gained the tag-43 transition to srh.
	v6 := rep.Config.HeaderByName("ipv6")
	found := false
	for _, tr := range v6.Transitions {
		if tr.Tag == 43 && tr.Next == srh.ID {
			found = true
		}
	}
	if !found {
		t.Errorf("ipv6 transitions: %+v", v6.Transitions)
	}
	if len(rep.NewTables) != 2 {
		t.Errorf("new tables = %v", rep.NewTables)
	}
	if err := rep.Config.Validate(); err != nil {
		t.Errorf("config invalid: %v", err)
	}
}

func TestApplyFlowProbeScript(t *testing.T) {
	w, err := NewWorkspace(loadBase(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := w.ApplyScript(readScript(t, "flowprobe.script"), testdataLoader(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.AddedStages) != 1 || rep.AddedStages[0] != "probe_stage" {
		t.Errorf("added = %v", rep.AddedStages)
	}
	if len(rep.RemovedStages) != 0 {
		t.Errorf("removed = %v", rep.RemovedStages)
	}
	if len(rep.NewTables) != 1 || rep.NewTables[0] != "flow_probe" {
		t.Errorf("new tables = %v", rep.NewTables)
	}
	// The probe register arrives with the update.
	foundReg := false
	for _, r := range rep.Config.Registers {
		if r.Name == "flow_cnt" && r.Size == 1024 {
			foundReg = true
		}
	}
	if !foundReg {
		t.Errorf("registers: %+v", rep.Config.Registers)
	}
}

func TestUnloadFunction(t *testing.T) {
	w, err := NewWorkspace(loadBase(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.ApplyScript(readScript(t, "flowprobe.script"), testdataLoader(t)); err != nil {
		t.Fatal(err)
	}
	// Function removal: offload the probe again. The chain edge it sat on
	// must be restored explicitly, as a real operator script would.
	rep, err := w.ApplyScript(`
unload probe
add_link ipv4_lpm_fib ipv6_host_fib
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.RemovedStages) != 1 || rep.RemovedStages[0] != "probe_stage" {
		t.Errorf("removed = %v", rep.RemovedStages)
	}
	if len(rep.RemovedTables) != 1 || rep.RemovedTables[0] != "flow_probe" {
		t.Errorf("removed tables = %v", rep.RemovedTables)
	}
	if _, ok := rep.Config.Stages["probe_stage"]; ok {
		t.Error("probe stage still present")
	}
}

func TestScriptErrors(t *testing.T) {
	w, err := NewWorkspace(loadBase(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cases := []string{
		"add_link nosuch port_map",
		"add_link port_map nosuch",
		"del_link port_map dmac",         // edge does not exist
		"add_link dmac port_map",         // would create a cycle with the chain
		"load missing.rp4 --func_name x", // loader fails
		"link_header --pre ghost --next ipv4 --tag 1",
		"link_header --pre tcp --next ipv4 --tag 1", // tcp has no implicit parser
		"unload ghost_func",
		"unlink_header --pre ethernet --tag 9999",
		"link_header --pre ipv6",
		"remove_stage a b",
	}
	for _, s := range cases {
		if _, err := w.ApplyScript(s, testdataLoader(t)); err == nil {
			t.Errorf("accepted: %s", s)
		}
	}
}

// TestFailedScriptLeavesWorkspace: a script that fails after an earlier
// command already edited the design leaves the workspace exactly as it
// was — rendered design and compiled configuration — and the next script
// applies to that state.
func TestFailedScriptLeavesWorkspace(t *testing.T) {
	w, err := NewWorkspace(loadBase(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	state := func() (string, string) {
		cfg, err := json.Marshal(w.Current().Config)
		if err != nil {
			t.Fatal(err)
		}
		return w.RenderProgram(), string(cfg)
	}
	prog, cfg := state()
	bad := "load ecmp.rp4 --func_name ecmp\nadd_link no_such_stage x\n"
	if _, err := w.ApplyScript(bad, testdataLoader(t)); err == nil {
		t.Fatal("script with an unknown stage accepted")
	}
	if gotProg, gotCfg := state(); gotProg != prog || gotCfg != cfg {
		t.Fatalf("failed script changed the workspace (design changed: %v, config changed: %v)",
			gotProg != prog, gotCfg != cfg)
	}
	if _, err := w.ApplyScript(readScript(t, "ecmp.script"), testdataLoader(t)); err != nil {
		t.Fatalf("ecmp.script after a failed script: %v", err)
	}
}

func TestMergeSnippetConflicts(t *testing.T) {
	w, err := NewWorkspace(loadBase(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	loader := func(name string) (string, error) {
		switch name {
		case "redef_header.rp4":
			return `headers { header ipv4 { bit<8> wrong; } }`, nil
		case "redef_action.rp4":
			return `action set_iif(bit<16> iif) { meta.bd = iif; }`, nil
		case "redef_table.rp4":
			return `table ipv4_lpm { key = { ipv4.dst_addr: lpm; } size = 4; }`, nil
		case "redef_stage.rp4":
			return `stage port_map { executor { default: NoAction; }; }`, nil
		case "same_action.rp4":
			return "action set_iif(bit<16> iif) {\n    meta.iif = iif;\n}\n", nil
		}
		return "", nil
	}
	for _, f := range []string{"redef_header.rp4", "redef_action.rp4", "redef_table.rp4", "redef_stage.rp4"} {
		if _, err := w.ApplyScript("load "+f, loader); err == nil {
			t.Errorf("conflicting %s accepted", f)
		}
	}
	// Identical action redefinition is fine (Fig. 5a restates set_bd_dmac).
	if _, err := w.ApplyScript("load same_action.rp4", loader); err != nil {
		t.Errorf("identical redefinition rejected: %v", err)
	}
}

func TestUnlinkHeader(t *testing.T) {
	opts := DefaultOptions()
	opts.NumTSPs = 12
	w, err := NewWorkspace(loadBase(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.ApplyScript(readScript(t, "srv6.script"), testdataLoader(t)); err != nil {
		t.Fatal(err)
	}
	// Remove the inner-IPv4 linkage again; idempotent re-link also works.
	rep, err := w.ApplyScript("unlink_header --pre srh --tag 4", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.HeaderLinksChanged {
		t.Error("unlink not reported")
	}
	srh := rep.Config.HeaderByName("srh")
	for _, tr := range srh.Transitions {
		if tr.Tag == 4 {
			t.Error("tag 4 transition survived unlink")
		}
	}
	// Re-adding the same link twice is idempotent.
	if _, err := w.ApplyScript("link_header --pre srh --next ipv4 --tag 4\nlink_header --pre srh --next ipv4 --tag 4", nil); err != nil {
		t.Fatal(err)
	}
}

func TestSelectorChangeDetection(t *testing.T) {
	opts := DefaultOptions()
	opts.NumTSPs = 12
	w, err := NewWorkspace(loadBase(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	// SRv6 adds ingress stages, moving the TM boundary.
	rep, err := w.ApplyScript(readScript(t, "srv6.script"), testdataLoader(t))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SelectorChanged {
		t.Error("selector change not detected for SRv6 growth")
	}
}
