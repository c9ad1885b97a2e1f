package testbed

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"ipsa/internal/compiler/backend"
	"ipsa/internal/compiler/frontend"
	"ipsa/internal/p4"
	"ipsa/internal/rp4/parser"
	"ipsa/internal/rp4/printer"
	"ipsa/internal/template"
)

// Dir is a directory holding the shipped designs and update scripts.
type Dir string

var (
	repoOnce sync.Once
	repoDir  Dir
)

// Repo is the repository's testdata directory, found from the working
// directory upwards (a package's tests run in its own directory).
func Repo() Dir {
	repoOnce.Do(func() {
		repoDir = "testdata"
		for dir := "."; ; dir = filepath.Join(dir, "..") {
			if _, err := os.Stat(filepath.Join(dir, "testdata", "base_l2l3.rp4")); err == nil {
				repoDir = Dir(filepath.Join(dir, "testdata"))
				return
			}
			if abs, err := filepath.Abs(dir); err != nil || filepath.Dir(abs) == abs {
				return
			}
		}
	})
	return repoDir
}

// Read returns a shipped file's text. As a method value it is the
// compiler's backend.Loader.
func (d Dir) Read(name string) (string, error) {
	b, err := os.ReadFile(filepath.Join(string(d), name))
	return string(b), err
}

// Compiler is the compiler configuration of the software switch: the
// default options on 16 TSPs.
func Compiler() backend.Options {
	o := backend.DefaultOptions()
	o.NumTSPs = 16
	return o
}

// UseCases are the paper's three in-situ updates, in paper order.
var UseCases = []string{"C1", "C2", "C3"}

// ScriptOf is the update script of a use case ("" for none).
func ScriptOf(uc string) string {
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

// Scripts are the shipped update scripts; "" stands for the base design.
var Scripts = []string{"", "ecmp.script", "acl.script", "vlan.script", "srv6.script", "flowprobe.script"}

// Workspace compiles the rP4 base design.
func (d Dir) Workspace(opts backend.Options) (*backend.Workspace, error) {
	src, err := d.Read("base_l2l3.rp4")
	if err != nil {
		return nil, err
	}
	prog, err := parser.Parse("base_l2l3.rp4", src)
	if err != nil {
		return nil, err
	}
	return backend.NewWorkspace(prog, opts)
}

// Update applies a shipped script to w incrementally.
func (d Dir) Update(w *backend.Workspace, script string) (*backend.UpdateReport, error) {
	src, err := d.Read(script)
	if err != nil {
		return nil, err
	}
	return w.ApplyScript(src, d.Read)
}

// Incremental is the design an in-situ update reaches: the base design
// with script ("" for none) applied to it incrementally.
func (d Dir) Incremental(opts backend.Options, script string) (*template.Config, error) {
	w, err := d.Workspace(opts)
	if err != nil {
		return nil, err
	}
	if script == "" {
		return w.Current().Config, nil
	}
	rep, err := d.Update(w, script)
	if err != nil {
		return nil, err
	}
	return rep.Config, nil
}

// P4Full runs the whole P4 flow on the updated P4 source of an update:
// the P4 base design through the front end (rp4fc), its rP4 text parsed
// back (rp4bc's input), compiled, and script ("" for none) merged the way
// a developer editing the P4 source would. It is what the P4 flow must
// redo from scratch for every change.
func (d Dir) P4Full(opts backend.Options, script string) (*template.Config, error) {
	src, err := d.Read("base_l2l3.p4")
	if err != nil {
		return nil, err
	}
	hlir, err := p4.Parse("base_l2l3.p4", src)
	if err != nil {
		return nil, err
	}
	gen, _, err := frontend.Transform(hlir)
	if err != nil {
		return nil, err
	}
	prog, err := parser.Parse("generated.rp4", printer.Print(gen))
	if err != nil {
		return nil, err
	}
	w, err := backend.NewWorkspace(prog, opts)
	if err != nil {
		return nil, err
	}
	if script == "" {
		return w.Current().Config, nil
	}
	// The full flow has no script language; the script's snippets build
	// the same final design once its stage names are rp4fc's.
	s, err := d.Read(script)
	if err != nil {
		return nil, err
	}
	rep, err := w.ApplyScript(p4StageNames.Replace(s), d.Read)
	if err != nil {
		return nil, fmt.Errorf("%s on the P4 design: %w", script, err)
	}
	return rep.Config, nil
}

// p4StageNames maps the rP4-native stage names the shipped scripts use
// onto the <table>_stage names rp4fc generates.
var p4StageNames = strings.NewReplacer(
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

// Workspace compiles the repository's rP4 base design for the software
// switch, failing t on error.
func Workspace(t T) *backend.Workspace {
	t.Helper()
	return WorkspaceWith(t, Compiler())
}

// WorkspaceWith is Workspace under other compiler options.
func WorkspaceWith(t T, opts backend.Options) *backend.Workspace {
	t.Helper()
	w, err := Repo().Workspace(opts)
	return must(t, w, err)
}

// Update applies a shipped script to w, failing t on error.
func Update(t T, w *backend.Workspace, script string) *backend.UpdateReport {
	t.Helper()
	rep, err := Repo().Update(w, script)
	return must(t, rep, err)
}

// Config is the design the base reaches under a shipped script ("" for
// the base design itself), failing t on error.
func Config(t T, script string) *template.Config {
	t.Helper()
	cfg, err := Repo().Incremental(Compiler(), script)
	return must(t, cfg, err)
}

// P4Full is the P4 flow's compile of the base design under a shipped
// script ("" for none) for a PISA target, which maps one logical stage
// to one physical stage and so merges none, failing t on error.
func P4Full(t T, script string) *template.Config {
	t.Helper()
	opts := Compiler()
	opts.EnableMerge = false
	cfg, err := Repo().P4Full(opts, script)
	return must(t, cfg, err)
}

// Script returns a shipped file's text, failing t on error.
func Script(t T, name string) string {
	t.Helper()
	s, err := Repo().Read(name)
	return must(t, s, err)
}
