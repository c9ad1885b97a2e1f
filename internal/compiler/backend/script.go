package backend

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"ipsa/internal/compiler/layout"
	"ipsa/internal/rp4/ast"
	"ipsa/internal/rp4/parser"
	"ipsa/internal/rp4/printer"
	"ipsa/internal/rp4/sem"
	"ipsa/internal/template"
)

// Workspace holds a compiled base design and applies in-situ update
// scripts to it, producing the two outputs the paper describes: the updated
// base design and the new TSP templates plus switch configuration.
type Workspace struct {
	prog *ast.Program
	opts Options
	cur  *Compiled
}

// NewWorkspace compiles the base design and returns a workspace for
// incremental updates.
func NewWorkspace(prog *ast.Program, opts Options) (*Workspace, error) {
	c, err := Compile(prog, opts)
	if err != nil {
		return nil, err
	}
	return &Workspace{prog: prog, opts: opts, cur: c}, nil
}

// Current returns the current compiled state.
func (w *Workspace) Current() *Compiled { return w.cur }

// Program returns the current (merged, updated) base design AST.
func (w *Workspace) Program() *ast.Program { return w.prog }

// RenderProgram renders the updated base design back to rP4 source.
func (w *Workspace) RenderProgram() string { return printer.Print(w.prog) }

// UpdateReport is the incremental-compile summary the controller uses to
// patch the device with minimal disturbance.
type UpdateReport struct {
	Config *template.Config

	AddedStages   []string
	RemovedStages []string
	NewTables     []string // only these need population (Table 1 note)
	RemovedTables []string
	// RewrittenTSPs lists physical TSPs whose template content changed and
	// must be re-downloaded.
	RewrittenTSPs []int
	// SelectorChanged reports whether the elastic pipeline's TM boundary
	// moved.
	SelectorChanged bool
	// HeaderLinksChanged reports whether implicit-parser transitions
	// changed (affects every TSP's parser submodule configuration table,
	// but is a small table write).
	HeaderLinksChanged bool
	Stats              Stats
}

// Loader resolves a `load` command's file name to rP4 source text.
type Loader func(name string) (string, error)

// ApplyScript parses and executes an update script (Fig. 5b/5c command
// language), recompiles incrementally, and reports what changed.
func (w *Workspace) ApplyScript(script string, load Loader) (*UpdateReport, error) {
	cmds, err := ParseScript(script)
	if err != nil {
		return nil, err
	}
	return w.ApplyCommands(cmds, load)
}

// Command is one parsed script command.
type Command struct {
	Op   string // load | unload | add_link | del_link | link_header | unlink_header | remove_stage
	Args []string
	// Flags holds --key value pairs.
	Flags map[string]string
	Line  int
}

// ParseScript tokenizes an update script: one command per line, `#`
// comments, `--flag value` options.
func ParseScript(script string) ([]Command, error) {
	var cmds []Command
	for i, line := range strings.Split(script, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		cmd := Command{Op: fields[0], Flags: map[string]string{}, Line: i + 1}
		rest := fields[1:]
		for j := 0; j < len(rest); j++ {
			if strings.HasPrefix(rest[j], "--") {
				if j+1 >= len(rest) {
					return nil, fmt.Errorf("script line %d: flag %s needs a value", i+1, rest[j])
				}
				cmd.Flags[strings.TrimPrefix(rest[j], "--")] = rest[j+1]
				j++
				continue
			}
			cmd.Args = append(cmd.Args, rest[j])
		}
		switch cmd.Op {
		case "load", "unload", "add_link", "del_link", "link_header", "unlink_header", "remove_stage":
		default:
			return nil, fmt.Errorf("script line %d: unknown command %q", i+1, cmd.Op)
		}
		cmds = append(cmds, cmd)
	}
	return cmds, nil
}

// ApplyCommands executes parsed commands and recompiles. The commands
// edit a copy of the base design; the workspace takes the copy and its
// compiled state together, only once the whole script has compiled, so a
// script that fails at any step leaves the workspace as it was.
func (w *Workspace) ApplyCommands(cmds []Command, load Loader) (*UpdateReport, error) {
	prog := w.prog.Clone()
	links := w.cur.Links.Clone()
	headerLinksChanged := false
	for _, c := range cmds {
		switch c.Op {
		case "load":
			if len(c.Args) != 1 {
				return nil, fmt.Errorf("script line %d: load takes one file", c.Line)
			}
			if load == nil {
				return nil, fmt.Errorf("script line %d: no loader provided for %q", c.Line, c.Args[0])
			}
			src, err := load(c.Args[0])
			if err != nil {
				return nil, fmt.Errorf("script line %d: %w", c.Line, err)
			}
			snip, err := parser.ParseSnippet(c.Args[0], src)
			if err != nil {
				return nil, err
			}
			if fn := c.Flags["func_name"]; fn != "" && (snip.Funcs == nil || !hasFunc(snip.Funcs, fn)) {
				return nil, fmt.Errorf("script line %d: %q does not define function %q", c.Line, c.Args[0], fn)
			}
			if err := MergeSnippet(prog, snip); err != nil {
				return nil, err
			}
			// New stages join the graph unlinked; add_link places them.
			for _, s := range snip.Floating {
				links.AddNode(s.Name)
			}
		case "unload":
			name := c.Flags["func_name"]
			if name == "" && len(c.Args) == 1 {
				name = c.Args[0]
			}
			if name == "" {
				return nil, fmt.Errorf("script line %d: unload needs a function name", c.Line)
			}
			stages, err := RemoveFunc(prog, name)
			if err != nil {
				return nil, err
			}
			for _, s := range stages {
				links.RemoveNode(s)
			}
		case "add_link":
			if len(c.Args) != 2 {
				return nil, fmt.Errorf("script line %d: add_link takes two stages", c.Line)
			}
			if st, _ := prog.Stage(c.Args[0]); st == nil {
				return nil, fmt.Errorf("script line %d: unknown stage %q", c.Line, c.Args[0])
			}
			if st, _ := prog.Stage(c.Args[1]); st == nil {
				return nil, fmt.Errorf("script line %d: unknown stage %q", c.Line, c.Args[1])
			}
			if err := links.AddEdge(c.Args[0], c.Args[1]); err != nil {
				return nil, fmt.Errorf("script line %d: %w", c.Line, err)
			}
		case "del_link":
			if len(c.Args) != 2 {
				return nil, fmt.Errorf("script line %d: del_link takes two stages", c.Line)
			}
			if err := links.DelEdge(c.Args[0], c.Args[1]); err != nil {
				return nil, fmt.Errorf("script line %d: %w", c.Line, err)
			}
		case "link_header":
			pre, next, tagS := c.Flags["pre"], c.Flags["next"], c.Flags["tag"]
			if pre == "" || next == "" || tagS == "" {
				return nil, fmt.Errorf("script line %d: link_header needs --pre --next --tag", c.Line)
			}
			tag, err := strconv.ParseUint(tagS, 0, 64)
			if err != nil {
				return nil, fmt.Errorf("script line %d: bad tag %q", c.Line, tagS)
			}
			if err := LinkHeader(prog, pre, tag, next); err != nil {
				return nil, err
			}
			headerLinksChanged = true
		case "unlink_header":
			pre, tagS := c.Flags["pre"], c.Flags["tag"]
			tag, err := strconv.ParseUint(tagS, 0, 64)
			if err != nil {
				return nil, fmt.Errorf("script line %d: bad tag %q", c.Line, tagS)
			}
			if err := UnlinkHeader(prog, pre, tag); err != nil {
				return nil, err
			}
			headerLinksChanged = true
		case "remove_stage":
			if len(c.Args) != 1 {
				return nil, fmt.Errorf("script line %d: remove_stage takes one stage", c.Line)
			}
			links.RemoveNode(c.Args[0])
			removeStage(prog, c.Args[0])
		}
	}
	// Orphaned stages (all links removed) are pruned — "the ECMP function
	// also covers and therefore replaces H". Entries stay.
	keep := map[string]bool{}
	if prog.Funcs != nil {
		if prog.Funcs.IngressEntry != "" {
			keep[prog.Funcs.IngressEntry] = true
		}
		if prog.Funcs.EgressEntry != "" {
			keep[prog.Funcs.EgressEntry] = true
		}
	}
	pruned := links.PruneOrphans(keep)
	for _, s := range pruned {
		removeStage(prog, s)
	}
	// Tables no stage applies any more leave the base design too, so a
	// later reload of the same function does not collide (actions,
	// structs and registers stay: identical redefinitions merge cleanly
	// and register contents must survive function cycling).
	sweepDeadTables(prog)

	return w.recompile(prog, links, headerLinksChanged)
}

// sweepDeadTables removes table definitions not applied by any stage.
func sweepDeadTables(p *ast.Program) {
	live := map[string]bool{}
	var scan func(body []ast.Stmt)
	scan = func(body []ast.Stmt) {
		for _, s := range body {
			switch st := s.(type) {
			case *ast.CallStmt:
				if st.Method == "apply" && st.Recv != "" {
					live[st.Recv] = true
				}
			case *ast.IfStmt:
				scan(st.Then)
				scan(st.Else)
			}
		}
	}
	each := func(stages []*ast.StageDef) {
		for _, s := range stages {
			scan(s.Matcher)
		}
	}
	if p.Ingress != nil {
		each(p.Ingress.Stages)
	}
	if p.Egress != nil {
		each(p.Egress.Stages)
	}
	each(p.Floating)
	tables := p.Tables[:0]
	for _, t := range p.Tables {
		if live[t.Name] {
			tables = append(tables, t)
		}
	}
	p.Tables = tables
}

func hasFunc(uf *ast.UserFuncs, name string) bool {
	for _, f := range uf.Funcs {
		if f.Name == name {
			return true
		}
	}
	return false
}

func (w *Workspace) recompile(prog *ast.Program, links *Graph, headerLinksChanged bool) (*UpdateReport, error) {
	d, err := sem.Analyze(prog)
	if err != nil {
		return nil, err
	}
	nc, err := compileWithLinks(d, links, w.opts, w.cur.Assignment)
	if err != nil {
		return nil, err
	}
	rep := &UpdateReport{Config: nc.Config, Stats: nc.Stats, HeaderLinksChanged: headerLinksChanged}
	old := w.cur
	rep.AddedStages = diffKeys(stageSet(nc.Config), stageSet(old.Config))
	rep.RemovedStages = diffKeys(stageSet(old.Config), stageSet(nc.Config))
	rep.NewTables = diffKeys(tableSet(nc.Config), tableSet(old.Config))
	rep.RemovedTables = diffKeys(tableSet(old.Config), tableSet(nc.Config))
	rep.RewrittenTSPs = rewrittenTSPs(old.Config, nc.Config)
	rep.SelectorChanged = selectorChanged(old, nc)
	// Attach the patch manifest so the device writes only what changed
	// instead of re-deriving the diff.
	nc.Config.Patch = &template.PatchSpec{
		RewrittenTSPs: rep.RewrittenTSPs,
		NewTables:     rep.NewTables,
		RemovedTables: rep.RemovedTables,
	}
	w.prog, w.cur = prog, nc
	return rep, nil
}

func stageSet(c *template.Config) map[string]bool {
	s := make(map[string]bool, len(c.Stages))
	for n := range c.Stages {
		s[n] = true
	}
	return s
}

func tableSet(c *template.Config) map[string]bool {
	s := make(map[string]bool, len(c.Tables))
	for n := range c.Tables {
		s[n] = true
	}
	return s
}

func diffKeys(a, b map[string]bool) []string {
	var out []string
	for k := range a {
		if !b[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// rewrittenTSPs compares the per-TSP template content of two configs.
func rewrittenTSPs(old, nw *template.Config) []int {
	content := func(c *template.Config) map[int]string {
		m := make(map[int][]string)
		for s, t := range c.TSPAssignment {
			m[t] = append(m[t], s)
		}
		out := make(map[int]string)
		for t, stages := range m {
			sort.Strings(stages)
			var parts []string
			for _, s := range stages {
				if st, ok := c.Stages[s]; ok {
					b, _ := stageJSON(st)
					parts = append(parts, s+"="+b)
				}
			}
			out[t] = strings.Join(parts, ";")
		}
		return out
	}
	oc, nc := content(old), content(nw)
	seen := map[int]bool{}
	var rewritten []int
	for t, body := range nc {
		seen[t] = true
		if oc[t] != body {
			rewritten = append(rewritten, t)
		}
	}
	// TSPs that lost all their stages must be unloaded: also a write.
	for t, body := range oc {
		if !seen[t] && body != "" {
			rewritten = append(rewritten, t)
		}
	}
	sort.Ints(rewritten)
	return rewritten
}

func stageJSON(s *template.Stage) (string, error) {
	cfg := template.Config{Stages: map[string]*template.Stage{s.Name: s}}
	b, err := cfg.Marshal()
	return string(b), err
}

func selectorChanged(old, nw *Compiled) bool {
	boundary := func(c *Compiled) [2]int {
		lastIng, firstEg := -1, c.Assignment.NumTSP
		for i, m := range c.Assignment.Modes {
			switch m {
			case layout.IngressActive:
				if i > lastIng {
					lastIng = i
				}
			case layout.EgressActive:
				if i < firstEg {
					firstEg = i
				}
			}
		}
		return [2]int{lastIng, firstEg}
	}
	return boundary(old) != boundary(nw)
}
