// Package core is the in-situ programming engine, the paper's headline
// capability: loading and offloading on-demand protocols and functions on
// a running switch with near-zero service impact. It ties the compiler
// workspace (rp4bc), the design flows (rP4-native and P4-via-rp4fc) and a
// target device together, measures the compile/load split of every update
// (the t_C / t_L of Table 1), and keeps a configuration history for the
// "reliable failback" the paper's live-trial use case needs.
package core

import (
	"fmt"
	"time"

	"ipsa/internal/compiler/backend"
	"ipsa/internal/compiler/frontend"
	"ipsa/internal/ctrlplane"
	"ipsa/internal/p4"
	"ipsa/internal/rp4/parser"
	"ipsa/internal/template"
)

// Target is the device side of the control channel; satisfied by
// *ipbm.Switch in process and by *ctrlplane.Client over TCP.
type Target interface {
	ApplyConfig(cfg *template.Config) (*ctrlplane.ApplyStats, error)
	InsertEntry(req ctrlplane.EntryReq) (int, error)
}

// InsituReport is the outcome of one runtime update.
type InsituReport struct {
	Compiler *backend.UpdateReport
	Device   *ctrlplane.ApplyStats
	// CompileTime is t_C (rp4bc incremental compile); LoadTime is t_L
	// (device patch), the two columns of Table 1.
	CompileTime time.Duration
	LoadTime    time.Duration
}

// Controller drives one device.
type Controller struct {
	ws     *backend.Workspace
	target Target
	opts   backend.Options

	// api is present when the base design came through rp4fc.
	api *frontend.APISpec

	// history holds previously applied configurations, newest last.
	history []*template.Config
}

// NewController compiles an rP4 base design and installs it.
func NewController(name, rp4src string, opts backend.Options, target Target) (*Controller, error) {
	prog, err := parser.Parse(name, rp4src)
	if err != nil {
		return nil, err
	}
	ws, err := backend.NewWorkspace(prog, opts)
	if err != nil {
		return nil, err
	}
	c := &Controller{ws: ws, target: target, opts: opts}
	if err := c.install(ws.Current().Config); err != nil {
		return nil, err
	}
	return c, nil
}

// NewControllerFromP4 runs the paper's preferred base-design flow: P4
// source through rp4fc into rP4, then rp4bc, then installation. The
// generated table APIs are kept for the control plane.
func NewControllerFromP4(name, p4src string, opts backend.Options, target Target) (*Controller, error) {
	hlir, err := p4.Parse(name, p4src)
	if err != nil {
		return nil, err
	}
	prog, api, err := frontend.Transform(hlir)
	if err != nil {
		return nil, err
	}
	ws, err := backend.NewWorkspace(prog, opts)
	if err != nil {
		return nil, err
	}
	c := &Controller{ws: ws, target: target, opts: opts, api: api}
	if err := c.install(ws.Current().Config); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *Controller) install(cfg *template.Config) error {
	if _, err := c.target.ApplyConfig(cfg); err != nil {
		return fmt.Errorf("core: installing configuration: %w", err)
	}
	c.history = append(c.history, cfg)
	return nil
}

// Workspace exposes the compiler workspace (for inspection and the
// rendered updated base design).
func (c *Controller) Workspace() *backend.Workspace { return c.ws }

// API returns the rp4fc-generated table API spec, nil for rP4-native
// designs.
func (c *Controller) API() *frontend.APISpec { return c.api }

// CurrentConfig returns the installed configuration.
func (c *Controller) CurrentConfig() *template.Config {
	if len(c.history) == 0 {
		return nil
	}
	return c.history[len(c.history)-1]
}

// ApplyUpdate executes an in-situ update script (load/unload/add_link/...)
// against the running device, timing the compile and load halves.
func (c *Controller) ApplyUpdate(script string, loader backend.Loader) (*InsituReport, error) {
	t0 := time.Now()
	rep, err := c.ws.ApplyScript(script, loader)
	if err != nil {
		return nil, fmt.Errorf("core: incremental compile: %w", err)
	}
	compileTime := time.Since(t0)
	t1 := time.Now()
	dev, err := c.target.ApplyConfig(rep.Config)
	if err != nil {
		return nil, fmt.Errorf("core: device patch: %w", err)
	}
	loadTime := time.Since(t1)
	c.history = append(c.history, rep.Config)
	return &InsituReport{
		Compiler:    rep,
		Device:      dev,
		CompileTime: compileTime,
		LoadTime:    loadTime,
	}, nil
}

// Rollback reverts the device to the previous configuration — the
// "reliable failback procedure" for live trials. The compiler workspace
// is not rewound (source history is the operator's concern); only the
// device configuration flips back. The next ApplyUpdate still works: the
// device diffs against what it runs, not against the workspace's patch
// manifest.
func (c *Controller) Rollback() (*ctrlplane.ApplyStats, error) {
	if len(c.history) < 2 {
		return nil, fmt.Errorf("core: nothing to roll back to")
	}
	st, err := c.target.ApplyConfig(c.history[len(c.history)-2])
	if err != nil {
		return nil, err
	}
	c.history = c.history[:len(c.history)-1]
	return st, nil
}

// Generations reports how many configurations have been applied.
func (c *Controller) Generations() int { return len(c.history) }

// InsertEntry forwards a table write to the device; on a selector table
// it adds a member to a group.
func (c *Controller) InsertEntry(req ctrlplane.EntryReq) (int, error) {
	return c.target.InsertEntry(req)
}

// InsertByAction resolves an action name to its executor tag via the
// rp4fc-generated API spec and installs the entry; it is the "generated
// API" path the paper describes.
func (c *Controller) InsertByAction(table, action string, keys []ctrlplane.FieldValue, params []uint64) (int, error) {
	if c.api == nil {
		return 0, fmt.Errorf("core: no API spec; base design was not compiled from P4")
	}
	for _, t := range c.api.Tables {
		if t.Name != table {
			continue
		}
		for _, a := range t.Actions {
			if a.Name == action {
				if len(params) != len(a.Params) {
					return 0, fmt.Errorf("core: action %q takes %d parameters, got %d", action, len(a.Params), len(params))
				}
				return c.target.InsertEntry(ctrlplane.EntryReq{
					Table: table, Keys: keys, Tag: a.Tag, Params: params,
				})
			}
		}
		return 0, fmt.Errorf("core: table %q has no action %q", table, action)
	}
	return 0, fmt.Errorf("core: unknown table %q", table)
}
