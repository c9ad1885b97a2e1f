package ipbm

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"time"

	"ipsa/internal/ctrlplane"
	"ipsa/internal/dataplane"
	"ipsa/internal/mem"
	"ipsa/internal/telemetry"
	"ipsa/internal/template"
	"ipsa/internal/tsp"
)

// commit.go is the one commit path of ApplyConfig, Edit and SetInt:
// planCommit makes every check and build that can fail, execute applies
// the plan as one epoch, and a refused or failed commit changes nothing.

// commitPlan is one commit, checked and built but not applied. Its table
// sets come from the running config, never from the memory manager.
type commitPlan struct {
	running *progVersion // an empty version before the first commit
	v       *progVersion // the version to publish; execute adds its view
	fresh   []*tsp.StageRuntime
	hash    string
	stats   ctrlplane.ApplyStats
	drops   []string       // tables the commit drops
	moves   map[string]int // tables that change TSP, to their new one
	at, was map[string]int // each table's TSP under cfg, and under the running config
	creates []*mem.Table   // new tables, in name order
	regs    []template.Register
}

// planCommit checks cfg under the INT flag intOn against the running
// version (nil before the first commit) and builds the TSP diff, the
// table sets and their blocks, the register additions, the stage
// runtimes (sharing running's where the structural hash matches and no
// table of the stage changes) and the INT stamping context and sink,
// which the version's design carries. It changes nothing.
func (s *Switch) planCommit(running *progVersion, cfg *template.Config, intOn bool) (*commitPlan, error) {
	// A stage on a TSP the device lacks would never run, an ingress stage
	// at or after an egress stage's TSP leaves the TM no place in the
	// chain, and a patch manifest naming a TSP the device lacks or a table
	// the design lacks was not compiled for this design.
	n := s.pl.NumTSPs()
	for sn, idx := range cfg.TSPAssignment {
		if cfg.Stages[sn] == nil {
			return nil, fmt.Errorf("ipbm: TSP %d assigned to unknown stage %q", idx, sn)
		}
		if idx < 0 || idx >= n {
			return nil, fmt.Errorf("ipbm: stage %q assigned to TSP %d outside [0,%d)", sn, idx, n)
		}
	}
	byTSP := stagesByTSP(cfg, n)
	tmIn, tmOut, in, eg := tmSplit(cfg, byTSP)
	if tmIn >= tmOut {
		return nil, fmt.Errorf("ipbm: ingress stage %q on TSP %d is not before egress stage %q on TSP %d",
			in, tmIn, eg, tmOut)
	}
	if cfg.Patch != nil {
		for _, idx := range cfg.Patch.RewrittenTSPs {
			if idx < 0 || idx >= n {
				return nil, fmt.Errorf("ipbm: patch rewrites TSP %d outside [0,%d)", idx, n)
			}
		}
		for _, name := range cfg.Patch.NewTables {
			if _, ok := cfg.Tables[name]; !ok {
				return nil, fmt.Errorf("ipbm: patch creates unknown table %q", name)
			}
		}
	}
	full := running == nil
	if full {
		running = &progVersion{design: &dataplane.Design{Cfg: &template.Config{}}, byTSP: make([][]string, n), tmIn: -1, tmOut: n}
	}
	old := running.design.Cfg
	v := &progVersion{
		design: dataplane.NewDesign(cfg, s.regs),
		tmIn:   tmIn, tmOut: tmOut, byTSP: byTSP,
		sigs:  make(map[string]string, len(cfg.Stages)),
		built: make(map[string]*tsp.StageRuntime, len(cfg.Stages)),
		regs:  make(map[string]template.Register, len(running.regs)+len(cfg.Registers)),
	}
	p := &commitPlan{running: running, v: v, hash: configHash(cfg), moves: map[string]int{},
		at: tableTSPs(cfg), was: tableTSPs(old), stats: ctrlplane.ApplyStats{Full: full, Hitless: true,
			SelectorMoved: tmIn != running.tmIn || tmOut != running.tmOut}}
	for sn := range cfg.Stages {
		v.sigs[sn] = stageSignature(cfg, sn, intOn)
	}

	// TSPsWritten (Table 1's update cost) comes from the device's own
	// diff, never from the manifest: that describes the compiler
	// workspace's last transition, not the device's.
	for i := range byTSP {
		if !slices.EqualFunc(running.byTSP[i], byTSP[i], func(was, now string) bool { return running.sigs[was] == v.sigs[now] }) {
			p.stats.TSPsWritten++
		}
	}

	// A stage whose table is created, dropped or moved is recompiled: a
	// handle bound in a previous epoch must never alias a new table. A
	// table redefined under its old name is dropped and created afresh,
	// without its entries.
	changed := make(map[string]bool)
	adds := make(map[*mem.Table]int)
	for _, name := range sortedKeys(old.Tables) {
		if now, stays := cfg.Tables[name]; !stays || !sameEngine(old.Tables[name], now) {
			p.drops = append(p.drops, name)
			changed[name] = true
		}
	}
	for _, name := range sortedKeys(cfg.Tables) {
		if _, ok := old.Tables[name]; !ok || changed[name] {
			t, err := mem.NewTable(cfg.Tables[name])
			if err != nil {
				return nil, err
			}
			p.creates = append(p.creates, t)
			adds[t] = p.at[name]
		} else if p.at[name] != p.was[name] {
			p.moves[name] = p.at[name]
		} else {
			continue
		}
		changed[name] = true
	}
	if err := s.mm.Fits(p.drops, p.moves, adds); err != nil {
		return nil, err
	}
	p.stats.TablesCreated, p.stats.TablesDropped = len(p.creates), len(p.drops)

	// Registers are additive and keep their contents and shape.
	maps.Copy(v.regs, running.regs)
	for _, r := range cfg.Registers {
		if was, ok := v.regs[r.Name]; ok {
			if was != r {
				return nil, fmt.Errorf("ipbm: register %q resized by update", r.Name)
			}
			continue
		}
		v.regs[r.Name] = r
		p.regs = append(p.regs, r)
	}

	for _, sn := range sortedKeys(cfg.Stages) {
		if sr := running.built[sn]; sr != nil && running.sigs[sn] == v.sigs[sn] &&
			!slices.ContainsFunc(cfg.Stages[sn].Tables, func(tn string) bool { return changed[tn] }) {
			v.built[sn] = sr
			p.stats.StagesReused++
			continue
		}
		sr, err := tsp.NewStageRuntime(cfg, sn, tsp.BuildOpts{Mode: s.opts.Exec, Int: intOn})
		if err != nil {
			return nil, err
		}
		v.built[sn] = sr
		p.fresh = append(p.fresh, sr)
		p.stats.StagesRecompiled++
	}
	for i, names := range byTSP {
		if len(names) == 0 {
			continue
		}
		sl := epochSlot{index: i, lat: s.tel.tspLat[i]}
		for _, sn := range names {
			sl.stages = append(sl.stages, v.built[sn])
		}
		switch {
		case i <= tmIn:
			v.ingress = append(v.ingress, sl)
		case i >= tmOut:
			v.egress = append(v.egress, sl)
		}
	}
	if intOn {
		v.sink = newIntSink(cfg, s.tel.Reg, ringDepth)
		v.design.Int = s.intStampCtx()
	}
	return p, nil
}

// execute applies a plan, the only part of a commit that changes the
// device. Each step records its inverse; when a step fails, they run in
// reverse. Register additions have no inverse (the register file only
// grows), so they are made with the publish, after the last fallible step.
func (s *Switch) execute(p *commitPlan) (err error) {
	var undo []func() error
	step := 0
	do := func(f func() (inverse func() error, err error)) {
		if step++; err != nil {
			return
		} else if step == s.failStep {
			err = fmt.Errorf("ipbm: commit step %d failed (injected)", step)
			return
		}
		inv, ferr := f()
		if err = ferr; err == nil && inv != nil {
			undo = append(undo, inv)
		}
	}
	for _, name := range p.drops {
		t := p.running.view[name]
		do(func() (func() error, error) {
			return func() error { return s.mm.Adopt(t, p.was[name]) }, s.mm.DropTable(name)
		})
	}
	for _, name := range sortedKeys(p.moves) {
		do(func() (func() error, error) {
			moved, err := s.mm.Migrate(name, p.moves[name])
			p.stats.EntriesMigrated += moved
			return func() error { _, err := s.mm.Migrate(name, p.was[name]); return err }, err
		})
	}
	for _, t := range p.creates {
		do(func() (func() error, error) {
			return func() error { return s.mm.DropTable(t.Name) }, s.mm.Adopt(t, p.at[t.Name])
		})
	}
	cfg := p.v.design.Cfg
	do(func() (func() error, error) {
		p.v.view = make(tableView, len(cfg.Tables))
		for name := range cfg.Tables {
			p.v.view[name], _ = s.mm.Table(name)
		}
		return nil, nil
	})
	do(func() (func() error, error) {
		for _, sr := range p.fresh {
			sr.Bind(p.v.view)
		}
		return nil, nil
	})
	do(func() (func() error, error) {
		_ = s.regs.Update(p.regs) // new names only: it cannot fail
		p.stats.Epoch = s.epochs.publish(p.v)
		return nil, nil
	})
	for i := len(undo) - 1; err != nil && i >= 0; i-- {
		if uerr := undo[i](); uerr != nil {
			err = errors.Join(err, uerr)
		}
	}
	return err
}

// commit plans cfg under the INT flag intOn, executes the plan and
// records it as one audit event of kind with detail. Called with s.mu
// held; start is when the caller took the request.
func (s *Switch) commit(cfg *template.Config, intOn bool, start time.Time, kind, detail string) (*ctrlplane.ApplyStats, error) {
	running := s.epochs.current()
	p, err := s.planCommit(running, cfg, intOn)
	if err != nil {
		return nil, err
	}
	inFlight, verdictsBefore := s.tmDepthSum(), s.tel.VerdictSnapshot()
	if err := s.execute(p); err != nil {
		return nil, err
	}
	s.intOn = intOn
	if running != nil { // the health monitor watches its retirement
		s.health.BeginOpWatch(kind, p.hash, running.quiesced)
	}
	stats := p.stats // a copy: the caller's stats must not keep the plan alive
	stats.LoadNanos = int64(time.Since(start))
	switch kind {
	case "apply_full":
		s.tel.appliesFull.Inc()
	case "apply_diff", "edit_commit":
		s.tel.appliesDiff.Inc()
	}
	s.tel.tspsWritten.Add(uint64(stats.TSPsWritten))
	s.tel.migrated.Add(uint64(stats.EntriesMigrated))
	s.tel.Events.Append(telemetry.Event{
		Kind:             kind,
		ConfigHash:       p.hash,
		Detail:           detail,
		TSPsWritten:      stats.TSPsWritten,
		TablesCreated:    stats.TablesCreated,
		TablesDropped:    stats.TablesDropped,
		Hitless:          true,
		Epoch:            stats.Epoch,
		StagesRecompiled: stats.StagesRecompiled,
		StagesReused:     stats.StagesReused,
		InFlight:         inFlight,
		VerdictDeltas:    s.tel.verdictDeltas(verdictsBefore),
	})
	s.log.Debug("configuration committed", "kind", kind, "config_hash", p.hash, "in_flight", inFlight, "stats", &stats)
	return &stats, nil
}

// sameEngine reports whether table b of a commit builds the engine that
// the running table a has, over as many blocks: the same kind, widths,
// size and selector flag. Only then does the commit keep a's blocks and
// entries; where keys sit in the packet is the stages' business.
func sameEngine(a, b *template.Table) bool {
	return a.Kind == b.Kind && a.KeyWidth == b.KeyWidth && a.MatchWidth() == b.MatchWidth() &&
		a.Size == b.Size && a.IsSelector == b.IsSelector
}

// tableTSPs maps each table of cfg to the lowest TSP of a stage that
// applies it: the TSP whose crossbar reaches its blocks (0 for none).
func tableTSPs(cfg *template.Config) map[string]int {
	at := make(map[string]int, len(cfg.Tables))
	for sn, st := range cfg.Stages {
		for _, tn := range st.Tables {
			if idx, ok := at[tn]; !ok || cfg.TSPAssignment[sn] < idx {
				at[tn] = cfg.TSPAssignment[sn]
			}
		}
	}
	return at
}
