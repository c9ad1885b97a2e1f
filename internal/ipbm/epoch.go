package ipbm

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ipsa/internal/ctrlplane"
	"ipsa/internal/dataplane"
	"ipsa/internal/mem"
	"ipsa/internal/pipeline"
	"ipsa/internal/pkt"
	"ipsa/internal/telemetry"
	"ipsa/internal/template"
	"ipsa/internal/tsp"
)

// This file implements the epoch-versioned program store, the switch's
// one reconfiguration mechanism. Every reconfiguration
// (apply, patch, INT toggle, edit commit) assembles an immutable
// progVersion — the compiled stage programs, bound to the table handles
// of one snapshot, and the INT sink that belong together — and publishes
// it with one atomic pointer store. Packets pin the version they entered under
// and execute it to completion, so an old and a new program briefly
// coexist and no packet ever waits for a writer. A superseded version is
// retired and reclaimed once its in-flight count drains to zero.
//
// Table *contents* are intentionally not versioned: entry inserts and
// deletes, selector members included, mutate the shared engines in place
// (control-plane writes are visible mid-flight). What the
// version freezes is the program and the handles its stages were bound
// to, so a stage compiled against epoch N can never observe a table
// dropped in N+1.

// epochSlot is one physical TSP's program under a version: the TSP
// object (kept for latency-histogram attribution) plus the stage
// runtimes it executes under this version.
type epochSlot struct {
	t      *tsp.TSP
	stages []*tsp.StageRuntime
}

// progVersion is one immutable epoch of the program store.
type progVersion struct {
	epoch  uint64
	design *dataplane.Design

	// ingress/egress are the pre-split active slots: the selector's
	// TM split is baked in at publish time so a pinned packet also sees
	// a consistent pipeline shape.
	ingress []epochSlot
	egress  []epochSlot

	// sink is the INT sink active when the version was published (nil
	// when INT is off in this version).
	sink *intSink

	// sigs/built are the structural-hash build cache: stage name →
	// canonical signature and compiled runtime. The next epoch reuses a
	// runtime when the signature matches and none of the stage's tables
	// were created, dropped or migrated — a one-table patch recompiles
	// one stage, not the pipeline.
	sigs  map[string]string
	built map[string]*tsp.StageRuntime

	// inFlight counts packets (or sharded batches' packets) currently
	// pinned to this version; a retired version is reclaimed when it
	// reaches zero.
	inFlight atomic.Int64
}

// unpin releases one pinned packet.
func (v *progVersion) unpin() { v.inFlight.Add(-1) }

// quiesced reports whether no packet executes this version anymore.
func (v *progVersion) quiesced() bool { return v.inFlight.Load() == 0 }

// runIngressBatch executes the version's ingress slots over a whole
// batch, stage-major (every live packet passes through one TSP's stages
// before any packet advances to the next TSP). Dropped packets stay in
// their slots with Drop set — later stages skip them — and are counted
// here once the sweep finishes. Callers pass only fresh, live packets;
// nil slots are skipped.
func (v *progVersion) runIngressBatch(pl *pipeline.Pipeline, ps []*pkt.Packet, env *tsp.Env) {
	for i := range v.ingress {
		sl := &v.ingress[i]
		sl.t.ProcessBatchWith(sl.stages, ps, v.design.Parser, env)
	}
	for _, p := range ps {
		if p != nil && p.Drop {
			pl.CountDropped(int(env.Lane))
		}
	}
}

// runEgressBatch is the egress half of the batch traversal. Callers pass
// only packets that survived ingress and TM admission (nil slots are
// skipped); each survivor counts as processed, each egress drop as
// dropped.
func (v *progVersion) runEgressBatch(pl *pipeline.Pipeline, ps []*pkt.Packet, env *tsp.Env) {
	for i := range v.egress {
		sl := &v.egress[i]
		sl.t.ProcessBatchWith(sl.stages, ps, v.design.Parser, env)
	}
	for _, p := range ps {
		if p == nil {
			continue
		}
		if p.Drop {
			pl.CountDropped(int(env.Lane))
		} else {
			pl.CountProcessed(int(env.Lane))
		}
	}
}

// epochStore is the versioned program store: the current version behind
// one atomic pointer plus the retired list awaiting quiescence. cur is
// nil only until the first configuration is applied.
type epochStore struct {
	cur atomic.Pointer[progVersion]

	mu        sync.Mutex
	retired   []*progVersion
	epoch     uint64
	reclaimed atomic.Uint64
}

// pin returns the current version with one in-flight reference taken, or
// nil when no configuration has been installed yet.
// The load→add window is benign: a concurrently retired version stays
// valid Go memory, executes correctly, and is reclaimed on a later reap
// once this pin unwinds.
func (st *epochStore) pin() *progVersion {
	v := st.cur.Load()
	if v != nil {
		v.inFlight.Add(1)
	}
	return v
}

// current peeks at the published version without pinning (control path).
func (st *epochStore) current() *progVersion { return st.cur.Load() }

// publish makes v the current version, retires its predecessor and reaps
// any quiesced retirees. Returns the new epoch number.
func (st *epochStore) publish(v *progVersion) uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.epoch++
	v.epoch = st.epoch
	if old := st.cur.Swap(v); old != nil {
		st.retired = append(st.retired, old)
	}
	st.reapLocked()
	return v.epoch
}

// reap frees retired versions whose in-flight count drained to zero.
func (st *epochStore) reap() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.reapLocked()
}

func (st *epochStore) reapLocked() {
	kept := st.retired[:0]
	for _, v := range st.retired {
		if v.quiesced() {
			st.reclaimed.Add(1)
			continue
		}
		kept = append(kept, v)
	}
	for i := len(kept); i < len(st.retired); i++ {
		st.retired[i] = nil // release for GC
	}
	st.retired = kept
}

// stats snapshots the store after a reap pass.
func (st *epochStore) stats() (epoch uint64, retired int, reclaimed uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.reapLocked()
	return st.epoch, len(st.retired), st.reclaimed.Load()
}

// EpochStats reports the program store's epoch counter, the retired
// versions still awaiting quiescent packets, and the total reclaimed.
func (s *Switch) EpochStats() (epoch uint64, retired int, reclaimed uint64) {
	return s.epochs.stats()
}

// stageSignature canonically describes one stage's compiled content: the
// stage template, the actions its arms reference and the tables it
// applies, plus the INT flag (the stamping epilogue is compiled in).
// Equal signatures across configs mean the compiled runtime is
// bit-identical and can be shared across epochs.
func stageSignature(cfg *template.Config, sn string, intOn bool) string {
	st := cfg.Stages[sn]
	sub := template.Config{
		Stages:  map[string]*template.Stage{sn: st},
		Actions: map[string]*template.Action{},
		Tables:  map[string]*template.Table{},
	}
	for _, arm := range st.Arms {
		sub.Actions[arm.Action] = cfg.Actions[arm.Action]
	}
	for _, tn := range st.Tables {
		sub.Tables[tn] = cfg.Tables[tn]
	}
	// Compact marshal: signatures are compared, never stored or read, so
	// the indented on-disk form would only cost encoder time.
	b, _ := json.Marshal(&sub)
	if intOn {
		return string(b) + "\x01int"
	}
	return string(b)
}

// stageUsesTables reports whether stage sn applies any table in names.
func stageUsesTables(cfg *template.Config, sn string, names map[string]bool) bool {
	if len(names) == 0 {
		return false
	}
	for _, tn := range cfg.Stages[sn].Tables {
		if names[tn] {
			return true
		}
	}
	return false
}

// applyHitless installs or patches an already-validated configuration:
// it reconciles registers and tables with what is installed, compiles
// only the stages whose structural hash changed, and publishes the result
// as a new program version — without ever excluding packet readers.
// Called with s.mu held, by ApplyConfig (ops 0) and by Edit, which
// passes its script's length so the publish is one edit_commit event.
func (s *Switch) applyHitless(cfg *template.Config, start time.Time, ops int) (*ctrlplane.ApplyStats, error) {
	var old *template.Config
	if d := s.dp.Design(); d != nil {
		old = d.Cfg
	}
	stats := &ctrlplane.ApplyStats{Full: old == nil, Hitless: true}
	kind := "apply_full"
	patchDirected := old != nil && cfg.Patch != nil && s.opts.Crossbar == mem.FullCrossbar
	if old != nil {
		kind = "apply_diff"
		if patchDirected {
			kind = "apply_patch"
		}
	}
	detail := ""
	if ops > 0 {
		kind, detail = "edit_commit", fmt.Sprintf("%d ops", ops)
	}
	// A patch manifest is a contract, and a stage on a TSP the device
	// lacks would never run; reject either before touching any state so
	// the device keeps forwarding on the old program.
	for sn, idx := range cfg.TSPAssignment {
		if idx < 0 || idx >= s.pl.NumTSPs() {
			return nil, fmt.Errorf("ipbm: stage %q assigned to TSP %d outside [0,%d)", sn, idx, s.pl.NumTSPs())
		}
	}
	if patchDirected {
		for _, idx := range cfg.Patch.RewrittenTSPs {
			if idx < 0 || idx >= s.pl.NumTSPs() {
				return nil, fmt.Errorf("ipbm: patch rewrites TSP %d outside [0,%d)", idx, s.pl.NumTSPs())
			}
		}
		for _, name := range cfg.Patch.NewTables {
			if _, ok := cfg.Tables[name]; !ok {
				return nil, fmt.Errorf("ipbm: patch creates unknown table %q", name)
			}
		}
	}
	hash := configHash(cfg)
	inFlight := s.tmDepthSum()
	verdictsBefore := s.tel.verdictSnapshot()

	// 1. Registers: additive, contents preserved.
	if err := s.regs.Update(cfg.Registers); err != nil {
		return nil, err
	}

	// 2. Tables: create new, drop removed, migrate moved. Any table whose
	// storage identity changed this apply poisons stage reuse below — a
	// resolved handle bound in a previous epoch must never alias a
	// recreated table.
	changed := make(map[string]bool)
	tspOfTable := func(c *template.Config, name string) int {
		for sn, st := range c.Stages {
			for _, tn := range st.Tables {
				if tn == name {
					return c.TSPAssignment[sn]
				}
			}
		}
		return 0
	}
	for name, t := range cfg.Tables {
		if _, ok := s.mm.Table(name); ok {
			if old != nil {
				oldTSP, newTSP := tspOfTable(old, name), tspOfTable(cfg, name)
				if oldTSP != newTSP {
					moved, err := s.mm.Migrate(name, newTSP)
					if err != nil {
						return nil, err
					}
					stats.EntriesMigrated += moved
					changed[name] = true
				}
			}
			continue
		}
		if _, err := s.mm.CreateTable(t, tspOfTable(cfg, name)); err != nil {
			return nil, err
		}
		stats.TablesCreated++
		changed[name] = true
	}
	if old != nil {
		for name := range old.Tables {
			if _, stays := cfg.Tables[name]; !stays {
				if err := s.mm.DropTable(name); err != nil {
					return nil, err
				}
				stats.TablesDropped++
				changed[name] = true
			}
		}
	}

	// 3. TSPsWritten is how many TSP programs the new configuration
	// changes, the quantity the Table 1 update-cost comparison and the
	// patch manifest check are stated in.
	if patchDirected {
		stats.TSPsWritten = len(cfg.Patch.RewrittenTSPs)
	} else {
		for i := 0; i < s.pl.NumTSPs(); i++ {
			oldSig := ""
			if old != nil {
				oldSig = tspSignature(old, i)
			}
			if tspSignature(cfg, i) != oldSig {
				stats.TSPsWritten++
			}
		}
	}

	// 4. Publish the refreshed handle view, the design snapshot and (when
	// enabled) the INT state. New packets pick these up; packets pinned to
	// an older version keep executing against its frozen view.
	s.rebuildLookups()
	s.dp.Install(cfg, s.regs)
	if s.intOn {
		s.publishIntState(cfg)
	}

	// 5. Compile (with cross-epoch reuse) and publish the new version.
	pub, err := s.publishProgram(cfg, changed, kind, hash)
	if err != nil {
		return nil, err
	}
	stats.StagesRecompiled, stats.StagesReused = pub.recompiled, pub.reused
	stats.SelectorMoved = pub.selectorMoved
	stats.Epoch = pub.epoch

	stats.LoadNanos = int64(time.Since(start))
	switch kind {
	case "apply_full":
		s.tel.appliesFull.Inc()
	case "apply_patch":
		s.tel.appliesPatch.Inc()
	default:
		s.tel.appliesDiff.Inc()
	}
	s.tel.tspsWritten.Add(uint64(stats.TSPsWritten))
	s.tel.migrated.Add(uint64(stats.EntriesMigrated))
	s.tel.Events.Append(telemetry.Event{
		Kind:             kind,
		ConfigHash:       hash,
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
	s.log.Debug("configuration applied hitless",
		"kind", kind, "config_hash", hash, "epoch", stats.Epoch,
		"tsps_written", stats.TSPsWritten,
		"stages_recompiled", stats.StagesRecompiled,
		"stages_reused", stats.StagesReused,
		"tables_created", stats.TablesCreated,
		"tables_dropped", stats.TablesDropped,
		"entries_migrated", stats.EntriesMigrated,
		"in_flight", inFlight)
	return stats, nil
}

// publishResult summarizes one publishProgram call.
type publishResult struct {
	epoch              uint64
	recompiled, reused int
	selectorMoved      bool
	// tspsLoaded counts physical TSPs that received a program under the
	// new version (SetInt reports it as its rewrite count).
	tspsLoaded int
}

// publishProgram compiles cfg's stages — reusing the current version's
// runtimes where the structural hash matches and no table in changed was
// touched — refreshes the pipeline's bookkeeping, assembles the new
// progVersion and publishes it. The caller must already have published
// the design snapshot, lookup view and INT state this version should
// capture, and must hold s.mu; every stage it compiles binds its tables
// against that lookup view. kind/hash feed the health monitor's
// retirement watch for the superseded version.
func (s *Switch) publishProgram(cfg *template.Config, changed map[string]bool, kind, hash string) (publishResult, error) {
	var pub publishResult
	prev := s.epochs.current()
	view := s.lookups.Load()

	sigs := make(map[string]string, len(cfg.Stages))
	built := make(map[string]*tsp.StageRuntime, len(cfg.Stages))
	names := make([]string, 0, len(cfg.Stages))
	for sn := range cfg.Stages {
		names = append(names, sn)
	}
	sort.Strings(names)
	for _, sn := range names {
		sig := stageSignature(cfg, sn, s.intOn)
		sigs[sn] = sig
		if prev != nil && prev.sigs[sn] == sig && prev.built[sn] != nil &&
			!stageUsesTables(cfg, sn, changed) {
			built[sn] = prev.built[sn]
			pub.reused++
			continue
		}
		sr, err := tsp.NewStageRuntime(cfg, sn, tsp.BuildOpts{Mode: s.opts.Exec, Int: s.intOn})
		if err != nil {
			return pub, err
		}
		sr.Bind(view)
		built[sn] = sr
		pub.recompiled++
	}

	// Refresh the pipeline's TSP bookkeeping and selector. Packets execute
	// the version they pinned, never the TSPs' loaded stages, so Commit is
	// metadata maintenance (scrape-time stats, ActiveTSPs) that no packet
	// waits for.
	n := s.pl.NumTSPs()
	perTSP := make([][]*tsp.StageRuntime, n)
	tmIn, tmOut := -1, n
	for i := 0; i < n; i++ {
		for _, sn := range orderedStagesOf(cfg, i) {
			perTSP[i] = append(perTSP[i], built[sn])
			switch cfg.Stages[sn].Pipe {
			case "ingress":
				if i > tmIn {
					tmIn = i
				}
			case "egress":
				if i < tmOut {
					tmOut = i
				}
			}
		}
	}
	err := s.pl.Commit(func(sel *pipeline.Selector, tsps []*tsp.TSP) error {
		for i := range tsps {
			if len(perTSP[i]) == 0 {
				if tsps[i].Active() {
					tsps[i].Unload()
				}
			} else {
				tsps[i].Load(perTSP[i])
				pub.tspsLoaded++
			}
		}
		if sel.TMIn != tmIn || sel.TMOut != tmOut {
			pub.selectorMoved = true
		}
		sel.TMIn, sel.TMOut = tmIn, tmOut
		return nil
	})
	if err != nil {
		return pub, err
	}

	// Assemble and publish the version; its predecessor is retired and
	// reclaimed once its last pinned packet finishes. The health monitor
	// watches that retirement against the reconfiguration deadline.
	v := &progVersion{
		design: s.dp.Design(),
		sink:   s.intSinkP.Load(),
		sigs:   sigs,
		built:  built,
	}
	for i := 0; i <= tmIn; i++ {
		if len(perTSP[i]) > 0 {
			t, _ := s.pl.TSP(i)
			v.ingress = append(v.ingress, epochSlot{t: t, stages: perTSP[i]})
		}
	}
	for i := tmOut; i < n; i++ {
		if len(perTSP[i]) > 0 {
			t, _ := s.pl.TSP(i)
			v.egress = append(v.egress, epochSlot{t: t, stages: perTSP[i]})
		}
	}
	pub.epoch = s.epochs.publish(v)
	if prev != nil {
		s.health.BeginOpWatch(kind, hash, prev.quiesced)
	}
	return pub, nil
}
