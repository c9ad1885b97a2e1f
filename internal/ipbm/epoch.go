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

// epochSlot is one physical TSP's program under a version: the TSP's
// index, the latency histogram its Timed packets observe, and the stage
// runtimes it executes.
type epochSlot struct {
	index  int
	lat    *telemetry.Histogram
	stages []*tsp.StageRuntime
}

// run executes the slot's stages over a whole batch, stage-major: every
// live packet passes through one stage before any packet advances to the
// next, so per-stage closures, key plans and match tables stay cache-hot
// across the batch. A packet dropped by stage k is skipped by stage k+1.
// Latency sampling is per batch: the whole stage sweep is timed once and
// the mean per live packet is observed for each Timed packet, since
// per-packet boundaries do not exist in stage-major order.
func (sl *epochSlot) run(ps []*pkt.Packet, parser *tsp.OnDemandParser, env *tsp.Env) {
	env.TSPIndex = sl.index
	timed, live := 0, 0
	if sl.lat != nil {
		for _, p := range ps {
			if p == nil || p.Drop {
				continue
			}
			live++
			if p.Timed {
				timed++
			}
		}
	}
	var t0 time.Time
	if timed > 0 {
		t0 = time.Now()
	}
	for _, s := range sl.stages {
		s.ExecuteBatch(ps, parser, env)
	}
	if timed > 0 {
		mean := int64(time.Since(t0)) / int64(live)
		for i := 0; i < timed; i++ {
			sl.lat.ObserveNanos(mean)
		}
	}
}

// progVersion is one immutable epoch of the program store, and the only
// record of what the switch runs: Config, Edit, the views and every
// packet read the published one.
type progVersion struct {
	epoch  uint64
	design *dataplane.Design

	// tmIn/tmOut are the elastic pipeline's split (the paper's selector):
	// packets run TSPs [0, tmIn], cross the TM, then run [tmOut, n).
	// ingress/egress are the active slots on either side of it.
	tmIn, tmOut int
	ingress     []epochSlot
	egress      []epochSlot
	// byTSP lists each TSP's stages in chain order (stagesByTSP): the
	// next apply diffs its own TSPs against it.
	byTSP [][]string

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

// activeTSPs counts the TSPs hosting stages; the rest idle in low-power
// state.
func (v *progVersion) activeTSPs() int { return len(v.ingress) + len(v.egress) }

// runIngressBatch executes the version's ingress slots over a whole
// batch, stage-major (every live packet passes through one TSP's stages
// before any packet advances to the next TSP). Dropped packets stay in
// their slots with Drop set and later stages skip them. Callers pass only
// fresh, live packets; nil slots are skipped.
func (v *progVersion) runIngressBatch(ps []*pkt.Packet, env *tsp.Env) {
	for i := range v.ingress {
		v.ingress[i].run(ps, v.design.Parser, env)
	}
}

// runEgressBatch is the egress half of the batch traversal. Callers pass
// only packets that survived ingress and TM admission (nil slots are
// skipped).
func (v *progVersion) runEgressBatch(ps []*pkt.Packet, env *tsp.Env) {
	for i := range v.egress {
		v.egress[i].run(ps, v.design.Parser, env)
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

// stageSignatures maps every stage of cfg to its stageSignature.
func stageSignatures(cfg *template.Config, intOn bool) map[string]string {
	sigs := make(map[string]string, len(cfg.Stages))
	for sn := range cfg.Stages {
		sigs[sn] = stageSignature(cfg, sn, intOn)
	}
	return sigs
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
	old := s.Config()
	stats := &ctrlplane.ApplyStats{Full: old == nil, Hitless: true}
	kind := "apply_full"
	if old != nil {
		kind = "apply_diff"
	}
	detail := ""
	if ops > 0 {
		kind, detail = "edit_commit", fmt.Sprintf("%d ops", ops)
	}
	// A stage on a TSP the device lacks would never run, an ingress stage
	// at or after an egress stage's TSP leaves the TM no place in the
	// chain, and a patch manifest naming a TSP the device lacks or a table
	// the design lacks was not compiled for this design; reject any of
	// them before touching any state so the device keeps forwarding on
	// the old program.
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
	if tmIn, tmOut, in, eg := tmSplit(cfg, byTSP); tmIn >= tmOut {
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
	// The TSPs whose program the new configuration changes: their count is
	// TSPsWritten, the quantity the Table 1 update-cost comparison is
	// stated in. The device always takes it from its own diff against the
	// running version, never from the manifest, which describes the
	// compiler workspace's last transition: after a rollback or a refused
	// apply that is not the device's. The running version's stage
	// signatures were taken under the same INT flag, which only SetInt
	// changes, by republishing.
	sigs := stageSignatures(cfg, s.intOn)
	oldByTSP := make([][]string, n)
	var oldSigs map[string]string
	if prev := s.epochs.current(); prev != nil {
		oldByTSP, oldSigs = prev.byTSP, prev.sigs
	}
	for i := range byTSP {
		if tspChanged(oldByTSP[i], byTSP[i], oldSigs, sigs) {
			stats.TSPsWritten++
		}
	}
	hash := configHash(cfg)
	inFlight := s.tmDepthSum()
	verdictsBefore := s.tel.VerdictSnapshot()

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

	// 3. Publish the refreshed handle view and (when enabled) the INT
	// state. New packets pick these up; packets pinned to an older version
	// keep executing against its frozen view.
	s.rebuildLookups()
	if s.intOn {
		s.publishIntState(cfg)
	}

	// 4. Compile (with cross-epoch reuse) and publish the new version.
	pub, err := s.publishProgram(dataplane.NewDesign(cfg, s.regs), byTSP, sigs, changed, kind, hash)
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

// tmSplit is the TM split cfg implies on its TSPs' stages byTSP (from
// stagesByTSP): tmIn is the last TSP hosting an ingress stage (-1 if
// none), tmOut the first hosting an egress stage (len(byTSP) if none),
// and in/eg name the first such stage on each in chain order. The split
// is valid when tmIn < tmOut.
func tmSplit(cfg *template.Config, byTSP [][]string) (tmIn, tmOut int, in, eg string) {
	tmIn, tmOut = -1, len(byTSP)
	for i, stages := range byTSP {
		for _, sn := range stages {
			switch cfg.Stages[sn].Pipe {
			case "ingress":
				if i > tmIn {
					tmIn, in = i, sn
				}
			case "egress":
				if i < tmOut {
					tmOut, eg = i, sn
				}
			}
		}
	}
	return tmIn, tmOut, in, eg
}

// publishProgram compiles d's stages — reusing the current version's
// runtimes where the structural hash (sigs, from stageSignatures under
// the current INT flag) matches and no table in changed was touched —
// assembles the new progVersion around d's stages byTSP and publishes it. The
// caller must already have published the lookup view and INT state this
// version should capture, and must hold s.mu; every stage it compiles
// binds its tables against that lookup view. kind/hash feed the health
// monitor's retirement watch for the superseded version.
func (s *Switch) publishProgram(d *dataplane.Design, byTSP [][]string, sigs map[string]string, changed map[string]bool, kind, hash string) (publishResult, error) {
	var pub publishResult
	cfg := d.Cfg
	prev := s.epochs.current()
	view := s.lookups.Load()

	built := make(map[string]*tsp.StageRuntime, len(cfg.Stages))
	names := make([]string, 0, len(cfg.Stages))
	for sn := range cfg.Stages {
		names = append(names, sn)
	}
	sort.Strings(names)
	for _, sn := range names {
		if prev != nil && prev.sigs[sn] == sigs[sn] && prev.built[sn] != nil &&
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

	// Assemble and publish the version; its predecessor is retired and
	// reclaimed once its last pinned packet finishes. The health monitor
	// watches that retirement against the reconfiguration deadline.
	tmIn, tmOut, _, _ := tmSplit(cfg, byTSP)
	v := &progVersion{
		design: d,
		tmIn:   tmIn,
		tmOut:  tmOut,
		byTSP:  byTSP,
		sink:   s.intSinkP.Load(),
		sigs:   sigs,
		built:  built,
	}
	for i, names := range byTSP {
		if len(names) == 0 {
			continue
		}
		sl := epochSlot{index: i, lat: s.tel.tspLat[i]}
		for _, sn := range names {
			sl.stages = append(sl.stages, built[sn])
		}
		switch {
		case i <= tmIn:
			v.ingress = append(v.ingress, sl)
		case i >= tmOut:
			v.egress = append(v.egress, sl)
		}
	}
	prevIn, prevOut := -1, len(byTSP)
	if prev != nil {
		prevIn, prevOut = prev.tmIn, prev.tmOut
	}
	pub.selectorMoved = tmIn != prevIn || tmOut != prevOut
	pub.tspsLoaded = v.activeTSPs()
	pub.epoch = s.epochs.publish(v)
	if prev != nil {
		s.health.BeginOpWatch(kind, hash, prev.quiesced)
	}
	return pub, nil
}
