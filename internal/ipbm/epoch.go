package ipbm

import (
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"

	"ipsa/internal/dataplane"
	"ipsa/internal/pkt"
	"ipsa/internal/telemetry"
	"ipsa/internal/template"
	"ipsa/internal/tsp"
)

// This file implements the epoch-versioned program store, the switch's
// one reconfiguration mechanism. Every commit (commit.go: ApplyConfig,
// Edit and SetInt alike) assembles an immutable progVersion — the
// compiled stage programs, the table handles they are bound to and the
// INT sink that belong together — and publishes it with one atomic
// pointer store. Packets pin the version they entered under and execute
// it to completion, so an old and a new program briefly coexist and no
// packet ever waits for a writer. A superseded version is retired and
// reclaimed once its in-flight count drains to zero.
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
	// next commit diffs its own TSPs against it.
	byTSP [][]string

	// view holds the table handles the stages were bound against.
	view tableView
	// sink is the INT sink (nil when INT is off in this version).
	sink *intSink
	// regs is every register the file holds (they outlive their configs).
	regs map[string]template.Register

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
// A publish between the load and the add can retire, and a reap reclaim,
// the version before the add lands. That is harmless only because
// reclaiming frees nothing: the version stays valid Go memory, its
// tables keep their engines, and it executes correctly. Anything that
// releases a resource at reclamation must close this window first.
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
