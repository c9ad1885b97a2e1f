// Package ipbm is the IPSA behavioral model: a software switch conforming
// to the IPSA architecture (paper Sec. 4.1). It assembles four modules:
// the Communication Module (netio ports), the Pipeline Module (elastic
// pipeline of TSPs), the Control Channel Module (ctrlplane server) and the
// Storage Module (disaggregated memory pool). Its defining property is
// that ApplyConfig patches only what changed, in place, on a live switch:
// only the stages whose content changed are recompiled, existing tables
// and registers keep their contents, and the result is published as a new
// epoch of the versioned program store (epoch.go) that packets in flight
// never wait for. Every packet takes one lifecycle (lane.go), whichever
// forwarding driver carries it.
package ipbm

import (
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ipsa/internal/ctrlplane"
	"ipsa/internal/dataplane"
	"ipsa/internal/flowstat"
	"ipsa/internal/health"
	"ipsa/internal/match"
	"ipsa/internal/mem"
	"ipsa/internal/netio"
	"ipsa/internal/pipeline"
	"ipsa/internal/pkt"
	"ipsa/internal/telemetry"
	"ipsa/internal/template"
	"ipsa/internal/tsp"
)

// Options sizes a switch.
type Options struct {
	NumTSPs    int
	NumPorts   int
	QueueDepth int
	Mem        mem.Config
	Crossbar   mem.CrossbarKind
	// TraceEvery samples every Nth packet into the flight recorder
	// (0 disables tracing until enabled via the control channel).
	TraceEvery uint64
	// LatencyEvery samples every Nth packet for the per-TSP latency
	// histograms (0 disables latency timing, the default — embedding
	// library users opt in). A sampled packet pays two clock reads plus
	// a histogram update per active TSP; at the ipbm daemon's 1-in-128
	// default that amortizes to well under a percent of a ~2µs forward.
	LatencyEvery uint64
	// Exec selects the stage executor tier: fused closures (the zero
	// value, tsp.ExecFused) or the tree-walking reference interpreter they
	// are tested against.
	Exec tsp.ExecMode

	// IntSwitchID identifies this switch in INT hop records.
	IntSwitchID uint32
	// DropSampleRate bounds drop captures per second (a token bucket
	// holding a second's worth; 0 disables capture until raised via
	// DropRing.SetRate). The attributed drop counters are always on.
	DropSampleRate int64

	// Logger receives the switch's structured logs (nil = slog.Default();
	// the switch adds component attributes).
	Logger *slog.Logger
	// HealthInterval is the health sampler/monitor cadence (0 = 1s;
	// negative disables the background ticker so tests can drive
	// Health().Check with synthetic clocks).
	HealthInterval time.Duration

	// FlowTableBits sizes each flow-accounting lane table to 2^bits slots
	// (0 = flowstat's default of 1024).
	FlowTableBits int
	// FlowIdle is the idle bound past which the sweeper exports a flow as
	// a record (0 = flowstat's default of 2s).
	FlowIdle time.Duration
	// FlowDisable turns flow accounting off entirely (it is on by
	// default; the overhead benchmarks use this for the comparison).
	FlowDisable bool
}

// ringDepth is how many entries the to-CPU punt queue, the INT sink's
// report ring, the reconfiguration event log, the flight recorder and
// the drop-capture ring each hold.
const ringDepth = 256

// DefaultOptions returns a software-scale switch: more TSPs than the
// paper's 8-processor FPGA so that every use case fits even when header
// linkage defeats predicate merging.
func DefaultOptions() Options {
	return Options{
		NumTSPs:    16,
		NumPorts:   8,
		QueueDepth: 1024,
		Mem:        mem.DefaultConfig(),
		Crossbar:   mem.FullCrossbar,

		TraceEvery:   0,
		LatencyEvery: 0,

		IntSwitchID: 1,

		DropSampleRate: 64,
	}
}

// Switch is one ipbm instance.
type Switch struct {
	opts Options

	pl    *pipeline.Pipeline
	mm    *mem.Manager
	ports *netio.PortSet
	regs  *tsp.RegisterFile

	// dp holds the fault counters and the packet/Env pools. The design a
	// packet runs, INT stamping context included, comes with the program
	// version it pinned.
	dp *dataplane.Core

	// mu serializes configuration changes.
	mu sync.RWMutex

	// epochs is the versioned program store: what every turn of every
	// lane pins, and the only thing a reconfiguration publishes to.
	epochs epochStore

	// lanes recycles the lanes Forward, ForwardBatch and ProcessPacket
	// run inline, so those stay allocation-free from any goroutine.
	lanes sync.Pool

	toCPU  chan *pkt.Packet
	punted atomic.Uint64

	tel    *Telemetry
	log    *slog.Logger
	health *health.Health
	views  *telemetry.Views

	// intOn is the configured INT state (guarded by s.mu); the hot path
	// reads the published version instead: its design carries the
	// stamping context, the version itself the sink.
	intOn bool
	// intNow/intDepth override the stamper's clock and queue-depth
	// sources (tests inject deterministic ones); nil = real sources.
	intNow   func() int64
	intDepth func(port int) int
	// failStep, when nonzero, fails every commit before its failStep-th
	// execute step (tests inject commit faults with it).
	failStep int

	// flows is the always-on flow accounting engine (nil only with
	// Options.FlowDisable): one flow table per lane — per shard in sharded
	// mode, per ingress port otherwise — written under its hold, plus the
	// shared flow-record ring. Orthogonal to the program store, so flow state
	// survives edit commits and config applies.
	flows *flowstat.Set

	// shardsP is the sharded mode's published state (nil unless
	// RunSharded is active): scrape-time aggregation, the INT queue-depth
	// source and the in-flight audit all read it lock-free.
	shardsP atomic.Pointer[shardSet]

	runWG   sync.WaitGroup
	stopped atomic.Bool
}

// New builds an unconfigured switch.
func New(opts Options) (*Switch, error) {
	if opts.NumTSPs <= 0 || opts.NumPorts <= 0 {
		return nil, fmt.Errorf("ipbm: invalid sizing %+v", opts)
	}
	pl, err := pipeline.New(opts.NumTSPs)
	if err != nil {
		return nil, err
	}
	mm, err := mem.NewManager(opts.Mem, opts.Crossbar, opts.NumTSPs)
	if err != nil {
		return nil, err
	}
	ports, err := netio.NewPortSet(opts.NumPorts, opts.QueueDepth)
	if err != nil {
		return nil, err
	}
	s := &Switch{
		opts:  opts,
		pl:    pl,
		mm:    mm,
		ports: ports,
		regs:  tsp.NewRegisterFile(nil),
		dp:    dataplane.NewCore(),
		toCPU: make(chan *pkt.Packet, ringDepth),
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	s.log = logger.With("component", "ipbm")
	if !opts.FlowDisable {
		lanes := opts.NumPorts
		if lanes < MaxShards+1 {
			lanes = MaxShards + 1
		}
		s.flows = flowstat.NewSet(lanes, flowstat.Config{
			TableBits: opts.FlowTableBits,
			IdleNanos: int64(opts.FlowIdle),
		})
	}
	s.lanes.New = func() any { return s.newLane(0, nil, DefaultBatch) }
	s.newTelemetry(opts)
	s.initHealth(opts)
	s.views = s.newViews()
	return s, nil
}

// Pipeline exposes the pipeline module (PM).
func (s *Switch) Pipeline() *pipeline.Pipeline { return s.pl }

// Ports exposes the communication module (CM).
func (s *Switch) Ports() *netio.PortSet { return s.ports }

// Config returns the configuration of the published program version
// (nil before the first ApplyConfig).
func (s *Switch) Config() *template.Config {
	if v := s.epochs.current(); v != nil {
		return v.design.Cfg
	}
	return nil
}

// stagesByTSP lists the stages each of n TSPs hosts under cfg in chain
// order (execution order within a TSP follows the chain order). cfg's
// TSP assignments must lie in [0,n).
func stagesByTSP(cfg *template.Config, n int) [][]string {
	rank := make(map[string]int, len(cfg.IngressChain)+len(cfg.EgressChain))
	for i, sn := range cfg.IngressChain {
		rank[sn] = i
	}
	for i, sn := range cfg.EgressChain {
		rank[sn] = len(cfg.IngressChain) + i
	}
	out := make([][]string, n)
	for sn, idx := range cfg.TSPAssignment {
		out[idx] = append(out[idx], sn)
	}
	for _, stages := range out {
		sort.Slice(stages, func(i, j int) bool { return rank[stages[i]] < rank[stages[j]] })
	}
	return out
}

// ApplyConfig installs or patches a device configuration. On a patch, only
// stages whose content changed are recompiled, new tables are created,
// vanished tables are recycled, existing table entries and register
// contents are preserved, and tables whose TSP moved across crossbar
// clusters are migrated. The change is one commit (commit.go), published
// as a new epoch of the versioned program store (see epoch.go): traffic
// is never excluded, and a refused commit changes nothing.
func (s *Switch) ApplyConfig(cfg *template.Config) (*ctrlplane.ApplyStats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	kind := "apply_diff"
	if s.Config() == nil {
		kind = "apply_full"
	}
	return s.commit(cfg, s.intOn, start, kind, "")
}

// tableView is an immutable name→handle view of the table store.
type tableView map[string]*mem.Table

// ResolveTable implements tsp.TableResolver: every stage runtime binds
// its tables against the view published with its program. A handle
// survives inserts and migrations (the manager mutates the table in
// place).
func (tv tableView) ResolveTable(name string) (tsp.ResolvedTable, bool) {
	t, ok := tv[name]
	if !ok {
		return nil, false
	}
	return t, true
}

// table resolves a name in the published handle view.
func (s *Switch) table(name string) *mem.Table {
	if v := s.epochs.current(); v != nil {
		return v.view[name]
	}
	return nil
}

// Lookup looks key up in a table of the current handle view, counting the
// hit or miss: a control-path probe, not the packet path.
func (s *Switch) Lookup(table string, key []byte) (match.Result, bool) {
	if t := s.table(table); t != nil {
		return t.Lookup(key)
	}
	return match.Result{}, false
}

// LookupSelector is Lookup for a selector: the member of group picked by
// the flow hash h.
func (s *Switch) LookupSelector(table string, groupKey []byte, h uint64) (match.Result, bool) {
	if t := s.table(table); t != nil {
		return t.LookupMember(groupKey, h)
	}
	return match.Result{}, false
}
