// Package pisa is the comparison baseline: a PISA software switch in the
// style of bmv2 (paper Sec. 4.3 compares bmv2 against ipbm). It executes
// the same compiled stage templates as ipbm but with PISA's architectural
// properties, which are exactly what the paper criticizes:
//
//   - a standalone front-end parser that parses every header up front;
//   - a fixed number of ingress and egress physical stages, traversed by
//     every packet whether programmed or not;
//   - memory prorated per stage: a table bigger than one stage's share
//     combines the memory of consecutive stages, consuming them;
//   - a deparser that reassembles the packet at egress;
//   - and, crucially, no incremental update: ApplyConfig is always a full
//     pipeline rebuild that discards every table entry, so the controller
//     must repopulate all tables afterwards.
package pisa

import (
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"ipsa/internal/ctrlplane"
	"ipsa/internal/dataplane"
	"ipsa/internal/intmd"
	"ipsa/internal/mem"
	"ipsa/internal/pkt"
	"ipsa/internal/template"
	"ipsa/internal/tsp"
	"ipsa/internal/verdict"
)

// Options sizes the PISA pipeline.
type Options struct {
	// IngressStages and EgressStages are the fixed physical stage counts.
	IngressStages int
	EgressStages  int
	// StageBlocks is each stage's memory share in pool blocks; a larger
	// table spans consecutive stages.
	StageBlocks int
	// BlockWidth/BlockDepth size one memory block (bits × entries).
	BlockWidth, BlockDepth int
	// Exec selects the stage executor (fused closures by default; the
	// tree-walking interpreter for differential testing).
	Exec tsp.ExecMode
	// IntSwitchID identifies this switch in INT hop records.
	IntSwitchID uint32
	// Logger receives structured diagnostics (nil uses slog.Default).
	Logger *slog.Logger
}

// DefaultOptions mirrors a mid-sized fixed-function budget.
func DefaultOptions() Options {
	return Options{
		IngressStages: 12,
		EgressStages:  4,
		StageBlocks:   8,
		BlockWidth:    128,
		BlockDepth:    4096,
		IntSwitchID:   2, // distinguish from ipbm's default 1 in multi-hop runs
	}
}

// build is one rebuild's immutable result and everything a packet reads:
// the design (config, parser, registers, SRv6 IDs, INT stamping context),
// the physical stages, the tables their runtimes are bound to and the INT
// sink's stage names. ApplyConfig publishes it whole behind one pointer,
// so no packet runs one build's parser or registers against another's
// stages.
type build struct {
	design *dataplane.Design
	// ingress and egress are the fixed physical stages: each runs its
	// stage runtime, or none when unprogrammed (still traversed).
	ingress []*tsp.StageRuntime
	egress  []*tsp.StageRuntime
	// tables is the build's table set; every stage runtime is bound to
	// its handles once, at ApplyConfig, so the packet path reaches a table
	// with no lock and no name lookup.
	tables tableSet
	// used counts physical stages consumed, including the extra stages
	// spanned by oversized tables.
	used int
	// intNames maps INT stage IDs to stage names (nil when INT is off).
	intNames map[uint16]string
}

// Switch is the PISA behavioral model.
type Switch struct {
	opts Options
	log  *slog.Logger

	// dp holds the fault counters and the Env pool, shared with ipbm so
	// the per-packet lifecycle is identical infrastructure.
	dp *dataplane.Core
	// cur is the published build (nil before the first ApplyConfig).
	cur atomic.Pointer[build]

	// verdicts counts finished packets by verdict (indexed by the enum),
	// classified by dataplane.Verdict like ipbm's ledger and added to
	// without a lock.
	verdicts [verdict.NumVerdicts + 1]atomic.Uint64
	// intReports retains the INT sink's decoded reports.
	intReports *intmd.ReportRing

	// mu serializes rebuilds and guards the INT flag and reload count.
	mu sync.Mutex
	// intOn says whether the next rebuild compiles INT stamping in.
	intOn bool
	// reloads counts full pipeline rebuilds.
	reloads int
}

// tableSet maps table names to handles: each an engine with its own
// atomic hit and miss counters. It is the resolver the stage runtimes
// bind against.
type tableSet map[string]*mem.Table

// ResolveTable implements tsp.TableResolver.
func (ts tableSet) ResolveTable(name string) (tsp.ResolvedTable, bool) {
	t, ok := ts[name]
	if !ok {
		return nil, false
	}
	return t, true
}

// New builds an unprogrammed PISA switch.
func New(opts Options) (*Switch, error) {
	if opts.IngressStages <= 0 || opts.EgressStages <= 0 || opts.StageBlocks <= 0 {
		return nil, fmt.Errorf("pisa: invalid sizing %+v", opts)
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	return &Switch{
		opts:       opts,
		log:        logger.With("component", "pisa"),
		dp:         dataplane.NewCore(),
		intReports: intmd.NewReportRing(0),
	}, nil
}

// Reloads reports how many full rebuilds have happened.
func (s *Switch) Reloads() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reloads
}

// EffectiveStagesUsed reports physical stages consumed by the installed
// design, counting stages burned by table spanning.
func (s *Switch) EffectiveStagesUsed() int {
	if b := s.cur.Load(); b != nil {
		return b.used
	}
	return 0
}

// stageSpan computes how many physical stages a table's memory consumes.
func (s *Switch) stageSpan(t *template.Table) int {
	blocks := blocksFor(t, s.opts)
	span := (blocks + s.opts.StageBlocks - 1) / s.opts.StageBlocks
	if span < 1 {
		span = 1
	}
	return span
}

func blocksFor(t *template.Table, o Options) int {
	wc := (t.KeyWidth + o.BlockWidth - 1) / o.BlockWidth
	dc := (t.Size + o.BlockDepth - 1) / o.BlockDepth
	return wc * dc
}

// ApplyConfig performs PISA's only update mode: a full rebuild. Every
// existing table is discarded (entries and all), every stage is
// reprogrammed, registers are reset.
func (s *Switch) ApplyConfig(cfg *template.Config) (*ctrlplane.ApplyStats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rebuild(cfg, s.intOn)
}

// rebuild builds cfg whole, with INT stamping compiled in when intOn, and
// publishes the build. Called with s.mu held.
func (s *Switch) rebuild(cfg *template.Config, intOn bool) (*ctrlplane.ApplyStats, error) {
	start := time.Now()
	runtimes, err := tsp.BuildStageRuntimes(cfg, tsp.BuildOpts{Mode: s.opts.Exec, Int: intOn})
	if err != nil {
		return nil, err
	}
	// Map logical chains onto fixed stages in order, accounting for table
	// spans.
	b := &build{
		ingress: make([]*tsp.StageRuntime, s.opts.IngressStages),
		egress:  make([]*tsp.StageRuntime, s.opts.EgressStages),
		tables:  make(tableSet, len(cfg.Tables)),
	}
	place := func(chain []string, phys []*tsp.StageRuntime) error {
		next := 0
		for _, sn := range chain {
			st := cfg.Stages[sn]
			span := 1
			for _, tn := range st.Tables {
				if sp := s.stageSpan(cfg.Tables[tn]); sp > span {
					span = sp
				}
			}
			if next+span > len(phys) {
				return fmt.Errorf("pisa: stage %q needs %d physical stages at position %d, only %d available",
					sn, span, next, len(phys))
			}
			phys[next] = runtimes[sn]
			next += span // spanned stages are consumed (paper Sec. 5)
			b.used += span
		}
		return nil
	}
	if err := place(cfg.IngressChain, b.ingress); err != nil {
		return nil, err
	}
	if err := place(cfg.EgressChain, b.egress); err != nil {
		return nil, err
	}

	// Rebuild all tables empty: the full-reload penalty.
	for name, t := range cfg.Tables {
		tbl, err := mem.NewTable(t)
		if err != nil {
			return nil, err
		}
		b.tables[name] = tbl
	}
	for _, sr := range runtimes {
		sr.Bind(b.tables)
	}

	// Registers reset on every rebuild, unlike ipbm's additive update.
	b.design = dataplane.NewDesign(cfg, tsp.NewRegisterFile(cfg.Registers))
	if intOn {
		s.intState(b)
	}
	s.cur.Store(b)
	s.reloads++
	s.log.Debug("full pipeline rebuild (PISA has no incremental update)",
		"tables_rebuilt", len(cfg.Tables), "stages_used", b.used,
		"reloads", s.reloads, "load", time.Since(start))

	return &ctrlplane.ApplyStats{
		Full:          true,
		TSPsWritten:   s.opts.IngressStages + s.opts.EgressStages,
		TablesCreated: len(cfg.Tables),
		LoadNanos:     int64(time.Since(start)),
	}, nil
}

// frontParse is PISA's standalone parser: it walks the entire parse graph
// up front regardless of what the stages need (paper Sec. 2.1).
func (s *Switch) frontParse(d *dataplane.Design, p *pkt.Packet) {
	// Parsing "everything" = ensuring every header; the walk stops at the
	// first header the packet doesn't carry, exactly like a front parser
	// reaching an accept state.
	for i := range d.Cfg.Headers {
		d.Parser.Ensure(p, d.Cfg.Headers[i].ID)
	}
}

// deparse models PISA's egress deparser: the packet is reassembled from
// the parsed representation into a fresh buffer.
func (s *Switch) deparse(p *pkt.Packet) {
	out := make([]byte, len(p.Data))
	copy(out, p.Data)
	p.Data = out
}

// ProcessPacket pushes a frame through the fixed pipeline of the build
// published when it starts. The returned packet is caller-owned; the
// per-packet Env comes from the shared dataplane pool.
func (s *Switch) ProcessPacket(data []byte, inPort int) (*pkt.Packet, error) {
	b := s.cur.Load()
	if b == nil {
		return nil, dataplane.ErrNoConfig
	}
	d := b.design
	p, err := d.NewPacket(data, inPort)
	if err != nil {
		return nil, err
	}
	env := s.dp.GetEnv(d)

	s.frontParse(d, p)
	// Every physical stage is traversed, programmed or not; a stage runs
	// the packet as a batch of one.
	one := [1]*pkt.Packet{p}
	for _, phys := range [2][]*tsp.StageRuntime{b.ingress, b.egress} {
		for _, sr := range phys {
			if p.Drop {
				break
			}
			if sr != nil {
				sr.ExecuteBatch(one[:], d.Parser, env)
			}
		}
	}
	s.dp.PutEnv(env)
	if !p.Drop {
		dataplane.SurfaceOutPort(p)
	}
	// pisa has no TM and no ports of its own: every port the istd field
	// can name counts as valid, so no_port means no out port surfaced.
	s.verdicts[dataplane.Verdict(p, true, 1<<template.IstdOutPortWidth)].Add(1)
	if p.Drop {
		return p, nil
	}
	// INT sink runs before the deparser so the reassembled packet never
	// carries the trailer off the switch.
	s.sinkIntReport(b, p)
	s.deparse(p)
	return p, nil
}

// Config returns the installed configuration (nil before the first
// ApplyConfig).
func (s *Switch) Config() *template.Config {
	if b := s.cur.Load(); b != nil {
		return b.design.Cfg
	}
	return nil
}

// InsertEntry installs one table entry (same encoding as ipbm) into the
// published build's table.
func (s *Switch) InsertEntry(req ctrlplane.EntryReq) (int, error) {
	b := s.cur.Load()
	if b == nil {
		return 0, dataplane.ErrNoConfig
	}
	t, ok := b.design.Cfg.Tables[req.Table]
	if !ok {
		return 0, fmt.Errorf("pisa: unknown table %q", req.Table)
	}
	entry, err := ctrlplane.EncodeEntry(t, req)
	if err != nil {
		return 0, err
	}
	return b.tables[req.Table].Engine().Insert(entry)
}

// TableStats reads a table's counters.
func (s *Switch) TableStats(table string) (*ctrlplane.TableStats, error) {
	tbl := s.table(table)
	if tbl == nil {
		return nil, fmt.Errorf("pisa: unknown table %q", table)
	}
	hits, misses := tbl.Stats()
	return &ctrlplane.TableStats{Hits: hits, Misses: misses}, nil
}

// table returns the published build's handle for a table (nil when
// absent).
func (s *Switch) table(name string) *mem.Table {
	if b := s.cur.Load(); b != nil {
		return b.tables[name]
	}
	return nil
}

// Stats reports processed and dropped packets with ipbm's definitions:
// processed is every packet that finished forwarded, to_cpu or no_port,
// dropped every packet a stage dropped. A frame admission flagged as a
// parse failure counts in neither; VerdictSnapshot has every verdict.
func (s *Switch) Stats() (processed, dropped uint64) {
	processed = s.verdicts[verdict.Forwarded].Load() + s.verdicts[verdict.ToCPU].Load() +
		s.verdicts[verdict.NoPort].Load()
	return processed, s.verdicts[verdict.Dropped].Load()
}

// VerdictSnapshot reads the finished packets' per-verdict totals,
// indexed by verdict.Verdict, without allocating.
func (s *Switch) VerdictSnapshot() [verdict.NumVerdicts + 1]uint64 {
	var out [verdict.NumVerdicts + 1]uint64
	for v := range out {
		out[v] = s.verdicts[v].Load()
	}
	return out
}

// Faults exposes executor fault counters.
func (s *Switch) Faults() *tsp.Faults { return s.dp.Faults() }

// ReadRegister reads one register cell.
func (s *Switch) ReadRegister(name string, index uint64) (uint64, error) {
	b := s.cur.Load()
	if b == nil {
		return 0, dataplane.ErrNoConfig
	}
	v, ok := b.design.Regs.Read(name, index)
	if !ok {
		return 0, fmt.Errorf("pisa: register %q[%d] unreadable", name, index)
	}
	return v, nil
}
