package ipbm

import (
	"strconv"

	"ipsa/internal/pipeline"
	"ipsa/internal/pkt"
	"ipsa/internal/telemetry"
	"ipsa/internal/verdict"
)

// Telemetry is the switch's observability state: a metrics registry, the
// sampled packet flight recorder, and the latency sampler. Hot-path
// handles (config counters, per-TSP latency histograms) are resolved once
// here and at ApplyConfig time; everything whose identity changes at
// runtime (ports, tables, stages) is exported by a scrape-time collector
// so the forwarding path never touches a map.
type Telemetry struct {
	Reg     *telemetry.Registry
	Tracer  *telemetry.Tracer
	LatSamp *telemetry.Sampler
	// Events is the reconfiguration audit trail: every apply/patch/INT
	// toggle records what changed and what the data plane experienced.
	Events *telemetry.EventLog

	// Config-plane counters, resolved at New.
	appliesFull  *telemetry.Counter
	appliesDiff  *telemetry.Counter
	appliesPatch *telemetry.Counter
	tspsWritten  *telemetry.Counter
	migrated     *telemetry.Counter
	// noPortDrops counts packets that finished the pipeline with no valid
	// egress port — silently lost before this counter existed.
	noPortDrops *telemetry.Counter

	// Per-verdict packet counters (ipsa_packets_total{verdict=...}),
	// incremented for every finished packet. Pre-resolved so the hot-path
	// cost is one switch plus one atomic add; their snapshots are how
	// audit events quantify what traffic saw during a swap. Striped:
	// lane 0 is the inline Forward paths, lanes 1..N the shard workers, so
	// concurrent shards never contend on one cache line. Totals fold at
	// read time; per-lane cells are what the ipsa_shard_* export reads.
	vForwarded  *telemetry.StripedCounter
	vDropped    *telemetry.StripedCounter
	vTmDrop     *telemetry.StripedCounter
	vToCPU      *telemetry.StripedCounter
	vNoPort     *telemetry.StripedCounter
	vParseError *telemetry.StripedCounter

	// Attributed drop counters (ipsa_drop_total{reason,stage}): every
	// lost packet increments exactly one cell, striped like the verdict
	// counters, so per-reason sums reconcile exactly against the loss
	// verdicts in ipsa_packets_total. dropACL is per-TSP (stage "tsp<i>")
	// so an intentional stage drop names the processor that fired it; the
	// other reasons each have one fixed drop point. dropTxFail is the one
	// loss outside the verdict taxonomy: the packet finished "forwarded"
	// and the egress port then refused the frame.
	dropACL    []*telemetry.StripedCounter
	dropTM     *telemetry.StripedCounter
	dropNoPort *telemetry.StripedCounter
	dropParse  *telemetry.StripedCounter
	dropTxFail *telemetry.StripedCounter

	// tspLat is each TSP's stage-batch latency histogram, observed for
	// latency-sampled packets by the program versions' slots.
	tspLat []*telemetry.Histogram

	// Drops is the sampled drop-capture ring (dropwatch-style): a
	// token-bucket-limited subset of losses keeps its header prefix,
	// drop point and epoch for post-mortem inspection.
	Drops *telemetry.DropRing
}

// verdictNames orders the per-verdict counters for snapshots/deltas —
// the shared taxonomy's order (enum value minus one).
var verdictNames = verdict.Strings

func (t *Telemetry) verdictCounters() [verdict.NumVerdicts]*telemetry.StripedCounter {
	return [verdict.NumVerdicts]*telemetry.StripedCounter{
		t.vForwarded, t.vDropped, t.vTmDrop, t.vToCPU, t.vNoPort, t.vParseError,
	}
}

// countVerdict bumps the finished packet's verdict counter on stripe
// lane (the packet's telemetry lane: 0 shared, shard index + 1).
func (t *Telemetry) countVerdict(lane int, v string) {
	switch v {
	case verdict.StrForwarded:
		t.vForwarded.Cell(lane).Inc()
	case verdict.StrDropped:
		t.vDropped.Cell(lane).Inc()
	case verdict.StrTMDrop:
		t.vTmDrop.Cell(lane).Inc()
	case verdict.StrToCPU:
		t.vToCPU.Cell(lane).Inc()
	case verdict.StrNoPort:
		t.vNoPort.Cell(lane).Inc()
	case verdict.StrParseError:
		t.vParseError.Cell(lane).Inc()
	}
}

// countDrop attributes one lost packet to its ipsa_drop_total cell. It
// returns the reason plus the dropping TSP (-1 when the drop point is
// not a stage) so the caller can offer the packet to the capture ring;
// ReasonNone means the verdict was not a loss.
func (t *Telemetry) countDrop(lane int, v string, stage int32) (verdict.DropReason, int) {
	switch v {
	case verdict.StrDropped:
		if len(t.dropACL) == 0 {
			return verdict.ReasonNone, -1
		}
		i := int(stage)
		if i < 0 || i >= len(t.dropACL) {
			i = 0
		}
		t.dropACL[i].Cell(lane).Inc()
		return verdict.ReasonACL, i
	case verdict.StrTMDrop:
		t.dropTM.Cell(lane).Inc()
		return verdict.ReasonTM, -1
	case verdict.StrNoPort:
		t.dropNoPort.Cell(lane).Inc()
		return verdict.ReasonNoPort, -1
	case verdict.StrParseError:
		t.dropParse.Cell(lane).Inc()
		return verdict.ReasonParse, -1
	}
	return verdict.ReasonNone, -1
}

// verdictSnapshot captures the per-verdict totals (audit-event baseline).
func (t *Telemetry) verdictSnapshot() [verdict.NumVerdicts]uint64 {
	var out [verdict.NumVerdicts]uint64
	for i, c := range t.verdictCounters() {
		out[i] = c.Value()
	}
	return out
}

// verdictDeltas reports the per-verdict change since a snapshot, keeping
// only verdicts that moved.
func (t *Telemetry) verdictDeltas(before [verdict.NumVerdicts]uint64) map[string]uint64 {
	var out map[string]uint64
	for i, c := range t.verdictCounters() {
		if d := c.Value() - before[i]; d > 0 {
			if out == nil {
				out = make(map[string]uint64)
			}
			out[verdictNames[i]] = d
		}
	}
	return out
}

// verdictLanes sizes the verdict counter stripes: one lane for the
// inline Forward paths plus one per possible shard.
const verdictLanes = MaxShards + 1

// newTelemetry builds the registry, resolves the static handles and
// attaches the per-TSP latency histograms.
func (s *Switch) newTelemetry(opts Options) {
	reg := telemetry.NewRegistry()
	tel := &Telemetry{
		Reg:          reg,
		Tracer:       telemetry.NewTracer(opts.TraceRing, opts.TraceEvery),
		LatSamp:      telemetry.NewSampler(opts.LatencyEvery),
		Events:       telemetry.NewEventLog(ringDepth),
		appliesFull:  reg.Counter("ipsa_config_applies_total", telemetry.L("mode", "full")),
		appliesDiff:  reg.Counter("ipsa_config_applies_total", telemetry.L("mode", "diff")),
		appliesPatch: reg.Counter("ipsa_config_applies_total", telemetry.L("mode", "patch")),
		tspsWritten:  reg.Counter("ipsa_config_tsps_written_total"),
		migrated:     reg.Counter("ipsa_config_entries_migrated_total"),
		noPortDrops:  reg.Counter("ipsa_no_port_drops_total"),
		vForwarded:   reg.StripedCounter("ipsa_packets_total", verdictLanes, telemetry.L("verdict", verdict.StrForwarded)),
		vDropped:     reg.StripedCounter("ipsa_packets_total", verdictLanes, telemetry.L("verdict", verdict.StrDropped)),
		vTmDrop:      reg.StripedCounter("ipsa_packets_total", verdictLanes, telemetry.L("verdict", verdict.StrTMDrop)),
		vToCPU:       reg.StripedCounter("ipsa_packets_total", verdictLanes, telemetry.L("verdict", verdict.StrToCPU)),
		vNoPort:      reg.StripedCounter("ipsa_packets_total", verdictLanes, telemetry.L("verdict", verdict.StrNoPort)),
		vParseError:  reg.StripedCounter("ipsa_packets_total", verdictLanes, telemetry.L("verdict", verdict.StrParseError)),
		dropTM:       reg.StripedCounter("ipsa_drop_total", verdictLanes, telemetry.L("reason", verdict.StrReasonTM), telemetry.L("stage", "tm")),
		dropNoPort:   reg.StripedCounter("ipsa_drop_total", verdictLanes, telemetry.L("reason", verdict.StrReasonNoPort), telemetry.L("stage", "tx")),
		dropParse:    reg.StripedCounter("ipsa_drop_total", verdictLanes, telemetry.L("reason", verdict.StrReasonParse), telemetry.L("stage", "parser")),
		dropTxFail:   reg.StripedCounter("ipsa_drop_total", verdictLanes, telemetry.L("reason", verdict.StrReasonTxFail), telemetry.L("stage", "tx")),
		Drops:        telemetry.NewDropRing(opts.DropRing, opts.DropSampleRate, opts.DropSampleBurst),
	}
	for i := 0; i < s.pl.NumTSPs(); i++ {
		tel.dropACL = append(tel.dropACL, reg.StripedCounter("ipsa_drop_total", verdictLanes,
			telemetry.L("reason", verdict.StrReasonACL), telemetry.L("stage", "tsp"+strconv.Itoa(i))))
	}
	for i := 0; i < s.pl.NumTSPs(); i++ {
		tel.tspLat = append(tel.tspLat, reg.Histogram("ipsa_tsp_latency_seconds",
			telemetry.L("tsp", strconv.Itoa(i))))
	}
	reg.AddCollector(s.collect)
	if s.flows != nil {
		reg.AddCollector(s.flows.Collect)
	}
	telemetry.RegisterRuntimeMetrics(reg)
	s.tel = tel
}

// Telemetry exposes the switch's observability state.
func (s *Switch) Telemetry() *Telemetry { return s.tel }

// collect emits the dynamic series at scrape time: per-port counters,
// pipeline/TM state, fault counters, per-table and per-stage counters.
func (s *Switch) collect(emit func(telemetry.MetricPoint)) {
	ctr := func(name string, v uint64, labels ...telemetry.Label) {
		emit(telemetry.MetricPoint{Name: name, Labels: labels, Kind: "counter", Value: float64(v)})
	}
	gauge := func(name string, v float64, labels ...telemetry.Label) {
		emit(telemetry.MetricPoint{Name: name, Labels: labels, Kind: "gauge", Value: v})
	}

	// Communication module: per-port counters with directional drops.
	for i := 0; i < s.ports.Len(); i++ {
		p, err := s.ports.Port(i)
		if err != nil {
			continue
		}
		st := p.DetailedStats()
		l := telemetry.L("port", strconv.Itoa(i))
		ctr("ipsa_port_rx_packets_total", st.Received, l)
		ctr("ipsa_port_tx_packets_total", st.Sent, l)
		ctr("ipsa_port_rx_drops_total", st.RxDrops, l)
		ctr("ipsa_port_tx_drops_total", st.TxDrops, l)
	}

	// Executor tier, build_info style: a constant-1 gauge whose label says
	// which of the two stage executors (fused closures or the reference
	// interpreter) this switch runs, so dashboards comparing hosts can tell
	// tier apart from hardware.
	gauge("ipsa_exec_tier", 1, telemetry.L("tier", s.opts.Exec.String()))

	// Pipeline module.
	processed, dropped := s.pl.Stats()
	ctr("ipsa_pipeline_processed_total", processed)
	ctr("ipsa_pipeline_dropped_total", dropped)
	gauge("ipsa_pipeline_stall_seconds_total", s.pl.StallTime().Seconds())
	gauge("ipsa_pipeline_active_tsps", float64(s.activeTSPs()))

	// Traffic manager: enqueue/tail-drop counters plus live queue depths,
	// totalled across the shared TM and every shard TM.
	enq, tailDrops := s.TMStats()
	ctr("ipsa_tm_enqueued_total", enq)
	ctr("ipsa_tm_tail_drops_total", tailDrops)
	for port, depth := range s.pl.TM().Depths() {
		gauge("ipsa_tm_queue_depth", float64(depth+s.shardDepth(port)), telemetry.L("port", strconv.Itoa(port)))
	}

	// TM watermarks and microburst windows, merged across the shared TM
	// and every shard TM (max watermark, summed burst counts).
	for _, w := range s.tmWatermarks() {
		l := telemetry.L("port", strconv.Itoa(w.Port))
		gauge("ipsa_tm_watermark", float64(w.Watermark), l)
		ctr("ipsa_tm_microburst_total", w.Bursts, l)
		if w.MinBurstNanos > 0 {
			gauge("ipsa_tm_microburst_min_seconds", float64(w.MinBurstNanos)/1e9, l)
		}
		if w.MaxBurstNanos > 0 {
			gauge("ipsa_tm_microburst_max_seconds", float64(w.MaxBurstNanos)/1e9, l)
		}
	}

	// Drop-capture sampling outcome (ring admission vs token exhaustion).
	sampled, skipped := s.tel.Drops.Stats()
	ctr("ipsa_drop_samples_total", sampled, telemetry.L("outcome", "sampled"))
	ctr("ipsa_drop_samples_total", skipped, telemetry.L("outcome", "skipped"))

	// Sharded mode: per-shard packet/drop/queue-depth series, read from
	// the striped verdict cells (lane = shard index + 1) and the shard
	// TMs. Absent unless RunSharded is active.
	if set := s.shardsP.Load(); set != nil {
		for _, sh := range set.shards {
			lane := sh.dsh.Lane()
			var pkts, drops uint64
			for _, c := range s.tel.verdictCounters() {
				pkts += c.CellValue(lane)
			}
			drops = s.tel.vDropped.CellValue(lane) +
				s.tel.vTmDrop.CellValue(lane) +
				s.tel.vNoPort.CellValue(lane) +
				s.tel.vParseError.CellValue(lane)
			l := telemetry.L("shard", strconv.Itoa(sh.idx))
			ctr("ipsa_shard_packets_total", pkts, l)
			ctr("ipsa_shard_drops_total", drops, l)
			gauge("ipsa_shard_queue_depth", float64(sh.queueDepth()), l)
		}
	}

	// Program store: current epoch, versions awaiting quiescence and
	// versions reclaimed.
	epoch, retired, reclaimed := s.EpochStats()
	gauge("ipsa_epoch", float64(epoch))
	gauge("ipsa_epoch_retired_versions", float64(retired))
	ctr("ipsa_epoch_reclaimed_total", reclaimed)

	// Punt path and executor faults.
	ctr("ipsa_to_cpu_total", s.punted.Load())
	faults := s.dp.Faults()
	ctr("ipsa_faults_total", faults.InvalidHeaderAccess.Load(), telemetry.L("kind", "invalid_header_access"))
	ctr("ipsa_faults_total", faults.RegisterFault.Load(), telemetry.L("kind", "register_fault"))
	ctr("ipsa_faults_total", faults.BadTemplate.Load(), telemetry.L("kind", "bad_template"))

	// Storage module: per-table hit/miss counters and occupancy.
	for _, name := range s.mm.Tables() {
		t, ok := s.mm.Table(name)
		if !ok {
			continue
		}
		hits, misses := t.Stats()
		l := telemetry.L("table", name)
		ctr("ipsa_table_hits_total", hits, l)
		ctr("ipsa_table_misses_total", misses, l)
		gauge("ipsa_table_entries", float64(t.Engine().Len()), l)
	}

	// Per-stage counters from the published version's runtimes.
	if v := s.epochs.current(); v != nil {
		for _, slots := range [][]epochSlot{v.ingress, v.egress} {
			for _, sl := range slots {
				tspLabel := telemetry.L("tsp", strconv.Itoa(sl.index))
				for _, sr := range sl.stages {
					packets, hits, misses := sr.Stats()
					ls := []telemetry.Label{telemetry.L("stage", sr.Name()), tspLabel}
					ctr("ipsa_stage_packets_total", packets, ls...)
					ctr("ipsa_stage_hits_total", hits, ls...)
					ctr("ipsa_stage_misses_total", misses, ls...)
					ctr("ipsa_stage_default_actions_total", sr.Defaults(), ls...)
				}
			}
		}
	}
}

// activeTSPs counts the TSPs the published version runs stages on.
func (s *Switch) activeTSPs() int {
	if v := s.epochs.current(); v != nil {
		return v.activeTSPs()
	}
	return 0
}

// admitFailed accounts a frame the dataplane refused to admit (GetPacket
// error, before the packet ever existed): the loss lands in both ledgers
// — the parse_error verdict and the parser's drop cell — so conservation
// holds even for packets that never entered the pipeline.
func (s *Switch) admitFailed(lane, inPort int, data []byte) {
	s.tel.countVerdict(lane, verdict.StrParseError)
	if r, _ := s.tel.countDrop(lane, verdict.StrParseError, -1); r != verdict.ReasonNone && s.tel.Drops.Offer() {
		s.tel.Drops.Capture(r, -1, inPort, -1, s.currentEpoch(), data)
	}
}

// txFailed accounts frames the egress port outPort refused after their
// "forwarded" verdict (corroborated by the port's own tx_drops counter),
// on counter stripe lane, and offers each to the capture ring. The
// packets are already recycled, so the records carry no ingress port.
func (s *Switch) txFailed(lane, outPort int, frames [][]byte) {
	s.tel.dropTxFail.Cell(lane).Add(uint64(len(frames)))
	for _, data := range frames {
		if s.tel.Drops.Offer() {
			s.tel.Drops.Capture(verdict.ReasonTxFail, -1, -1, outPort, s.currentEpoch(), data)
		}
	}
}

// currentEpoch is the published program-store epoch (0 before the first
// configuration).
func (s *Switch) currentEpoch() uint64 {
	if v := s.epochs.current(); v != nil {
		return v.epoch
	}
	return 0
}

// tmWatermarks merges the shared TM's and every shard TM's per-port
// watermark/microburst snapshots: the watermark is the max across TMs,
// burst counts add, and the window bounds widen.
func (s *Switch) tmWatermarks() []pipeline.PortWatermark {
	out := s.pl.TM().Watermarks()
	set := s.shardsP.Load()
	if set == nil {
		return out
	}
	for _, sh := range set.shards {
		for _, w := range sh.tm.Watermarks() {
			if w.Port >= len(out) {
				continue
			}
			o := &out[w.Port]
			if w.Watermark > o.Watermark {
				o.Watermark = w.Watermark
			}
			o.Bursts += w.Bursts
			if w.MinBurstNanos > 0 && (o.MinBurstNanos == 0 || w.MinBurstNanos < o.MinBurstNanos) {
				o.MinBurstNanos = w.MinBurstNanos
			}
			if w.MaxBurstNanos > o.MaxBurstNanos {
				o.MaxBurstNanos = w.MaxBurstNanos
			}
		}
	}
	return out
}

// beginPacketTelemetry makes the per-packet sampling decisions: it
// attaches a flight record (rarely) and marks the packet latency-sampled
// (more often). Cost when nothing samples: two atomic increments.
func (s *Switch) beginPacketTelemetry(p *pkt.Packet) {
	if rec := s.tel.Tracer.Sample(); rec != nil {
		rec.InPort = p.InPort
		rec.Bytes = len(p.Data)
		p.Trace = rec
	}
	p.Timed = s.tel.LatSamp.Hit()
}

// finishPacketTelemetry counts the packet's verdict v and — for the loss
// verdicts — its attributed drop reason, offers lost packets to the
// sampled capture ring, then completes and commits a sampled packet's
// flight record, naming its headers from the design of ver, the version
// the packet ran. The counters come first — they must tick for every
// packet, traced or not.
func (s *Switch) finishPacketTelemetry(ver *progVersion, p *pkt.Packet, v string) {
	lane := int(p.Lane)
	s.tel.countVerdict(lane, v)
	if reason, tspIdx := s.tel.countDrop(lane, v, p.DropStage); reason != verdict.ReasonNone && s.tel.Drops.Offer() {
		s.tel.Drops.Capture(reason, tspIdx, p.InPort, p.OutPort, ver.epoch, p.Data)
	}
	rec := p.Trace
	if rec == nil {
		return
	}
	p.Trace = nil
	rec.OutPort = p.OutPort
	rec.Bytes = len(p.Data)
	rec.Verdict = v
	cfg := ver.design.Cfg
	p.HV.Each(func(id pkt.HeaderID, loc pkt.HeaderLoc) {
		name := "hdr" + strconv.Itoa(int(id))
		if h := cfg.HeaderByID(id); h != nil {
			name = h.Name
		}
		rec.Headers = append(rec.Headers, telemetry.TraceHeader{Name: name, Off: loc.Off, Len: loc.Len})
	})
	s.tel.Tracer.Commit(rec)
}
