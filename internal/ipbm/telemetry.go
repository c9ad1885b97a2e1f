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
	appliesFull *telemetry.Counter
	appliesDiff *telemetry.Counter
	tspsWritten *telemetry.Counter
	migrated    *telemetry.Counter

	// The packet ledger: every finished packet adds one cell of packets
	// (ipsa_packets_total{verdict}, indexed by verdict.Verdict; index 0,
	// None, is unused) and every lost one also one cell of ipsa_drop_total
	// {reason,stage}, so the per-reason sums reconcile exactly against the
	// loss verdicts. No other counter records a packet's fate. dropACL is
	// per TSP (stage "tsp<i>") so an intentional stage drop names the
	// processor that fired it; drops holds the other reasons (indexed by
	// verdict.DropReason), each with one fixed drop point. tx_fail is the
	// one loss outside the verdict taxonomy: the packet finished
	// "forwarded" and the egress port then refused the frame. Striped:
	// lane 0 is the inline Forward paths, lanes 1..N the shard workers, so
	// concurrent shards never contend on one cache line. Totals fold at
	// read time; per-lane cells are what the ipsa_shard_* export reads.
	packets [verdict.NumVerdicts + 1]*telemetry.StripedCounter
	drops   [verdict.NumReasons + 1]*telemetry.StripedCounter
	dropACL []*telemetry.StripedCounter

	// tspLat is each TSP's stage-batch latency histogram, observed for
	// latency-sampled packets by the program versions' slots.
	tspLat []*telemetry.Histogram

	// Drops is the sampled drop-capture ring (dropwatch-style): a
	// token-bucket-limited subset of losses keeps its header prefix,
	// drop point and epoch for post-mortem inspection.
	Drops *telemetry.DropRing
}

// file counts one finished packet with verdict v on stripe lane (the
// packet's telemetry lane: 0 shared, shard index + 1): one verdict cell
// and, for a loss, one drop cell — an acl loss on the cell of stage, the
// TSP that fired it. It returns the drop reason (ReasonNone for no loss)
// and the TSP to name in a capture (-1 when the drop point is not a
// stage).
func (t *Telemetry) file(lane int, v verdict.Verdict, stage int32) (verdict.DropReason, int) {
	t.packets[v].Cell(lane).Inc()
	r := v.Reason()
	switch r {
	case verdict.ReasonNone:
		return r, -1
	case verdict.ReasonACL:
		i := int(stage)
		if i < 0 || i >= len(t.dropACL) {
			i = 0
		}
		t.dropACL[i].Cell(lane).Inc()
		return r, i
	}
	t.drops[r].Cell(lane).Inc()
	return r, -1
}

// VerdictSnapshot reads the ledger's per-verdict totals, indexed by
// verdict.Verdict, without allocating: the audit events' baseline and
// what a poll for "every packet reached a verdict" sums.
func (t *Telemetry) VerdictSnapshot() [verdict.NumVerdicts + 1]uint64 {
	var out [verdict.NumVerdicts + 1]uint64
	for v := 1; v < len(out); v++ {
		out[v] = t.packets[v].Value()
	}
	return out
}

// verdictDeltas reports the per-verdict change since a snapshot, keeping
// only verdicts that moved.
func (t *Telemetry) verdictDeltas(before [verdict.NumVerdicts + 1]uint64) map[string]uint64 {
	var out map[string]uint64
	for v, n := range t.VerdictSnapshot() {
		if d := n - before[v]; d > 0 {
			if out == nil {
				out = make(map[string]uint64)
			}
			out[verdict.Verdict(v).String()] = d
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
		Reg:         reg,
		Tracer:      telemetry.NewTracer(ringDepth, opts.TraceEvery),
		LatSamp:     telemetry.NewSampler(opts.LatencyEvery),
		Events:      telemetry.NewEventLog(ringDepth),
		appliesFull: reg.Counter("ipsa_config_applies_total", telemetry.L("mode", "full")),
		appliesDiff: reg.Counter("ipsa_config_applies_total", telemetry.L("mode", "diff")),
		tspsWritten: reg.Counter("ipsa_config_tsps_written_total"),
		migrated:    reg.Counter("ipsa_config_entries_migrated_total"),
		Drops:       telemetry.NewDropRing(ringDepth, opts.DropSampleRate, 0),
	}
	for v := verdict.Forwarded; int(v) <= verdict.NumVerdicts; v++ {
		tel.packets[v] = reg.StripedCounter("ipsa_packets_total", verdictLanes, telemetry.L("verdict", v.String()))
	}
	for _, d := range []struct {
		r     verdict.DropReason
		stage string
	}{{verdict.ReasonTM, "tm"}, {verdict.ReasonNoPort, "tx"}, {verdict.ReasonParse, "parser"}, {verdict.ReasonTxFail, "tx"}} {
		tel.drops[d.r] = reg.StripedCounter("ipsa_drop_total", verdictLanes,
			telemetry.L("reason", d.r.String()), telemetry.L("stage", d.stage))
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
	gauge("ipsa_pipeline_stall_seconds_total", s.pl.StallTime().Seconds())
	gauge("ipsa_pipeline_active_tsps", float64(s.activeTSPs()))

	// Traffic manager: enqueue/tail-drop counters plus live queue depths,
	// totalled across every shard TM.
	enq, tailDrops := s.TMStats()
	ctr("ipsa_tm_enqueued_total", enq)
	ctr("ipsa_tm_tail_drops_total", tailDrops)
	for port := 0; port < s.ports.Len(); port++ {
		gauge("ipsa_tm_queue_depth", float64(s.tmDepthFast(port)), telemetry.L("port", strconv.Itoa(port)))
	}

	// TM watermarks and microburst windows, merged across every shard TM
	// (max watermark, summed burst counts).
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
			for v := verdict.Forwarded; int(v) <= verdict.NumVerdicts; v++ {
				n := s.tel.packets[v].CellValue(lane)
				pkts += n
				if v.IsDrop() {
					drops += n
				}
			}
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

	// Per-table hit/miss counters and occupancy, and per-stage counters
	// from the published version's runtimes.
	if v := s.epochs.current(); v != nil {
		for name, t := range v.view {
			hits, misses := t.Stats()
			l := telemetry.L("table", name)
			ctr("ipsa_table_hits_total", hits, l)
			ctr("ipsa_table_misses_total", misses, l)
			gauge("ipsa_table_entries", float64(t.Engine().Len()), l)
		}
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
// error, before the packet ever existed) as a parse_error in the ledger,
// so conservation holds even for packets that never entered the
// pipeline.
func (s *Switch) admitFailed(lane, inPort int, data []byte) {
	if r, _ := s.tel.file(lane, verdict.ParseError, -1); s.tel.Drops.Offer() {
		s.tel.Drops.Capture(r, -1, inPort, -1, s.currentEpoch(), data)
	}
}

// txFailed accounts frames the egress port outPort refused after their
// "forwarded" verdict (corroborated by the port's own tx_drops counter),
// on counter stripe lane, and offers each to the capture ring. The
// packets are already recycled, so the records carry no ingress port.
func (s *Switch) txFailed(lane, outPort int, frames [][]byte) {
	s.tel.drops[verdict.ReasonTxFail].Cell(lane).Add(uint64(len(frames)))
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

// tmWatermarks merges every shard TM's per-port watermark/microburst
// snapshots: the watermark is the max across TMs, burst counts add, and
// the window bounds widen.
func (s *Switch) tmWatermarks() []pipeline.PortWatermark {
	out := make([]pipeline.PortWatermark, s.ports.Len())
	for i := range out {
		out[i].Port = i
	}
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

// finishPacketTelemetry files the packet's verdict v in the ledger,
// offers a lost packet to the sampled capture ring, then completes and
// commits a sampled packet's flight record, naming its headers from the
// design of ver, the version the packet ran. The counters come first —
// they must tick for every packet, traced or not.
func (s *Switch) finishPacketTelemetry(ver *progVersion, p *pkt.Packet, v verdict.Verdict) {
	if reason, tspIdx := s.tel.file(int(p.Lane), v, p.DropStage); reason != verdict.ReasonNone && s.tel.Drops.Offer() {
		s.tel.Drops.Capture(reason, tspIdx, p.InPort, p.OutPort, ver.epoch, p.Data)
	}
	rec := p.Trace
	if rec == nil {
		return
	}
	p.Trace = nil
	rec.OutPort = p.OutPort
	rec.Bytes = len(p.Data)
	rec.Verdict = v.String()
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
