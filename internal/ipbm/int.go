package ipbm

// int.go is the switch-level face of in-band telemetry: enabling INT is
// an in-situ reconfiguration (every stage program is rebuilt with the
// IntStamp epilogue and published as a new program version, exactly like
// a template patch), and the sink strips + decodes trailers at the egress
// boundary, feeding per-stage histograms, flow-path counters and a ring
// of decoded reports.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"time"

	"ipsa/internal/intmd"
	"ipsa/internal/pkt"
	"ipsa/internal/telemetry"
	"ipsa/internal/template"
	"ipsa/internal/tsp"
)

// intStageSeries is one stage's pre-resolved sink series, so per-hop
// observation is a map hit plus atomic adds.
type intStageSeries struct {
	name  string
	lat   *telemetry.Histogram // ipsa_int_hop_latency_seconds{stage=...}
	depth *telemetry.Histogram // ipsa_int_queue_depth{stage=...}
}

// intSink is the sink state a program version carries: immutable after
// construction, so the per-packet check is one field load.
type intSink struct {
	stages  map[uint16]*intStageSeries
	reports *intmd.ReportRing
	reg     *telemetry.Registry
	sunk    *telemetry.Counter
}

// newIntSink resolves the per-stage series for every stage of cfg. The
// stage-ID map is derived with tsp.IntStageID, the same function the
// stamper compiled into the programs, so decode agrees with encode.
func newIntSink(cfg *template.Config, reg *telemetry.Registry, ringSize int) *intSink {
	sink := &intSink{
		stages:  make(map[uint16]*intStageSeries, len(cfg.Stages)),
		reports: intmd.NewReportRing(ringSize),
		reg:     reg,
		sunk:    reg.Counter("ipsa_int_reports_total"),
	}
	for name := range cfg.Stages {
		id := tsp.IntStageID(name)
		sink.stages[id] = &intStageSeries{
			name:  name,
			lat:   reg.Histogram("ipsa_int_hop_latency_seconds", telemetry.L("stage", name)),
			depth: reg.Histogram("ipsa_int_queue_depth", telemetry.L("stage", name)),
		}
	}
	return sink
}

// process strips p's INT trailer (if any), resolves stage names, feeds
// the telemetry series and retains the decoded report. Runs only while a
// sink is published, i.e. INT-enabled cost.
func (sink *intSink) process(p *pkt.Packet) {
	hops, payloadLen, ok := intmd.Parse(p.Data)
	if !ok {
		return
	}
	p.Data = p.Data[:payloadLen]
	for i := range hops {
		if ss := sink.stages[hops[i].StageID]; ss != nil {
			hops[i].Stage = ss.name
			ss.lat.ObserveNanos(int64(hops[i].LatencyNanos))
			ss.depth.ObserveNanos(int64(hops[i].QDepth))
		}
	}
	rep := intmd.Report{InPort: p.InPort, OutPort: p.OutPort, Bytes: payloadLen, Hops: hops}
	// Flow-path counter: how many packets took each stage sequence. The
	// registry's get-or-create mutex is acceptable here — this path only
	// runs with INT enabled.
	sink.reg.Counter("ipsa_int_path_packets_total", telemetry.L("path", rep.Path())).Inc()
	sink.reports.Push(rep)
	sink.sunk.Inc()
}

// configHash identifies a configuration in audit events: truncated
// SHA-256 of its compact serialized form. Hashes only ever compare
// against other hashes from this function, so the on-disk indented
// rendering would just be wasted encoder time on the apply path.
func configHash(cfg *template.Config) string {
	if cfg == nil {
		return ""
	}
	b, err := json.Marshal(cfg)
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:6])
}

// IntEnabled reports whether INT stamping is currently compiled into the
// published stage programs.
func (s *Switch) IntEnabled() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.intOn
}

// SetInt enables or disables INT stamping: it commits the running config
// again with the INT flag flipped, as ApplyConfig commits a new one. Every
// stage recompiles (the stamping epilogue is in its structural hash),
// tables, registers and counters are untouched, and packets pinned to the
// previous version finish under the previous INT state. Before the first
// configuration only the flag changes, for the first commit to build with.
func (s *Switch) SetInt(enabled bool) error {
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.intOn == enabled {
		return nil
	}
	kind := "int_disable"
	if enabled {
		kind = "int_enable"
	}
	cfg := s.Config()
	if cfg == nil {
		s.intOn = enabled
		s.tel.Events.Append(telemetry.Event{Kind: kind, Detail: "no config installed; deferred to next apply"})
		return nil
	}
	_, err := s.commit(cfg, enabled, start, kind, "")
	return err
}

// intStampCtx is the stamping context an INT-on commit installs.
func (s *Switch) intStampCtx() *tsp.IntStampCtx {
	ctx := &tsp.IntStampCtx{
		SwitchID: s.opts.IntSwitchID,
		Now:      s.intNow,
		Depth:    s.tmDepthFast,
		Stamps:   s.tel.Reg.Counter("ipsa_int_stamps_total"),
		Skips:    s.tel.Reg.Counter("ipsa_int_stamps_skipped_total"),
	}
	if s.intDepth != nil {
		ctx.Depth = s.intDepth
	}
	return ctx
}

// intReports returns up to max sink-decoded reports, newest first (0 =
// all retained), the int view. Nil while INT is disabled.
func (s *Switch) intReports(max int) []intmd.Report {
	if v := s.epochs.current(); v != nil && v.sink != nil {
		return v.sink.reports.Dump(max)
	}
	return nil
}
