package pisa

// int.go gives the PISA baseline the same INT-MD capability as ipbm so
// the two models can be compared like-for-like — with one architectural
// difference that is the point of the comparison: PISA has no in-situ
// update path, so toggling INT is a full pipeline rebuild that discards
// every installed table entry (the controller must repopulate), exactly
// like any other reconfiguration on a fixed-function target.

import (
	"ipsa/internal/intmd"
	"ipsa/internal/pkt"
	"ipsa/internal/tsp"
)

// IntEnabled reports whether INT stamping is compiled into the stages.
func (s *Switch) IntEnabled() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.intOn
}

// SetInt enables or disables INT stamping. Unlike ipbm's in-situ commit,
// this is PISA's only update mode: a full rebuild of the installed
// config, which resets registers and empties every table. Before the
// first ApplyConfig only the flag changes, for that rebuild to use.
func (s *Switch) SetInt(enabled bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.intOn == enabled {
		return nil
	}
	if cfg := s.Config(); cfg != nil {
		if _, err := s.rebuild(cfg, enabled); err != nil {
			return err
		}
	}
	s.intOn = enabled
	return nil
}

// intState makes build b an INT source and sink: its design carries the
// stamping context and b the sink's stage-ID name map.
func (s *Switch) intState(b *build) {
	cfg := b.design.Cfg
	b.intNames = make(map[uint16]string, len(cfg.Stages))
	for name := range cfg.Stages {
		b.intNames[tsp.IntStageID(name)] = name
	}
	// No traffic manager in the fixed model: queue depth stamps 0.
	b.design.Int = &tsp.IntStampCtx{SwitchID: s.opts.IntSwitchID}
}

// sinkIntReport strips a survivor's INT trailer at the egress boundary
// (before the deparser copies the packet) and retains the decoded report,
// when the build p ran stamps INT.
func (s *Switch) sinkIntReport(b *build, p *pkt.Packet) {
	if b.intNames == nil {
		return
	}
	hops, payloadLen, ok := intmd.Parse(p.Data)
	if !ok {
		return
	}
	p.Data = p.Data[:payloadLen]
	for i := range hops {
		hops[i].Stage = b.intNames[hops[i].StageID]
	}
	s.intReports.Push(intmd.Report{InPort: p.InPort, OutPort: p.OutPort, Bytes: payloadLen, Hops: hops})
}

// IntReport returns up to max sink-decoded reports, newest first (0 =
// all retained). Empty until INT is first enabled.
func (s *Switch) IntReport(max int) []intmd.Report {
	return s.intReports.Dump(max)
}
