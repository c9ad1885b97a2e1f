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
	"ipsa/internal/template"
	"ipsa/internal/tsp"
)

// IntEnabled reports whether INT stamping is compiled into the stages.
func (s *Switch) IntEnabled() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.intOn
}

// SetInt enables or disables INT stamping. Unlike ipbm's drain-and-swap,
// this is PISA's only update mode: a full ApplyConfig rebuild, which
// resets registers and empties every table.
func (s *Switch) SetInt(enabled bool) error {
	s.mu.Lock()
	if s.intOn == enabled {
		s.mu.Unlock()
		return nil
	}
	s.intOn = enabled
	s.mu.Unlock()
	cfg := s.Config()
	if cfg == nil {
		return nil // the flag shapes the next ApplyConfig
	}
	if _, err := s.ApplyConfig(cfg); err != nil {
		s.mu.Lock()
		s.intOn = !enabled
		s.mu.Unlock()
		return err
	}
	return nil
}

// installIntState installs (cfg non-nil and INT on) or clears the
// stamping context and sink view. Called with s.mu held.
func (s *Switch) installIntState(cfg *template.Config) {
	if cfg == nil || !s.intOn {
		s.dp.SetIntCtx(nil)
		s.intNames = nil
		return
	}
	if s.intReports == nil {
		s.intReports = intmd.NewReportRing(0)
	}
	names := make(map[uint16]string, len(cfg.Stages))
	for name := range cfg.Stages {
		names[tsp.IntStageID(name)] = name
	}
	s.intNames = names
	s.dp.SetIntCtx(&tsp.IntStampCtx{
		SwitchID: s.opts.IntSwitchID,
		Now:      s.intNow,
		// No traffic manager in the fixed model: queue depth stamps 0.
	})
}

// sinkIntReport strips a survivor's INT trailer at the egress boundary
// (before the deparser copies the packet) and retains the decoded report.
func (s *Switch) sinkIntReport(p *pkt.Packet) {
	s.mu.RLock()
	names := s.intNames
	ring := s.intReports
	s.mu.RUnlock()
	if names == nil || ring == nil {
		return
	}
	hops, payloadLen, ok := intmd.Parse(p.Data)
	if !ok {
		return
	}
	p.Data = p.Data[:payloadLen]
	for i := range hops {
		hops[i].Stage = names[hops[i].StageID]
	}
	ring.Push(intmd.Report{InPort: p.InPort, OutPort: p.OutPort, Bytes: payloadLen, Hops: hops})
}

// IntReport returns up to max sink-decoded reports, newest first (0 =
// all retained). Empty while INT is disabled.
func (s *Switch) IntReport(max int) []intmd.Report {
	s.mu.RLock()
	ring := s.intReports
	s.mu.RUnlock()
	if ring == nil {
		return nil
	}
	return ring.Dump(max)
}
