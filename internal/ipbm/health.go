package ipbm

// health.go wires the switch into the self-diagnosis layer: the
// time-series ring samples the registry plus a few explicitly wired
// collector-backed series, the watchdog lanes are registered by
// RunSharded (one per shard lane), and every reconfiguration hands the version it retired to BeginOpWatch
// so one that never quiesces is reported instead of lingering silently.

import "ipsa/internal/health"

// initHealth builds the monitor. Called from New after newTelemetry;
// RunSharded registers lanes and Starts it.
func (s *Switch) initHealth(opts Options) {
	s.health = health.New(health.Options{
		Registry: s.tel.Reg,
		Events:   s.tel.Events,
		Log:      s.log.With("component", "health"),
		Interval: opts.HealthInterval,
		Packets:  s.packetsTotal,
		Drops:    s.dropsTotal,
		TMDepth:  s.tmDepthSum,
		Ready:    func() bool { return s.epochs.current() != nil },
	})
	// Collector-only series the ring should still rate: the shard TMs'
	// enqueue/tail-drop counters and depth. Registered handles
	// (ipsa_packets_total{verdict}, ipsa_shard_rx_frames_total, latency
	// histograms, ...) are tracked automatically.
	s.health.AddColumn(health.Column{
		Name: "ipsa_tm_enqueued_total", Kind: "counter",
		Read: func() float64 { e, _ := s.TMStats(); return float64(e) },
	})
	s.health.AddColumn(health.Column{
		Name: "ipsa_tm_tail_drops_total", Kind: "counter",
		Read: func() float64 { _, d := s.TMStats(); return float64(d) },
	})
	s.health.AddColumn(health.Column{
		Name: "ipsa_tm_depth", Kind: "gauge",
		Read: func() float64 { return float64(s.tmDepthSum()) },
	})
}

// packetsTotal folds every verdict counter: all packets that finished
// the pipeline, whatever their fate.
func (s *Switch) packetsTotal() uint64 {
	var n uint64
	for _, c := range s.tel.VerdictSnapshot() {
		n += c
	}
	return n
}

// dropsTotal folds the unexpected losses: TM tail drops, no-egress
// finishes, parse failures and refused transmits — every drops cell, as
// the acl cells are kept apart in dropACL. Intentional stage drops (a
// firewall program doing its job) are excluded so a policy-heavy program
// can never trip the post-reconfig drop-spike detector into reporting
// the switch degraded.
func (s *Switch) dropsTotal() uint64 {
	var n uint64
	for _, c := range s.tel.drops {
		if c != nil {
			n += c.Value()
		}
	}
	return n
}

// Health exposes the switch's self-diagnosis layer (rate queries, manual
// checks, the probe endpoint registration).
func (s *Switch) Health() *health.Health { return s.health }
