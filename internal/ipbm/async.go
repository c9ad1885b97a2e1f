package ipbm

import (
	"fmt"
	"strconv"
	"sync/atomic"

	"ipsa/internal/health"
	"ipsa/internal/telemetry"
)

// RunPipelined starts the asynchronous forwarding mode: the lifecycle is
// split at the shared traffic manager. One lane per port runs packets
// through the ingress half and parks the survivors in the TM's queues
// (tail-dropping under congestion); egressWorkers lanes drain the TM, run
// the egress half and transmit. Unlike the run-to-completion modes the TM
// genuinely buffers here, so bursts beyond the queue depth are dropped by
// policy rather than backpressure. A parked packet carries the program
// version it entered under across the TM in p.Ver, so egress — possibly
// after a reconfiguration — executes the same program. Stop with
// Shutdown.
func (s *Switch) RunPipelined(egressWorkers int) error {
	if egressWorkers <= 0 {
		return fmt.Errorf("ipbm: need at least one egress worker")
	}
	if s.dp.Design() == nil {
		return errNoConfig
	}
	// The last ingress lane to exit wakes the parked egress lanes so they
	// can see that nothing more will be admitted.
	var ingress atomic.Int32
	ingress.Store(int32(s.ports.Len()))
	for i := 0; i < s.ports.Len(); i++ {
		l := s.portLane(i, crossShared)
		s.spawn(func() {
			l.serve(DefaultBatch)
			if ingress.Add(-1) == 0 {
				s.pl.TM().WakeAll()
			}
		})
	}
	ingressDone := func() bool { return ingress.Load() == 0 }
	for w := 0; w < egressWorkers; w++ {
		l := s.newLane(0, s.pl.TM(), crossShared, egressBatch)
		// Each lane stamps its own heartbeat per processed packet; the
		// watchdog flags one whose heartbeat freezes while the TM still
		// holds packets.
		l.beat = s.tel.Reg.Counter("ipsa_egress_heartbeat_total",
			telemetry.L("worker", strconv.Itoa(w)))
		s.health.AddLane(health.Lane{
			Name:     "egress-" + strconv.Itoa(w),
			Progress: l.beat.Value,
			Pending:  s.pl.TM().DepthSum,
		})
		s.egress = append(s.egress, l)
		s.spawn(func() { l.serveTM(ingressDone) })
	}
	s.health.Start()
	s.log.Info("pipelined forwarding started", "egress_workers", egressWorkers)
	return nil
}
