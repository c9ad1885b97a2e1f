package ipbm

import (
	"ipsa/internal/pkt"
	"ipsa/internal/tsp"
)

// NewPacket wraps raw bytes in a caller-owned packet sized for the
// published design's metadata area and stamps istd.in_port.
func (s *Switch) NewPacket(data []byte, inPort int) (*pkt.Packet, error) {
	v := s.epochs.current()
	if v == nil {
		return nil, errNoConfig
	}
	return v.design.NewPacket(data, inPort)
}

// inline runs frames from one ingress port to completion on the caller's
// goroutine, on a pooled lane: lanes come from a sync.Pool so the path is
// allocation-free at steady state whichever goroutine drives it, and the
// flow table is the ingress port's, shared under its hold with whoever
// else drives or serves that port. Each frame must be a distinct buffer
// (packets alias their frames while in flight).
func (s *Switch) inline(frames [][]byte, inPort int, inspect bool) (sent int, kept *pkt.Packet, err error) {
	l := s.lanes.Get().(*lane)
	l.inspect = inspect
	l.fl = s.flows.Lane(inPort)
	for _, data := range frames {
		var hash uint64
		if l.fl != nil {
			hash = pkt.RSSHash(data)
		}
		l.frames = append(l.frames, laneFrame{data: data, hash: hash, port: int32(inPort)})
	}
	sent, err = l.turn()
	kept, l.kept = l.kept, nil
	s.lanes.Put(l)
	return sent, kept, err
}

// ProcessPacket pushes one raw frame through the pipeline and returns the
// resulting packet instead of transmitting it. Survivors have OutPort set
// from istd.out_port; ToCPU packets are additionally cloned onto the punt
// queue. The returned packet is caller-owned (not pooled) so it can be
// inspected freely.
func (s *Switch) ProcessPacket(data []byte, inPort int) (*pkt.Packet, error) {
	one := [1][]byte{data}
	_, p, err := s.inline(one[:], inPort, true)
	return p, err
}

// Forward processes a frame and transmits the survivor on its output
// port. It reports whether the packet left the switch. This is the
// steady-state path: a forwarded packet costs zero heap allocations.
func (s *Switch) Forward(data []byte, inPort int) (bool, error) {
	one := [1][]byte{data}
	sent, _, err := s.inline(one[:], inPort, false)
	return sent == 1, err
}

// ForwardBatch processes a batch of frames from one ingress port and
// transmits the survivors, returning how many left the switch. It is the
// batch-at-a-time analogue of Forward: the program version is pinned
// once, the Env is bound once, the flow clock is read once, and the
// pipeline executes stage-major — every packet passes through one stage
// before any packet advances — so fused stage closures, key plans and
// match-table buckets stay cache-hot across the batch and the per-packet
// bookkeeping amortizes. A frame refused at admission is counted and
// skipped; the first such error is returned after the rest have run.
func (s *Switch) ForwardBatch(frames [][]byte, inPort int) (int, error) {
	sent, _, err := s.inline(frames, inPort, false)
	return sent, err
}

func (s *Switch) punt(p *pkt.Packet) {
	select {
	case s.toCPU <- p.Clone():
		s.punted.Add(1)
	default:
		// Punt queue full: drop the notification, never the data path.
	}
}

// PuntQueue exposes the to-CPU channel (flow-probe notifications etc.).
func (s *Switch) PuntQueue() <-chan *pkt.Packet { return s.toCPU }

// spawn runs one forwarding goroutine that Shutdown waits for.
func (s *Switch) spawn(f func()) {
	s.runWG.Add(1)
	go func() {
		defer s.runWG.Done()
		f()
	}()
}

// Shutdown closes the ports and waits for the forwarding goroutines.
// Closing is what stops them: a lane exits once its ports are closed and
// its rings are empty — so every frame a port accepted has a verdict, and
// no program version stays pinned, when Shutdown returns.
func (s *Switch) Shutdown() {
	if s.stopped.CompareAndSwap(false, true) {
		s.health.Stop()
		s.ports.Close()
		s.runWG.Wait()
		// All lane writers have exited: export every live flow so the
		// record stream accounts for the switch's entire lifetime.
		s.flows.FlushAll()
	}
}

// Faults exposes executor fault counters.
func (s *Switch) Faults() *tsp.Faults { return s.dp.Faults() }
