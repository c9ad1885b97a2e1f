package ipbm

import (
	"fmt"
	"sync"

	"ipsa/internal/dataplane"
	"ipsa/internal/flowstat"
	"ipsa/internal/netio"
	"ipsa/internal/pkt"
	"ipsa/internal/tsp"
)

// NewPacket wraps raw bytes in a caller-owned packet sized for the
// installed design's metadata area and stamps istd.in_port.
func (s *Switch) NewPacket(data []byte, inPort int) (*pkt.Packet, error) {
	d := s.dp.Design()
	if d == nil {
		return nil, fmt.Errorf("ipbm: no configuration installed")
	}
	return d.NewPacket(data, inPort)
}

// run executes the synchronous lifecycle on an already-built packet:
// telemetry begin, full pipeline, punt, out-port surfacing, telemetry
// finish. It reports whether the packet survived the pipeline.
func (s *Switch) run(d *dataplane.Design, p *pkt.Packet, env *tsp.Env) bool {
	s.dp.BeginPacket(p)
	env.Trace = p.Trace
	env.Timed = p.Timed
	ok := s.pl.Process(p, d.Parser, s, env)
	if p.ToCPU {
		s.punt(p)
	}
	if ok {
		// The executor sets istd.out_port; surface it on the packet.
		dataplane.SurfaceOutPort(p)
		// INT sink: at the egress boundary, strip + decode the trailer so
		// it never leaves the switch. One atomic load when INT is off.
		if sink := s.intSinkP.Load(); sink != nil && !p.Drop {
			sink.process(p)
		}
	}
	s.dp.FinishPacket(p, dataplane.Verdict(p, ok, s.ports.Len()))
	return ok
}

// ProcessPacket pushes one raw frame through the pipeline and returns the
// resulting packet. Survivors have OutPort set from istd.out_port; ToCPU
// packets are additionally cloned onto the punt queue. The returned
// packet is caller-owned (not pooled) so it can be inspected freely.
func (s *Switch) ProcessPacket(data []byte, inPort int) (*pkt.Packet, error) {
	if v := s.epochs.pin(); v != nil {
		defer v.unpin()
		p, err := v.design.NewPacket(data, inPort)
		if err != nil {
			return nil, err
		}
		fl, now := s.flowTouch(p, data, inPort)
		env := s.dp.GetEnv(v.design)
		ok := s.runEpoch(v, p, env)
		s.dp.PutEnv(env)
		s.flowFinish(fl, p, ok, now)
		return p, nil
	}
	d := s.dp.Design()
	if d == nil {
		return nil, fmt.Errorf("ipbm: no configuration installed")
	}
	p, err := d.NewPacket(data, inPort)
	if err != nil {
		return nil, err
	}
	fl, now := s.flowTouch(p, data, inPort)
	env := s.dp.GetEnv(d)
	ok := s.run(d, p, env)
	s.dp.PutEnv(env)
	s.flowFinish(fl, p, ok, now)
	return p, nil
}

// flowTouch accounts a synchronous-path packet on its ingress port's
// flow lane (the per-port runner goroutines give each lane a single
// writer, the same discipline the shard workers get for free). Call it
// after the packet is built and before the pipeline rewrites data.
func (s *Switch) flowTouch(p *pkt.Packet, data []byte, inPort int) (*flowstat.Table, int64) {
	fl := s.flows.Lane(inPort)
	if fl == nil {
		return nil, 0
	}
	p.RSS = pkt.RSSHash(data)
	now := flowstat.Now()
	fl.Touch(p.RSS, data, len(data), now)
	return fl, now
}

// flowFinish records the final verdict (and sampled latency) after a
// synchronous run.
func (s *Switch) flowFinish(fl *flowstat.Table, p *pkt.Packet, ok bool, now int64) {
	if fl == nil {
		return
	}
	lat := int64(-1)
	if p.Timed {
		lat = flowstat.Now() - now
	}
	fl.Finish(p.RSS, flowstat.VerdictOf(dataplane.Verdict(p, ok, s.ports.Len())), lat, now)
}

// Forward processes a frame and transmits the survivor on its output
// port. It reports whether the packet left the switch. This is the
// steady-state path: packet and Env come from the dataplane pools, so a
// forwarded packet costs zero heap allocations.
func (s *Switch) Forward(data []byte, inPort int) (bool, error) {
	// Pin the program version before sizing the packet so metadata and
	// header-vector shapes always match the stages that will execute.
	// A nil pin means drain mode (or nothing installed): legacy path.
	v := s.epochs.pin()
	var d *dataplane.Design
	if v != nil {
		d = v.design
	} else if d = s.dp.Design(); d == nil {
		return false, fmt.Errorf("ipbm: no configuration installed")
	}
	p, err := s.dp.GetPacket(d, data, inPort)
	if err != nil {
		if v != nil {
			v.unpin()
		}
		s.admitFailed(0, inPort, data)
		return false, err
	}
	fl, now := s.flowTouch(p, data, inPort)
	env := s.dp.GetEnv(d)
	var ok bool
	if v != nil {
		ok = s.runEpoch(v, p, env)
		v.unpin()
	} else {
		ok = s.run(d, p, env)
	}
	s.dp.PutEnv(env)
	s.flowFinish(fl, p, ok, now)
	defer s.dp.PutPacket(p)
	if p.Drop {
		return false, nil
	}
	if p.OutPort < 0 || p.OutPort >= s.ports.Len() {
		s.tel.noPortDrops.Inc()
		return false, nil
	}
	port, err := s.ports.Port(p.OutPort)
	if err != nil {
		return false, err
	}
	sent := port.Send(p.Data)
	if !sent {
		s.txFailed(p)
	}
	return sent, nil
}

// batchPool recycles ForwardBatch's packet-slice scratch so the batch
// path stays allocation-free at steady state regardless of which
// goroutine drives it.
var batchPool = sync.Pool{New: func() any {
	s := make([]*pkt.Packet, 0, DefaultBatch)
	return &s
}}

// ForwardBatch processes a batch of frames from one ingress port and
// transmits the survivors, returning how many left the switch. It is the
// batch-at-a-time analogue of Forward: the program version is pinned
// once, the Env is bound once, the flow clock is read once, and the
// pipeline executes stage-major — every packet passes through one stage
// before any packet advances — so fused stage closures, key plans and
// match-table buckets stay cache-hot across the batch and the per-packet
// bookkeeping amortizes. Each frame must be a distinct buffer (packets
// alias their frames while in flight). On drain-mode switches (no
// published version) it degrades to per-frame Forward calls.
func (s *Switch) ForwardBatch(frames [][]byte, inPort int) (int, error) {
	if len(frames) == 0 {
		return 0, nil
	}
	v := s.epochs.pin()
	if v == nil {
		sent := 0
		for _, data := range frames {
			ok, err := s.Forward(data, inPort)
			if err != nil {
				return sent, err
			}
			if ok {
				sent++
			}
		}
		return sent, nil
	}
	defer v.unpin()
	d := v.design
	psp := batchPool.Get().(*[]*pkt.Packet)
	ps := (*psp)[:0]
	fl := s.flows.Lane(inPort)
	var now int64
	if fl != nil {
		now = flowstat.Now()
	}
	var firstErr error
	for _, data := range frames {
		p, err := s.dp.GetPacket(d, data, inPort)
		if err != nil {
			// Process the frames already admitted, then report the error.
			s.admitFailed(0, inPort, data)
			firstErr = err
			break
		}
		s.dp.BeginPacket(p)
		if p.Trace != nil {
			p.Trace.Epoch = v.epoch
		}
		if fl != nil {
			p.RSS = pkt.RSSHash(data)
			fl.Touch(p.RSS, data, len(data), now)
			if p.Timed {
				p.FlowNanos = now
			}
		}
		ps = append(ps, p)
	}
	env := s.dp.GetEnv(d)
	v.runIngressBatch(s.pl, ps, env)
	// TM boundary: dispose ingress drops and pass-through rejects so the
	// egress sweep sees only live packets.
	for i, p := range ps {
		if p.Drop {
			s.disposeBatchPkt(v, p, fl, false, now)
			ps[i] = nil
			continue
		}
		if !s.pl.TM().PassThrough(p) {
			s.pl.CountDropped(int(env.Lane))
			s.disposeBatchPkt(v, p, fl, false, now)
			ps[i] = nil
		}
	}
	v.runEgressBatch(s.pl, ps, env)
	s.dp.PutEnv(env)
	sent := 0
	for i, p := range ps {
		if p == nil {
			continue
		}
		if s.disposeBatchPkt(v, p, fl, !p.Drop, now) {
			sent++
		}
		ps[i] = nil
	}
	*psp = ps[:0]
	batchPool.Put(psp)
	return sent, firstErr
}

// disposeBatchPkt finishes one batch packet after its pipeline verdict —
// punt, out-port surfacing, INT sink, telemetry finish, flow accounting,
// transmit, freelist return — mirroring runEpoch's tail plus Forward's
// transmit step. It reports whether the frame was transmitted.
func (s *Switch) disposeBatchPkt(v *progVersion, p *pkt.Packet, fl *flowstat.Table, ok bool, now int64) bool {
	if p.ToCPU {
		s.punt(p)
	}
	if ok {
		dataplane.SurfaceOutPort(p)
		if v.sink != nil && !p.Drop {
			v.sink.process(p)
		}
	}
	verdict := dataplane.Verdict(p, ok, s.ports.Len())
	s.dp.FinishPacket(p, verdict)
	if fl != nil {
		lat := int64(-1)
		if p.Timed {
			lat = flowstat.Now() - now
		}
		fl.Finish(p.RSS, flowstat.VerdictOf(verdict), lat, now)
	}
	sent := false
	if ok && !p.Drop {
		if p.OutPort >= 0 && p.OutPort < s.ports.Len() {
			if port, err := s.ports.Port(p.OutPort); err == nil {
				if sent = port.Send(p.Data); !sent {
					s.txFailed(p)
				}
			}
		} else {
			s.tel.noPortDrops.Inc()
		}
	}
	s.dp.PutPacket(p)
	return sent
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

// Run starts one forwarding goroutine per port, each pulling frames from
// the port's ingress and forwarding them. Stop with Shutdown.
func (s *Switch) Run() {
	s.health.Start()
	for i := 0; i < s.ports.Len(); i++ {
		port, _ := s.ports.Port(i)
		s.runWG.Add(1)
		go func(idx int, p netio.Port) {
			defer s.runWG.Done()
			for {
				data, ok := p.Recv()
				if !ok {
					return
				}
				if s.stopped.Load() {
					return
				}
				if _, err := s.Forward(data, idx); err != nil {
					return
				}
			}
		}(i, port)
	}
}

// Shutdown stops the forwarding goroutines and closes the ports. Egress
// workers parked on the TM notification are woken so they can observe
// the stop flag; sharded workers are woken by the closing ports, empty
// their rx rings and exit.
func (s *Switch) Shutdown() {
	if s.stopped.CompareAndSwap(false, true) {
		s.health.Stop()
		s.ports.Close()
		s.pl.TM().WakeAll()
		s.runWG.Wait()
		// All lane writers have exited: export every live flow so the
		// record stream accounts for the switch's entire lifetime.
		s.flows.FlushAll()
	}
}

// Faults exposes executor fault counters.
func (s *Switch) Faults() *tsp.Faults { return s.dp.Faults() }
