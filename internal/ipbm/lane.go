package ipbm

// lane.go is the packet lifecycle: admit → ingress → TM → egress → finish
// → flushTx, written once. A lane is everything one goroutine needs to
// take frames from arrival to a verdict without sharing a hot cache line:
// a packet freelist, an Env and a counter stripe (dataplane.Shard), the
// TM a shard lane parks its packets in, the flow table its admissions are
// accounted on, batch scratch and per-port transmit queues. The two forwarding drivers
// are thin loops over it:
//
//   - Forward / ForwardBatch / ProcessPacket run a pooled lane inline on
//     the caller's goroutine (batch of 1 or n, ingress survivors straight
//     to egress);
//   - RunSharded serves lanes behind the ring ports, one per shard holding
//     that shard's RSS ring of every port, each draining its own TM.
//
// A turn pins the current program version once and everything in it runs
// that version — its design, INT context and sink included: no packet
// outlives its turn.

import (
	"fmt"
	"sync/atomic"

	"ipsa/internal/dataplane"
	"ipsa/internal/flowstat"
	"ipsa/internal/netio"
	"ipsa/internal/pipeline"
	"ipsa/internal/pkt"
	"ipsa/internal/telemetry"
)

var errNoConfig = fmt.Errorf("ipbm: no configuration installed")

// laneFrame is one frame of a turn: the bytes, the RSS flow hash (from
// the port that steered it, or the inline driver) and the ingress port.
type laneFrame struct {
	data []byte
	hash uint64
	port int32
}

// flowFin is one finished packet's flow-accounting outcome, queued by
// finish and applied by settle.
type flowFin struct {
	hash    uint64
	lat     int64
	verdict flowstat.Verdict
}

// laneGate is the stall-injection test hook: a worker that finds one at
// the top of its loop closes held and waits for release.
type laneGate struct{ held, release chan struct{} }

type lane struct {
	s   *Switch
	idx int
	dsh *dataplane.Shard
	// tm is a shard lane's own TM, where a turn parks its ingress
	// survivors and drains them under the turn's pin; nil for an inline
	// lane, which runs its survivors to completion.
	tm *pipeline.TrafficManager

	// fl is the flow table this lane's packets are accounted on: the
	// shard's, or the ingress port's. Other lanes may share it (shard i
	// and an inline Forward on port i, or inline Forwards on one port from
	// several goroutines), so it is only touched under its hold, which a
	// turn takes twice: around touch and around settle, never across a
	// stage. now is the turn's timestamp for flow first/last/idle times;
	// fins are the turn's verdicts waiting for settle.
	fl   *flowstat.Table
	now  int64
	fins []flowFin

	// frames, ps and txq are the turn's scratch — the frames to admit, the
	// packets in flight and the egress frames per output port — retained
	// across turns.
	frames []laneFrame
	ps     []*pkt.Packet
	txq    [][][]byte

	// inspect makes the turn build a caller-owned packet and hand it back
	// in kept instead of transmitting and recycling it (ProcessPacket).
	inspect bool
	kept    *pkt.Packet

	// rings are the rx rings a served lane polls, ring i belonging to port
	// i; every ring signals wake, where the worker parks when all are
	// empty. next is the ring the next collection starts from.
	rings []*netio.RxQueue
	wake  chan struct{}
	next  int
	rxbuf []netio.Frame

	// beat counts frames taken through, turns the worker's wakeups; the
	// health watchdog and the per-shard export read the registered ones.
	beat, turns *telemetry.Counter

	gate atomic.Pointer[laneGate]
}

// newLane builds a lane charging counter stripe `stripe`, parking its
// packets in tm (nil: none), with scratch for turns of batch frames.
func (s *Switch) newLane(stripe int, tm *pipeline.TrafficManager, batch int) *lane {
	return &lane{
		s: s, tm: tm,
		dsh:    s.dp.NewShard(stripe, 2*batch),
		frames: make([]laneFrame, 0, batch),
		ps:     make([]*pkt.Packet, 0, batch),
		fins:   make([]flowFin, 0, batch),
		txq:    make([][][]byte, s.ports.Len()),
		rxbuf:  make([]netio.Frame, batch),
		wake:   make(chan struct{}, 1),
		beat:   new(telemetry.Counter),
		turns:  new(telemetry.Counter),
	}
}

// turn takes l.frames through the whole lifecycle under one pin of the
// current program version. It reports how many frames left the switch and
// the first admission error; every frame has a verdict when it returns.
func (l *lane) turn() (sent int, err error) {
	if l.fl != nil {
		l.now = flowstat.Now()
	}
	v := l.s.epochs.pin()
	if v == nil {
		// No configuration installed: nothing can size or parse a packet,
		// so every frame is an admission failure.
		for i := range l.frames {
			l.s.admitFailed(l.dsh.Lane(), int(l.frames[i].port), l.frames[i].data)
		}
		err = errNoConfig
	} else {
		for i := range l.frames {
			if e := l.admit(v, &l.frames[i]); e != nil && err == nil {
				err = e
			}
		}
		l.touch()
		l.ingress(v)
		if l.tm != nil {
			l.drain()
		}
		l.egress(v)
		l.settle()
		sent = l.flushTx()
		v.unpin()
	}
	clear(l.frames)
	l.frames = l.frames[:0]
	return sent, err
}

// admit builds the packet for one frame: sized for v's design so metadata
// and header-vector shapes match the stages that will run, and sampled for
// tracing and latency. A frame the design cannot admit is counted as an
// admission failure and the turn goes on.
func (l *lane) admit(v *progVersion, f *laneFrame) error {
	var p *pkt.Packet
	var err error
	if l.inspect {
		p, err = v.design.NewPacket(f.data, int(f.port))
	} else {
		p, err = l.dsh.GetPacket(v.design, f.data, int(f.port))
	}
	if err != nil {
		l.s.admitFailed(l.dsh.Lane(), int(f.port), f.data)
		return err
	}
	l.s.beginPacketTelemetry(p)
	if p.Trace != nil {
		p.Trace.Epoch = v.epoch
	}
	p.RSS = f.hash
	l.ps = append(l.ps, p)
	return nil
}

// touch accounts the admitted batch on the lane's flow table under one
// hold, before any stage rewrites the bytes.
func (l *lane) touch() {
	if l.fl == nil {
		return
	}
	l.fl.Hold()
	for _, p := range l.ps {
		l.fl.Touch(p.RSS, p.Data, len(p.Data), l.now)
		if p.Timed {
			p.FlowNanos = l.now
		}
	}
	l.fl.Release()
}

// settle applies the queued flow verdicts to the lane's flow table under
// one hold.
func (l *lane) settle() {
	if len(l.fins) == 0 {
		return
	}
	l.fl.Hold()
	for i := range l.fins {
		f := &l.fins[i]
		l.fl.Finish(f.hash, f.verdict, f.lat, l.now)
	}
	l.fl.Release()
	l.fins = l.fins[:0]
}

// ingress runs the admitted batch through v's ingress half, stage-major.
// An inline lane keeps its survivors in l.ps for egress; a shard lane
// parks each in its TM, leaving l.ps empty.
func (l *lane) ingress(v *progVersion) {
	v.runIngressBatch(l.ps, l.dsh.Env(v.design))
	live := l.ps[:0]
	for _, p := range l.ps {
		switch {
		case p.Drop:
			l.finish(v, p, true)
		case l.tm == nil:
			live = append(live, p)
		case !l.tm.Admit(p):
			// Tail drop is the TM's policy decision; counted in its stats.
			l.finish(v, p, false)
		}
	}
	clear(l.ps[len(live):])
	l.ps = live
}

// drain moves every packet in the lane's TM into l.ps.
func (l *lane) drain() {
	for {
		p, ok := l.tm.DequeueRR()
		if !ok {
			return
		}
		l.ps = append(l.ps, p)
	}
}

// egress runs the packets in l.ps, the ingress survivors, through v's
// egress half, stage-major, finishes each and empties l.ps.
func (l *lane) egress(v *progVersion) {
	if len(l.ps) == 0 {
		return
	}
	v.runEgressBatch(l.ps, l.dsh.Env(v.design))
	for i, p := range l.ps {
		l.finish(v, p, true)
		l.ps[i] = nil
	}
	l.ps = l.ps[:0]
}

// finish is the one place a packet gets its verdict and the one place a
// packet's fate is counted: punt, out-port surfacing, INT sink, the
// verdict filed in the telemetry ledger, the flow verdict queued for
// settle, then the transmit queue and the freelist. survived is false
// only for a TM tail drop.
func (l *lane) finish(v *progVersion, p *pkt.Packet, survived bool) {
	s := l.s
	if p.ToCPU {
		s.punt(p)
	}
	out := survived && !p.Drop
	if out {
		// The executor sets istd.out_port; the sink strips and decodes the
		// INT trailer so it never leaves the switch — under the version
		// that stamped it.
		dataplane.SurfaceOutPort(p)
		if v.sink != nil {
			v.sink.process(p)
		}
	}
	vd := dataplane.Verdict(p, survived, len(l.txq))
	s.finishPacketTelemetry(v, p, vd)
	if l.fl != nil {
		l.fins = append(l.fins, flowFin{p.RSS, flowLat(p), vd})
	}
	if l.inspect {
		l.kept = p
		return
	}
	if out && p.OutPort >= 0 && p.OutPort < len(l.txq) {
		l.txq[p.OutPort] = append(l.txq[p.OutPort], p.Data)
	}
	l.dsh.PutPacket(p)
}

// flowLat is the sampled per-flow latency: the time since the packet's
// admission stamp, taken only for latency-sampled packets (-1 = none).
func flowLat(p *pkt.Packet) int64 {
	if p.Timed && p.FlowNanos > 0 {
		return flowstat.Now() - p.FlowNanos
	}
	return -1
}

// flushTx transmits each port's queued frames in one batched call and
// reports how many the ports accepted. XmitBatch refuses a tail (the ring
// is FIFO), which is accounted as tx_fail after the packets' "forwarded"
// verdicts. Queue storage is retained for the next turn.
func (l *lane) flushTx() (sent int) {
	for i, frames := range l.txq {
		if len(frames) == 0 {
			continue
		}
		port, _ := l.s.ports.Port(i)
		n := port.XmitBatch(frames)
		sent += n
		if n < len(frames) {
			l.s.txFailed(l.dsh.Lane(), i, frames[n:])
		}
		clear(frames)
		l.txq[i] = frames[:0]
	}
	return sent
}

// collect takes up to batch frames off the lane's rings into l.frames,
// one lock per non-empty ring, starting after the ring the previous
// collection ended on so a saturated port cannot starve the others.
func (l *lane) collect(batch int) int {
	ri := l.next
	for range l.rings {
		if ri >= len(l.rings) {
			ri = 0
		}
		n := l.rings[ri].Recv(l.rxbuf[:batch-len(l.frames)])
		for j, f := range l.rxbuf[:n] {
			l.frames = append(l.frames, laneFrame{data: f.Data, hash: f.Hash, port: int32(ri)})
			l.rxbuf[j] = netio.Frame{}
		}
		ri++
		if n > 0 {
			l.next = ri
		}
		if len(l.frames) == batch {
			break
		}
	}
	return len(l.frames)
}

// portsClosed reports whether every port feeding the lane has closed
// (Shutdown): none accepts another frame, so one more empty collection
// is final.
func (l *lane) portsClosed() bool {
	for _, q := range l.rings {
		if !q.Closed() {
			return false
		}
	}
	return true
}

// queueDepth is a shard lane's backlog: frames waiting in its rx rings
// plus packets in its TM.
func (l *lane) queueDepth() int {
	n := l.tm.DepthSum()
	for _, q := range l.rings {
		n += q.Len()
	}
	return n
}

// serve is a ring-fed lane's event loop: collect up to batch frames, take
// them through a turn, park on the wake channel only when every ring is
// empty (an idle lane costs nothing). It returns once every port is
// closed and its rings are empty, so a frame a port accepted always
// reaches a verdict.
func (l *lane) serve(batch int) {
	closed := false
	for {
		l.checkGate()
		n := l.collect(batch)
		if n == 0 {
			if closed {
				return
			}
			if closed = l.portsClosed(); !closed {
				<-l.wake
			}
			continue
		}
		// A turn's only error is a frame refused at admission, which the
		// turn has already counted.
		_, _ = l.turn()
		l.beat.Add(uint64(n))
		l.turns.Inc()
	}
}

// checkGate blocks the worker while a test holds its gate. One atomic
// load per loop iteration.
func (l *lane) checkGate() {
	if g := l.gate.Load(); g != nil {
		close(g.held)
		<-g.release
	}
}

// block is the deliberate-stall test hook: it returns once the lane's
// worker is held at the top of its loop — having taken nothing more from
// its rings — and the worker stays there until release is called.
func (l *lane) block() (release func()) {
	g := &laneGate{held: make(chan struct{}), release: make(chan struct{})}
	l.gate.Store(g)
	// Kick a parked worker so it reaches the gate.
	select {
	case l.wake <- struct{}{}:
	default:
	}
	<-g.held
	return func() {
		l.gate.Store(nil)
		close(g.release)
	}
}
