package ipbm

// shard.go is the flow-affine sharded forwarding mode: every port hashes
// an arriving frame (RSS over raw frame bytes) into one of N rx rings,
// and shard worker i polls ring i of every port, running ingress→TM→
// egress to completion against its own TM queues and packet freelist. A
// flow maps to one ring of one port, the ring is FIFO and has one
// consumer, so per-flow ordering holds by construction while independent
// flows scale across cores — the software analogue of replicating an RMT
// pipeline per hardware lane behind a multi-queue NIC.
// In-situ reconfiguration is hitless here by batch-granular epoch
// pinning: each worker wakeup pins the current program version once,
// processes its whole batch (including the TM drain) under it, and
// unpins — so a reconfig storm never blocks a shard, and the version
// pin/unpin cost amortizes over the batch. DrainReconfig switches leave
// the store unpublished and fall back to the shared pipeline's read
// lock, draining all shards through backpressure as before.

import (
	"fmt"
	"strconv"
	"sync/atomic"

	"ipsa/internal/dataplane"
	"ipsa/internal/flowstat"
	"ipsa/internal/health"
	"ipsa/internal/netio"
	"ipsa/internal/pipeline"
	"ipsa/internal/pkt"
	"ipsa/internal/telemetry"
)

// MaxShards bounds RunSharded's shard count: lane 0 of every striped
// counter belongs to the shared synchronous/pipelined paths, and the
// stripe sets are sized for MaxShards worker lanes above it.
const MaxShards = 63

// DefaultBatch is the frame batch size used when RunSharded (or the
// -batch flag) is given 0: large enough to amortize per-wakeup costs,
// small enough to keep worst-case added latency at microseconds.
const DefaultBatch = 32

// shardFrame is one frame a shard worker took off an rx ring. hash is
// the RSS flow hash the port already computed for steering, carried
// along so flow accounting never hashes a frame twice.
type shardFrame struct {
	data []byte
	hash uint64
	port int32
}

// shardRunner is one execution lane of the sharded mode. Everything here
// is either owned by the single worker goroutine (dsh, txq) or safe for
// the ports feeding it (rings, wake) and scrape-time aggregation (ring
// and tm depths, counters).
type shardRunner struct {
	idx int
	tm  *pipeline.TrafficManager
	dsh *dataplane.Shard

	// rings[p] is this shard's rx ring of port p; every one of them puts
	// its wake token on wake, where the worker parks when all are empty.
	// next is the port the next collection starts from.
	rings []*netio.RxQueue
	wake  chan struct{}
	next  int

	// txq accumulates egress frames per output port within one TM drain
	// so transmission uses the port's batched path; storage is retained
	// across drains.
	txq [][][]byte

	// rxbuf/frames/ps/eps are the worker's batch scratch: one ring's
	// burst, the frames of one wakeup, the packets built from them for
	// the stage-major ingress sweep, and the TM drain collected for the
	// egress sweep. Owned by the worker goroutine, retained across
	// wakeups.
	rxbuf  []netio.Frame
	frames []shardFrame
	ps     []*pkt.Packet
	eps    []*pkt.Packet

	rx      *telemetry.Counter // frames taken off this shard's rings
	batches *telemetry.Counter // worker wakeups (rx/batches = mean batch)

	// fl is this shard's flow table (nil with accounting disabled). The
	// worker goroutine is its only writer — same single-writer discipline
	// as the striped counters. now is the batch-granular timestamp the
	// worker refreshes once per wakeup for flow first/last/idle times.
	fl  *flowstat.Table
	now int64

	// gate is the stall-injection test hook: when non-nil, the worker
	// blocks on the gate channel at its next wakeup, freezing its
	// heartbeat while frames queue behind it — exactly the failure the
	// health watchdog exists to flag. One atomic load per wakeup.
	gate atomic.Pointer[chan struct{}]
}

// shardSet is the published sharded-mode state, stored behind an atomic
// pointer so scrape-time aggregation and the INT depth source can read it
// without coordination.
type shardSet struct {
	shards []*shardRunner
	batch  int
}

// RunSharded starts the sharded forwarding mode: every port splits its
// ingress into shards RSS rings, and worker i polls ring i of every port,
// running the full ingress→TM→egress lifecycle against per-shard queues
// and freelists. batch bounds the frames one worker wakeup handles (0 =
// DefaultBatch). Stop with Shutdown; mutually exclusive with
// Run/RunPipelined on the same switch.
func (s *Switch) RunSharded(shards, batch int) error {
	if shards < 1 || shards > MaxShards {
		return fmt.Errorf("ipbm: shard count %d outside [1,%d]", shards, MaxShards)
	}
	if batch <= 0 {
		batch = DefaultBatch
	}
	if s.dp.Design() == nil {
		return fmt.Errorf("ipbm: no configuration installed")
	}
	if s.shardsP.Load() != nil {
		return fmt.Errorf("ipbm: sharded mode already running")
	}
	set := &shardSet{batch: batch}
	wake := make([]chan struct{}, shards)
	for i := 0; i < shards; i++ {
		wake[i] = make(chan struct{}, 1)
		l := telemetry.L("shard", strconv.Itoa(i))
		set.shards = append(set.shards, &shardRunner{
			idx:  i,
			wake: wake[i],
			tm:   pipeline.NewTrafficManager(s.ports.Len(), s.opts.QueueDepth),
			dsh:  s.dp.NewShard(i+1, 2*batch),
			txq:  make([][][]byte, s.ports.Len()),

			rx:      s.tel.Reg.Counter("ipsa_shard_rx_frames_total", l),
			batches: s.tel.Reg.Counter("ipsa_shard_batches_total", l),

			fl: s.flows.Lane(i),

			rxbuf:  make([]netio.Frame, batch),
			frames: make([]shardFrame, 0, batch),
			ps:     make([]*pkt.Packet, 0, batch),
			eps:    make([]*pkt.Packet, 0, batch),
		})
	}
	// A ring holds at least one batch, so a stalled worker's backlog can
	// fill a whole wakeup. A full ring tail-drops at the port (rx_drops) —
	// drop policy stays at the edge, and only that shard's flows pay.
	for i := 0; i < s.ports.Len(); i++ {
		port, _ := s.ports.Port(i)
		for j, q := range port.SplitRx(wake, max(s.opts.QueueDepth, batch)) {
			set.shards[j].rings = append(set.shards[j].rings, q)
		}
	}
	s.shardsP.Store(set)
	for _, sh := range set.shards {
		s.runWG.Add(1)
		go s.shardWorker(sh, batch)
		// Watchdog lane: a shard is stalled when its wakeup counter freezes
		// while frames sit in its rx rings or TM — the TM-empty guard keeps
		// an idle shard from ever being flagged.
		s.health.AddLane(health.Lane{
			Name:     "shard-" + strconv.Itoa(sh.idx),
			Progress: sh.batches.Value,
			Pending:  sh.queueDepth,
			Series:   "ipsa_shard_rx_frames_total",
			SeriesLabels: []telemetry.Label{
				telemetry.L("shard", strconv.Itoa(sh.idx)),
			},
		})
	}
	s.health.Start()
	s.log.Info("sharded forwarding started", "shards", shards, "batch", batch)
	return nil
}

// blockShard is the deliberate-stall test hook: shard i's worker blocks
// on the returned gate at its next wakeup until release is called.
func (s *Switch) blockShard(i int) (release func(), err error) {
	set := s.shardsP.Load()
	if set == nil || i < 0 || i >= len(set.shards) {
		return nil, fmt.Errorf("ipbm: no such shard %d", i)
	}
	ch := make(chan struct{})
	set.shards[i].gate.Store(&ch)
	return func() {
		set.shards[i].gate.Store(nil)
		close(ch)
	}, nil
}

// queueDepth is the shard's backlog: frames waiting in its rx rings plus
// packets in its TM.
func (sh *shardRunner) queueDepth() int {
	n := sh.tm.DepthSum()
	for _, q := range sh.rings {
		n += q.Len()
	}
	return n
}

// portsClosed reports whether every port has closed (Shutdown): none
// accepts another frame, so one more empty collection is final.
func (sh *shardRunner) portsClosed() bool {
	for _, q := range sh.rings {
		if !q.Closed() {
			return false
		}
	}
	return true
}

// collect takes up to batch frames off the shard's rings, one lock per
// non-empty ring, starting after the port the previous collection ended
// on so a saturated port cannot starve the others.
func (sh *shardRunner) collect(batch int) []shardFrame {
	frames := sh.frames[:0]
	pi := sh.next
	for range sh.rings {
		if pi >= len(sh.rings) {
			pi = 0
		}
		n := sh.rings[pi].Recv(sh.rxbuf[:batch-len(frames)])
		for j, f := range sh.rxbuf[:n] {
			frames = append(frames, shardFrame{data: f.Data, hash: f.Hash, port: int32(pi)})
			sh.rxbuf[j] = netio.Frame{}
		}
		pi++
		if n > 0 {
			sh.next = pi
		}
		if len(frames) == batch {
			break
		}
	}
	return frames
}

// shardWorker is one shard's event loop: collect up to batch frames from
// its rings, run the whole collection through the ingress half
// batch-at-a-time, then drain the shard TM through egress and flush the
// per-port transmit batches; park on the wake channel only when every
// ring is empty (an idle shard costs nothing).
// Every frame of one wakeup — and the TM drain that follows — executes
// one pinned program version: shardDrain always empties the shard TM
// before the worker parks again, so no packet outlives its batch's pin.
func (s *Switch) shardWorker(sh *shardRunner, batch int) {
	defer s.runWG.Done()
	closed := false
	for {
		if g := sh.gate.Load(); g != nil {
			<-*g
		}
		frames := sh.collect(batch)
		if len(frames) == 0 {
			if closed {
				return
			}
			if closed = sh.portsClosed(); !closed {
				<-sh.wake
			}
			continue
		}
		sh.now = flowstat.Now()
		v := s.epochs.pin()
		s.shardProcess(sh, frames, v)
		sh.rx.Add(uint64(len(frames)))
		sh.batches.Inc()
		s.shardDrain(sh, v)
		if v != nil {
			v.unpin()
		}
	}
}

// shardProcess runs one wakeup's frames through the ingress half. Under
// a pinned version the packets are built first and then executed
// stage-major as one batch (with match-bucket prefetch one packet
// ahead); survivors are admitted to the shard TM. The legacy drain path
// (v == nil) keeps per-frame execution under the pipeline's read lock.
func (s *Switch) shardProcess(sh *shardRunner, frames []shardFrame, v *progVersion) {
	if v == nil {
		for _, f := range frames {
			s.shardIngest(sh, f, nil)
		}
		return
	}
	d := v.design
	ps := sh.ps[:0]
	for _, f := range frames {
		p, err := sh.dsh.GetPacket(d, f.data, int(f.port))
		if err != nil {
			s.admitFailed(sh.dsh.Lane(), int(f.port), f.data)
			continue
		}
		s.dp.BeginPacket(p)
		if p.Trace != nil {
			p.Trace.Epoch = v.epoch
		}
		p.RSS = f.hash
		if sh.fl != nil {
			sh.fl.Touch(f.hash, f.data, len(f.data), sh.now)
			if p.Timed {
				p.FlowNanos = flowstat.Now()
			}
		}
		ps = append(ps, p)
	}
	env := sh.dsh.Env(d)
	v.runIngressBatch(s.pl, ps, env)
	for i, p := range ps {
		if p.Drop {
			dv := dataplane.DropVerdict(p)
			s.dp.FinishPacket(p, dv)
			if sh.fl != nil {
				sh.fl.Finish(p.RSS, flowstat.VerdictOf(dv), flowLat(p), sh.now)
			}
			sh.dsh.PutPacket(p)
		} else if !sh.tm.Admit(p) {
			s.dp.FinishPacket(p, "tm_drop")
			if sh.fl != nil {
				sh.fl.Finish(p.RSS, flowstat.VerdictTMDrop, flowLat(p), sh.now)
			}
			sh.dsh.PutPacket(p)
		}
		ps[i] = nil
	}
	sh.ps = ps[:0]
}

// shardIngest is ingestOne against the shard's freelist, Env and TM,
// under the batch's pinned version (nil = legacy drain path).
func (s *Switch) shardIngest(sh *shardRunner, f shardFrame, v *progVersion) {
	var d *dataplane.Design
	if v != nil {
		d = v.design
	} else if d = s.dp.Design(); d == nil {
		return
	}
	p, err := sh.dsh.GetPacket(d, f.data, int(f.port))
	if err != nil {
		s.admitFailed(sh.dsh.Lane(), int(f.port), f.data)
		return
	}
	s.dp.BeginPacket(p)
	if p.Trace != nil && v != nil {
		p.Trace.Epoch = v.epoch
	}
	p.RSS = f.hash
	if sh.fl != nil {
		sh.fl.Touch(f.hash, f.data, len(f.data), sh.now)
		if p.Timed {
			p.FlowNanos = flowstat.Now()
		}
	}
	env := sh.dsh.Env(d)
	env.Trace = p.Trace
	env.Timed = p.Timed
	var ok bool
	if v != nil {
		ok = v.runIngress(s.pl, p, env)
	} else {
		ok = s.pl.RunIngress(p, d.Parser, s, env)
	}
	if !ok {
		dv := dataplane.DropVerdict(p)
		s.dp.FinishPacket(p, dv)
		if sh.fl != nil {
			sh.fl.Finish(p.RSS, flowstat.VerdictOf(dv), flowLat(p), sh.now)
		}
		sh.dsh.PutPacket(p)
		return
	}
	if !sh.tm.Admit(p) {
		s.dp.FinishPacket(p, "tm_drop")
		if sh.fl != nil {
			sh.fl.Finish(p.RSS, flowstat.VerdictTMDrop, flowLat(p), sh.now)
		}
		sh.dsh.PutPacket(p)
	}
}

// flowLat is the sampled per-flow latency: the time since the packet's
// admission stamp, taken only for latency-sampled packets (-1 = none).
func flowLat(p *pkt.Packet) int64 {
	if p.Timed && p.FlowNanos > 0 {
		return flowstat.Now() - p.FlowNanos
	}
	return -1
}

// shardDrain empties the shard TM through the egress half, then flushes
// the accumulated per-port transmit batches. Under a pinned version the
// whole drain is collected first and executed stage-major as one batch;
// the legacy path keeps per-packet execution.
func (s *Switch) shardDrain(sh *shardRunner, v *progVersion) {
	if v == nil {
		flush := false
		for {
			p, ok := sh.tm.DequeueRR()
			if !ok {
				break
			}
			s.shardEgest(sh, p)
			flush = true
		}
		if flush {
			s.shardFlushTx(sh)
		}
		return
	}
	ps := sh.eps[:0]
	for {
		p, ok := sh.tm.DequeueRR()
		if !ok {
			break
		}
		ps = append(ps, p)
	}
	if len(ps) == 0 {
		sh.eps = ps
		return
	}
	env := sh.dsh.Env(v.design)
	v.runEgressBatch(s.pl, ps, env)
	for i, p := range ps {
		s.shardDispose(sh, p, v, !p.Drop)
		ps[i] = nil
	}
	sh.eps = ps[:0]
	s.shardFlushTx(sh)
}

// shardEgest runs the egress half on one packet on the legacy drain path
// (no published program version). The tail mirrors egestOne, with the
// shard freelist in place of the shared pool and XmitBatch in place of
// Send.
func (s *Switch) shardEgest(sh *shardRunner, p *pkt.Packet) {
	d := s.dp.Design()
	env := sh.dsh.Env(d)
	env.Trace = p.Trace
	env.Timed = p.Timed
	survived := s.pl.RunEgress(p, d.Parser, s, env)
	s.shardDispose(sh, p, nil, survived)
}

// shardDispose finishes one egressed packet: drop bookkeeping or punt,
// out-port surfacing, INT sink, transmit queueing, telemetry finish,
// flow accounting and freelist return — shared by the legacy per-packet
// path (v == nil) and the batched epoch path.
func (s *Switch) shardDispose(sh *shardRunner, p *pkt.Packet, v *progVersion, survived bool) {
	if !survived {
		dv := dataplane.DropVerdict(p)
		s.dp.FinishPacket(p, dv)
		if sh.fl != nil {
			sh.fl.Finish(p.RSS, flowstat.VerdictOf(dv), flowLat(p), sh.now)
		}
		sh.dsh.PutPacket(p)
		return
	}
	if p.ToCPU {
		s.punt(p)
	}
	dataplane.SurfaceOutPort(p)
	sink := s.intSinkP.Load()
	if v != nil {
		sink = v.sink
	}
	if sink != nil {
		sink.process(p)
	}
	if p.OutPort >= 0 && p.OutPort < len(sh.txq) {
		sh.txq[p.OutPort] = append(sh.txq[p.OutPort], p.Data)
	} else {
		s.tel.noPortDrops.Inc()
	}
	verdict := dataplane.Verdict(p, true, s.ports.Len())
	s.dp.FinishPacket(p, verdict)
	if sh.fl != nil {
		sh.fl.Finish(p.RSS, flowstat.VerdictOf(verdict), flowLat(p), sh.now)
	}
	sh.dsh.PutPacket(p)
}

// shardFlushTx transmits each port's accumulated frames in one batched
// call, retaining the queue storage for the next drain.
func (s *Switch) shardFlushTx(sh *shardRunner) {
	for i := range sh.txq {
		frames := sh.txq[i]
		if len(frames) == 0 {
			continue
		}
		if port, err := s.ports.Port(i); err == nil {
			// XmitBatch reports how many frames the port accepted; the
			// remainder is per-frame-anonymous (no packet to capture), so
			// only the tx_fail counter moves, on this shard's stripe.
			sent := port.XmitBatch(frames)
			s.tel.countTxFail(sh.dsh.Lane(), uint64(len(frames)-sent))
		}
		for j := range frames {
			frames[j] = nil
		}
		sh.txq[i] = frames[:0]
	}
}

// Sharded reports the running shard count (0 when the sharded mode is not
// active) and the configured batch size.
func (s *Switch) Sharded() (shards, batch int) {
	set := s.shardsP.Load()
	if set == nil {
		return 0, 0
	}
	return len(set.shards), set.batch
}

// tmDepthSum totals TM occupancy across the shared TM and every shard TM
// (audit-event "packets in flight" source).
func (s *Switch) tmDepthSum() int {
	n := s.pl.TM().DepthSum()
	if set := s.shardsP.Load(); set != nil {
		for _, sh := range set.shards {
			n += sh.tm.DepthSum()
		}
	}
	return n
}

// tmDepthFast is the per-packet queue-depth source for the INT stamper:
// the port's occupancy summed over the shared TM and every shard TM,
// lock-free and approximate under concurrency like DepthFast itself.
func (s *Switch) tmDepthFast(port int) int {
	return s.pl.TM().DepthFast(port) + s.shardDepth(port)
}

// shardDepth is the shard TMs' combined occupancy for one port (0 when
// the sharded mode is inactive).
func (s *Switch) shardDepth(port int) int {
	n := 0
	if set := s.shardsP.Load(); set != nil {
		for _, sh := range set.shards {
			n += sh.tm.DepthFast(port)
		}
	}
	return n
}

// TMStats totals enqueued packets and tail drops across the shared TM and
// every shard TM.
func (s *Switch) TMStats() (enqueued, tailDrops uint64) {
	enqueued, tailDrops = s.pl.TM().Stats()
	if set := s.shardsP.Load(); set != nil {
		for _, sh := range set.shards {
			e, d := sh.tm.Stats()
			enqueued += e
			tailDrops += d
		}
	}
	return enqueued, tailDrops
}
