package ipbm

// reconfig_bench_test.go measures forwarding behaviour *during* a
// reconfiguration storm — the experiment behind the hitless
// reconfiguration table in EXPERIMENTS.md. A closed-loop injector pushes flow
// traffic through the sharded runner while a storm goroutine commits
// one edit script every editEvery frames (pacing by frames makes the
// applies-per-run count host-speed independent); every frame carries
// its identity in the TCP sequence field, so egress observation yields
// true per-packet forwarding latency and an exact drop count.
//
// `make bench-reconfig` gates it against
// BENCH_reconfig.json: drops and pipeline stall must stay exactly zero.

import (
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"ipsa/internal/ctrlplane"
	"ipsa/internal/pkt"
)

const (
	// stormRing is the frame-identity space: a slot is reused only after
	// stormRing further injections, far beyond the in-flight window, so
	// a TCP sequence number uniquely names one in-flight frame.
	stormRing = 4096
	// stormWindow bounds frames in flight (closed loop): small enough
	// that the switch's queues never overflow from harness pressure
	// alone, large enough to keep every shard busy.
	stormWindow = 64
	// editEvery frames, one edit-script commit. At software-switch rates
	// this is hundreds of commits per second — well past the 100/s storm
	// the experiment calls for.
	editEvery = 2000
	// stormWarmup frames run before the timed region, storm-free, to
	// warm pools and measure the steady-state latency baseline.
	stormWarmup = 20000
)

// stormHarness drives closed-loop phases over a fixed frame ring and
// accounts for every frame: emerged at a port, or dropped in-switch.
type stormHarness struct {
	sw       *Switch
	inject   func([]byte) bool
	times    [stormRing]atomic.Int64
	lats     []int64
	received atomic.Uint64
	injected atomic.Uint64
	commits  atomic.Uint64
}

// inSwitchDrops sums the verdict counters that account for a frame
// without it emerging at a port.
func (h *stormHarness) inSwitchDrops() uint64 {
	t := h.sw.tel
	return t.vDropped.Value() + t.vTmDrop.Value() + t.vNoPort.Value()
}

// runPhase injects nFrames in a closed loop, committing one scratch
// edit per editEvery frames when storm is true, and waits until every
// frame is accounted (emerged or dropped in-switch).
func (h *stormHarness) runPhase(b *testing.B, frames, pristine [][]byte, nFrames int, storm bool) {
	b.Helper()
	stop := make(chan struct{})
	stormDone := make(chan struct{})
	if storm {
		go func() {
			defer close(stormDone)
			n := 0
			base := h.injected.Load()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if h.injected.Load()-base < uint64((n+1)*editEvery) {
					runtime.Gosched()
					continue
				}
				op := ctrlplane.EditOp{Kind: "set_table", Table: "storm_scratch", TableSpec: scratchTable("storm_scratch")}
				if n%2 == 1 {
					op = ctrlplane.EditOp{Kind: "delete_table", Table: "storm_scratch"}
				}
				if err := h.sw.EditBegin(); err != nil {
					b.Error(err)
					return
				}
				if err := h.sw.EditApply(op); err != nil {
					b.Error(err)
					return
				}
				if _, err := h.sw.EditCommit(); err != nil {
					b.Error(err)
					return
				}
				h.commits.Add(1)
				n++
			}
		}()
	} else {
		close(stormDone)
	}
	startInjected := h.injected.Load()
	startReceived := h.received.Load()
	startDrops := h.inSwitchDrops()
	completed := func() uint64 {
		return h.received.Load() - startReceived + h.inSwitchDrops() - startDrops
	}
	for i := 0; i < nFrames; i++ {
		for h.injected.Load()-startInjected-completed() >= stormWindow {
			runtime.Gosched()
		}
		// The switch owns the buffer zero-copy from inject to egress and
		// rewrites it in place, so restore the slot's frame from its
		// pristine twin before reusing it. Ring >> window keeps the slot
		// idle by the time it comes around again.
		slot := int(h.injected.Load() % stormRing)
		buf := frames[slot]
		copy(buf, pristine[slot])
		h.times[slot].Store(time.Now().UnixNano())
		for !h.inject(buf) {
			runtime.Gosched()
		}
		h.injected.Add(1)
	}
	deadline := time.Now().Add(60 * time.Second)
	for completed() < uint64(nFrames) {
		if time.Now().After(deadline) {
			b.Fatalf("storm phase never quiesced: %d/%d frames accounted", completed(), nFrames)
		}
		runtime.Gosched()
	}
	close(stop)
	<-stormDone
}

// latP99 returns the 99th-percentile of a latency sample, in ns.
func latP99(lats []int64) float64 {
	if len(lats) == 0 {
		return 0
	}
	s := append([]int64(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[len(s)*99/100])
}

// BenchmarkReconfigStormHitless is the gated experiment: a sharded
// switch forwarding through a continuous edit-script storm on the
// epoch-versioned store. Gate contract: drops == 0 and stall_us == 0.
func BenchmarkReconfigStormHitless(b *testing.B) {
	sw, _ := newBaseSwitch(b)
	if err := sw.RunSharded(2, DefaultBatch); err != nil {
		b.Fatal(err)
	}
	defer sw.Shutdown()
	inP, err := sw.Ports().Port(inPort)
	if err != nil {
		b.Fatal(err)
	}
	outP, err := sw.Ports().Port(outPort)
	if err != nil {
		b.Fatal(err)
	}

	// One working buffer and one pristine twin per ring slot. Slot
	// identity rides the TCP sequence field, which the L3 rewrite never
	// touches; the flow hash rides the TCP source port.
	frames := make([][]byte, stormRing)
	pristine := make([][]byte, stormRing)
	for i := range frames {
		pristine[i] = flowPacket(b, uint16(i%64), uint32(i))
		frames[i] = append([]byte(nil), pristine[i]...)
	}
	h := &stormHarness{sw: sw, inject: inP.Inject}
	h.lats = make([]int64, 0, b.N+stormWarmup)

	// Receiver: drain the egress port, recover each frame's slot from
	// its TCP sequence number and record its flight time.
	recvStop := make(chan struct{})
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		for {
			d, ok := outP.Drain()
			if !ok {
				select {
				case <-recvStop:
					return
				default:
					runtime.Gosched()
					continue
				}
			}
			var ip pkt.IPv4
			if ip.Decode(d[pkt.EthernetLen:]) == nil {
				var tcp pkt.TCP
				if tcp.Decode(d[pkt.EthernetLen+int(ip.IHL)*4:]) == nil {
					slot := int(tcp.Seq) % stormRing
					if t0 := h.times[slot].Load(); t0 != 0 {
						h.lats = append(h.lats, time.Now().UnixNano()-t0)
					}
				}
			}
			h.received.Add(1)
		}
	}()
	// Sweeper: keep any stray egress (punt path, other ports) drained
	// and accounted so the closed loop cannot wedge.
	go func() {
		for {
			select {
			case <-recvStop:
				return
			default:
			}
			for i := 0; i < sw.Ports().Len(); i++ {
				if i == outPort {
					continue
				}
				if p, err := sw.Ports().Port(i); err == nil {
					if _, ok := p.Drain(); ok {
						h.received.Add(1)
					}
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Untimed steady-state phase: no storm; its p99 is the baseline the
	// storm p99 is compared against.
	h.runPhase(b, frames, pristine, stormWarmup, false)
	steadyP99 := latP99(h.lats)
	h.lats = h.lats[:0]

	stallBefore := sw.Pipeline().StallTime()
	injectedBefore := h.injected.Load()
	receivedBefore := h.received.Load()
	b.ReportAllocs()
	b.ResetTimer()
	h.runPhase(b, frames, pristine, b.N, true)
	b.StopTimer()
	close(recvStop)
	<-recvDone

	// At quiescence every injected frame was either received at a port
	// or hit a drop verdict, so this difference is the true drop count.
	drops := float64(h.injected.Load() - injectedBefore - (h.received.Load() - receivedBefore))
	applies := float64(h.commits.Load())
	if applies == 0 && b.N >= editEvery {
		b.Errorf("storm committed no edits over %d frames", b.N)
	}
	stormP99 := latP99(h.lats)
	b.ReportMetric(drops, "drops")
	b.ReportMetric(applies, "applies")
	b.ReportMetric(stormP99/1e3, "p99_us")
	b.ReportMetric(steadyP99/1e3, "steady_p99_us")
	if steadyP99 > 0 {
		b.ReportMetric(stormP99/steadyP99, "p99_x")
	}
	b.ReportMetric(float64(sw.Pipeline().StallTime()-stallBefore)/1e3, "stall_us")
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pps")
}
