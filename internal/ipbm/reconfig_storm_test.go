package ipbm

// reconfig_storm_test.go holds forwarding *during* a reconfiguration
// storm to the hitless contract behind the hitless reconfiguration table
// in EXPERIMENTS.md: a closed-loop injector pushes flow traffic through
// the sharded runner while a storm goroutine commits one edit script
// every editEvery frames (pacing by frames makes the commit count
// host-speed independent), and at quiescence every frame must have left
// the switch with the pipeline never stalled. bench/'s reconfig_storm
// workload measures the same path's latency and update times.

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ipsa/internal/ctrlplane"
	"ipsa/internal/testbed"
	"ipsa/internal/verdict"
)

const (
	// stormRing is the number of frame buffers the injector cycles: a
	// slot is reused only after stormRing further injections, far beyond
	// the in-flight window, so the switch is done with it by then.
	stormRing = 4096
	// stormWindow bounds frames in flight (closed loop): small enough
	// that the switch's queues never overflow from harness pressure
	// alone, large enough to keep every shard busy.
	stormWindow = 64
	// editEvery frames, one edit-script commit. At software-switch rates
	// this is hundreds of commits per second — well past the 100/s storm
	// the experiment calls for.
	editEvery = 2000
)

// stormHarness drives closed-loop phases over a fixed frame ring and
// accounts for every frame: emerged at a port, or dropped in-switch.
type stormHarness struct {
	sw       *Switch
	inject   func([]byte) bool
	received atomic.Uint64
	injected atomic.Uint64
	commits  atomic.Uint64
}

// inSwitchDrops sums the verdict counters that account for a frame
// without it emerging at a port.
func (h *stormHarness) inSwitchDrops() uint64 {
	vs := h.sw.Telemetry().VerdictSnapshot()
	return vs[verdict.Dropped] + vs[verdict.TMDrop] + vs[verdict.NoPort]
}

// runStorm injects nFrames in a closed loop, committing one scratch edit
// per editEvery frames, and waits until every frame is accounted (emerged
// or dropped in-switch).
func (h *stormHarness) runStorm(t *testing.T, frames, pristine [][]byte, nFrames int) {
	t.Helper()
	stop := make(chan struct{})
	stormDone := make(chan struct{})
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
			if _, err := h.sw.Edit([]ctrlplane.EditOp{op}); err != nil {
				t.Error(err)
				return
			}
			h.commits.Add(1)
			n++
		}
	}()
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
		for !h.inject(buf) {
			runtime.Gosched()
		}
		h.injected.Add(1)
	}
	deadline := time.Now().Add(60 * time.Second)
	for completed() < uint64(nFrames) {
		if time.Now().After(deadline) {
			t.Fatalf("storm never quiesced: %d/%d frames accounted", completed(), nFrames)
		}
		runtime.Gosched()
	}
	close(stop)
	<-stormDone
}

// TestReconfigStormHitless: a sharded switch forwarding through a
// continuous edit-script storm on the epoch-versioned store drops no
// frame and never stalls the pipeline.
func TestReconfigStormHitless(t *testing.T) {
	nFrames := 50000
	if testing.Short() {
		nFrames = 5000
	}
	sw, _ := newBaseSwitch(t)
	if err := sw.RunSharded(2, DefaultBatch); err != nil {
		t.Fatal(err)
	}
	defer sw.Shutdown()
	inP, err := sw.Ports().Port(testbed.InPort)
	if err != nil {
		t.Fatal(err)
	}

	// One working buffer and one pristine twin per ring slot; the flow
	// hash rides the TCP source port.
	frames := make([][]byte, stormRing)
	pristine := make([][]byte, stormRing)
	for i := range frames {
		pristine[i] = flowPacket(t, uint16(i%64), uint32(i))
		frames[i] = append([]byte(nil), pristine[i]...)
	}
	h := &stormHarness{sw: sw, inject: inP.Inject}

	// Drain every egress port, so the closed loop cannot wedge on stray
	// egress (punt path, other ports) either.
	drainStop := make(chan struct{})
	drainDone := make(chan struct{})
	go func() {
		defer close(drainDone)
		for {
			idle := true
			for i := 0; i < sw.Ports().Len(); i++ {
				if p, err := sw.Ports().Port(i); err == nil {
					if _, ok := p.Drain(); ok {
						h.received.Add(1)
						idle = false
					}
				}
			}
			if idle {
				select {
				case <-drainStop:
					return
				default:
					runtime.Gosched()
				}
			}
		}
	}()

	stallBefore := sw.Pipeline().StallTime()
	h.runStorm(t, frames, pristine, nFrames)
	close(drainStop)
	<-drainDone

	// At quiescence every injected frame was either received at a port
	// or hit a drop verdict, so this difference is the true drop count.
	if drops := h.injected.Load() - h.received.Load(); drops != 0 {
		t.Errorf("%d of %d frames dropped during the storm", drops, nFrames)
	}
	if stall := sw.Pipeline().StallTime() - stallBefore; stall != 0 {
		t.Errorf("pipeline stalled %v during the storm", stall)
	}
	if h.commits.Load() == 0 {
		t.Errorf("storm committed no edits over %d frames", nFrames)
	}
}
