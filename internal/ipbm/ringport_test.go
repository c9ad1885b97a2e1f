package ipbm

import (
	"testing"
	"time"

	"ipsa/internal/netio"
	"ipsa/internal/pkt"
	"ipsa/internal/testbed"
)

// flowsPerShard returns one flowPacket source port hashing to each of
// the two shards.
func flowsPerShard(t *testing.T) (flow [2]uint16) {
	t.Helper()
	found := [2]bool{}
	for f := uint16(5000); !(found[0] && found[1]); f++ {
		if f == 6000 {
			t.Fatal("no flow found for one of the shards")
		}
		sh := pkt.RSSHash(flowPacket(t, f, 0)) % 2
		flow[sh], found[sh] = f, true
	}
	return flow
}

// tcpIdentity decodes the flow (TCP source port) and sequence number of a
// forwarded flowPacket.
func tcpIdentity(t *testing.T, d []byte) (uint16, uint32) {
	t.Helper()
	var ip pkt.IPv4
	if err := ip.Decode(d[pkt.EthernetLen:]); err != nil {
		t.Fatal(err)
	}
	var tcp pkt.TCP
	if err := tcp.Decode(d[pkt.EthernetLen+int(ip.IHL)*4:]); err != nil {
		t.Fatal(err)
	}
	return tcp.SrcPort, tcp.Seq
}

// TestBlockedShardDoesNotStallOthers: with shard 0 frozen, frames of its
// flows fill only its own rx ring and then tail-drop at the port, while
// every shard-1 frame arriving on the same port behind them is still
// delivered (the per-port reader this replaces stalled the whole port on
// the first full shard queue). Health flags exactly the frozen lane, and
// after release every injected frame is accounted for.
func TestBlockedShardDoesNotStallOthers(t *testing.T) {
	sw, _ := newBaseSwitchOpts(t, func(opts *Options) {
		opts.HealthInterval = -1
		opts.QueueDepth = 8
	})
	defer sw.Shutdown()
	if err := sw.RunSharded(2, 4); err != nil {
		t.Fatal(err)
	}
	flow := flowsPerShard(t)
	unblock, err := sw.blockShard(0)
	if err != nil {
		t.Fatal(err)
	}
	blocked := true
	release := func() {
		if blocked {
			blocked = false
			unblock()
		}
	}
	defer release() // a failure above the release must not leave Shutdown waiting on the gate
	in, _ := sw.Ports().Port(testbed.InPort)
	out, _ := sw.Ports().Port(testbed.OutPort)

	const frames = 40
	var accepted [2]uint64
	delivered := map[uint16]uint32{} // flow -> last sequence number seen at egress
	for seq := uint32(1); seq <= frames; seq++ {
		for sh, f := range flow {
			if in.Inject(flowPacket(t, f, seq)) {
				accepted[sh]++
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for delivered[flow[1]] < seq {
			d, ok := out.Drain()
			if !ok {
				if time.Now().After(deadline) {
					t.Fatalf("shard-1 frame %d never left the switch while shard 0 was blocked", seq)
				}
				time.Sleep(50 * time.Microsecond)
				continue
			}
			f, s := tcpIdentity(t, d)
			if f != flow[1] || s != delivered[f]+1 {
				t.Fatalf("egress saw flow %d seq %d after seq %d with shard 0 blocked", f, s, delivered[f])
			}
			delivered[f] = s
		}
	}
	if accepted[1] != frames {
		t.Fatalf("port refused %d shard-1 frames behind a blocked shard 0", frames-accepted[1])
	}
	if accepted[0] != 8 {
		t.Fatalf("shard 0's ring accepted %d frames, want its depth 8", accepted[0])
	}
	if st := in.DetailedStats(); st.RxDrops != frames-8 {
		t.Fatalf("port rx_drops = %d, want %d", st.RxDrops, frames-8)
	}

	now := time.Now().UnixNano()
	for i := 0; i < 5; i++ { // prime + StallRounds(3) frozen checks
		now += int64(time.Second)
		sw.Health().Check(now)
	}
	for _, l := range sw.health.Status(0).Lanes {
		if stalled := l.State == "stalled"; stalled != (l.Name == "shard-0") {
			t.Errorf("lane %s is %q with shard 0 blocked and shard 1 forwarding", l.Name, l.State)
		}
	}

	release()
	deadline := time.Now().Add(5 * time.Second)
	for delivered[flow[0]] < uint32(accepted[0]) {
		d, ok := out.Drain()
		if !ok {
			if time.Now().After(deadline) {
				t.Fatalf("only %d of shard 0's %d queued frames emerged after release", delivered[flow[0]], accepted[0])
			}
			time.Sleep(50 * time.Microsecond)
			continue
		}
		f, s := tcpIdentity(t, d)
		if f != flow[0] || s != delivered[f]+1 {
			t.Fatalf("after release: flow %d seq %d after seq %d", f, s, delivered[f])
		}
		delivered[f] = s
	}
	// Conservation: injected == transmitted + attributed drops + port rx
	// drops. Nothing was dropped inside the switch here, so the middle
	// term must be zero and every verdict a transmit.
	st := in.DetailedStats()
	sent := out.DetailedStats().Sent
	if drops := sw.dropsTotal(); 2*frames != sent+drops+st.RxDrops || drops != 0 || sw.packetsTotal() != sent {
		t.Fatalf("conservation: injected %d != sent %d + drops %d + rx_drops %d (verdicts %d)",
			2*frames, sent, drops, st.RxDrops, sw.packetsTotal())
	}
	if st.Received != accepted[0]+accepted[1] {
		t.Fatalf("port received counter %d, accepted %d", st.Received, accepted[0]+accepted[1])
	}
}

// TestRunShardedKeepsQueuedFrames: frames already queued on a port when
// RunSharded splits it are forwarded with the ones that follow, each flow
// in order; frames still in the rings when Shutdown closes the ports are
// processed to a verdict before the workers exit.
func TestRunShardedKeepsQueuedFrames(t *testing.T) {
	sw, _ := newBaseSwitch(t)
	in, _ := sw.Ports().Port(testbed.InPort)
	out, _ := sw.Ports().Port(testbed.OutPort)
	const flows, perFlow = 6, 20
	inject := func(from, to uint32) {
		for seq := from; seq <= to; seq++ {
			for f := uint16(0); f < flows; f++ {
				if !in.Inject(flowPacket(t, 5000+f, seq)) {
					t.Fatal("inject refused below the queue depth")
				}
			}
		}
	}
	inject(1, perFlow/2) // queued on the single-queue port: nothing polls it yet
	if err := sw.RunSharded(3, 4); err != nil {
		t.Fatal(err)
	}
	inject(perFlow/2+1, perFlow)

	last := map[uint16]uint32{}
	deadline := time.Now().Add(5 * time.Second)
	for got := 0; got < flows*perFlow; {
		d, ok := out.Drain()
		if !ok {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d frames emerged (lost at the mode switch)", got, flows*perFlow)
			}
			time.Sleep(50 * time.Microsecond)
			continue
		}
		f, s := tcpIdentity(t, d)
		if s != last[f]+1 {
			t.Fatalf("flow %d: seq %d after %d (lost or reordered at the mode switch)", f, s, last[f])
		}
		last[f] = s
		got++
	}
	if st := in.DetailedStats(); st.Received != flows*perFlow || st.RxDrops != 0 {
		t.Fatalf("ingress port received=%d rx_drops=%d want %d/0", st.Received, st.RxDrops, flows*perFlow)
	}

	inject(perFlow+1, perFlow+5)
	sw.Shutdown() // returns once the workers have emptied their rings
	if got, want := sw.packetsTotal(), uint64(flows*(perFlow+5)); got != want {
		t.Fatalf("%d of %d accepted frames reached a verdict across Shutdown", got, want)
	}
}

// TestCollectRotatesPorts: with two ingress ports kept saturated, a
// worker's collections alternate between them instead of filling every
// batch from the first.
func TestCollectRotatesPorts(t *testing.T) {
	const batch, ports = 4, 3
	wake := []chan struct{}{make(chan struct{}, 1)}
	sh := &lane{rxbuf: make([]netio.Frame, batch), frames: make([]laneFrame, 0, batch)}
	var set []*netio.ChanPort
	for i := 0; i < ports; i++ {
		p := netio.NewChanPort(64)
		set = append(set, p)
		sh.rings = append(sh.rings, p.SplitRx(wake, 64)[0])
	}
	for _, p := range set[:2] { // port 2 stays idle
		for p.Inject([]byte{0}) {
		}
	}
	var taken [ports]int
	for i := 0; i < 10; i++ {
		if n := sh.collect(batch); n != batch {
			t.Fatalf("collection %d took %d frames from saturated ports", i, n)
		}
		for _, f := range sh.frames {
			taken[f.port]++
			set[f.port].Inject(f.data) // keep the port saturated
		}
		sh.frames = sh.frames[:0]
	}
	if taken[0] != 5*batch || taken[1] != 5*batch {
		t.Fatalf("frames taken per port = %v, want both saturated ports served equally", taken)
	}
}
