package ipbm

import (
	"testing"
	"time"

	"ipsa/internal/pkt"
)

// TestPipelinedModeForwards runs the asynchronous mode end to end:
// packets injected at the ingress port emerge, rewritten, at the egress
// port via the TM and the egress workers.
func TestPipelinedModeForwards(t *testing.T) {
	sw, _ := newBaseSwitch(t)
	if err := sw.RunPipelined(2); err != nil {
		t.Fatal(err)
	}
	defer sw.Shutdown()
	in, err := sw.Ports().Port(inPort)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sw.Ports().Port(outPort)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	go func() {
		for i := 0; i < n; i++ {
			for !in.Inject(v4Packet(t, [4]byte{10, 1, 0, byte(i)}, routerMAC, 64)) {
				time.Sleep(time.Millisecond)
			}
		}
	}()
	got := 0
	deadline := time.After(5 * time.Second)
	for got < n {
		if d, ok := out.Drain(); ok {
			var ip pkt.IPv4
			if err := ip.Decode(d[pkt.EthernetLen:]); err != nil {
				t.Fatal(err)
			}
			if ip.TTL != 63 {
				t.Fatalf("ttl = %d", ip.TTL)
			}
			got++
			continue
		}
		select {
		case <-deadline:
			enq, drops := sw.Pipeline().TM().Stats()
			t.Fatalf("only %d/%d packets emerged (tm enq=%d drops=%d)", got, n, enq, drops)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if f := sw.Faults(); f.BadTemplate.Load() != 0 {
		t.Errorf("faults: %d", f.BadTemplate.Load())
	}
}

// TestPipelinedModeErrors: misconfiguration is rejected up front.
func TestPipelinedModeErrors(t *testing.T) {
	sw, _ := New(DefaultOptions())
	if err := sw.RunPipelined(1); err == nil {
		t.Error("unconfigured pipelined run accepted")
	}
	cfgd, _ := newBaseSwitch(t)
	if err := cfgd.RunPipelined(0); err == nil {
		t.Error("zero workers accepted")
	}
}

// TestTMTailDropUnderBurst: with no egress workers draining, a burst
// beyond the queue depth is tail-dropped by policy, and the buffered
// packets still come out once draining starts.
func TestTMTailDropUnderBurst(t *testing.T) {
	opts := DefaultOptions()
	opts.QueueDepth = 4
	sw, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	w := newBaseWorkspace(t)
	if _, err := sw.ApplyConfig(w.Current().Config); err != nil {
		t.Fatal(err)
	}
	populateBase(t, sw)
	// Burst 10 packets through a lane's admit and ingress steps only,
	// parking the survivors in the shared TM as a pipelined ingress lane
	// does.
	in := sw.newLane(0, sw.Pipeline().TM(), crossShared, 16)
	for i := 0; i < 10; i++ {
		in.frames = append(in.frames, laneFrame{data: v4Packet(t, [4]byte{10, 0, 0, 2}, routerMAC, 64), port: inPort})
	}
	if sent, err := in.turn(); err != nil || sent != 0 {
		t.Fatalf("ingress turn: sent=%d err=%v", sent, err)
	}
	enq, drops := sw.Pipeline().TM().Stats()
	if enq != 4 || drops != 6 {
		t.Fatalf("tm stats: enq=%d drops=%d, want 4/6", enq, drops)
	}
	// Drain through an egress lane's steps: exactly the buffered 4 emerge.
	out, _ := sw.Ports().Port(outPort)
	eg := sw.newLane(0, sw.Pipeline().TM(), crossShared, 16)
	for eg.drain(0) > 0 {
		eg.egress(eg.ps[0].Ver.(*progVersion), eg.ps)
		eg.ps = eg.ps[:0]
		eg.flushTx()
	}
	if _, retired, _ := sw.EpochStats(); retired != 0 || sw.epochs.current().inFlight.Load() != 0 {
		t.Fatalf("pins left after the drain: retired=%d in_flight=%d", retired, sw.epochs.current().inFlight.Load())
	}
	gotten := 0
	for {
		if _, ok := out.Drain(); !ok {
			break
		}
		gotten++
	}
	if gotten != 4 {
		t.Fatalf("drained %d packets, want 4", gotten)
	}
}

// TestDequeueRRFairness: two queues drain alternately.
func TestDequeueRRFairness(t *testing.T) {
	sw, _ := newBaseSwitch(t)
	tm := sw.Pipeline().TM()
	mk := func(port int) *pkt.Packet {
		p := pkt.NewPacket(nil, 0)
		p.OutPort = port
		return p
	}
	for i := 0; i < 3; i++ {
		if !tm.Admit(mk(1)) || !tm.Admit(mk(2)) {
			t.Fatal("admit failed")
		}
	}
	var order []int
	for {
		p, ok := tm.DequeueRR()
		if !ok {
			break
		}
		order = append(order, p.OutPort)
	}
	if len(order) != 6 {
		t.Fatalf("drained %d", len(order))
	}
	// Alternation: no port appears twice in a row while both are backlogged.
	for i := 1; i < 4; i++ {
		if order[i] == order[i-1] {
			t.Fatalf("unfair order: %v", order)
		}
	}
}
