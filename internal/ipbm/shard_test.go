package ipbm

import (
	"sync/atomic"
	"testing"
	"time"

	"ipsa/internal/pipeline"
	"ipsa/internal/pkt"
	"ipsa/internal/testbed"
	"ipsa/internal/verdict"
)

// flowPacket builds a routable v4/TCP frame whose flow identity is the
// TCP source port and whose per-flow sequence number rides in the TCP
// sequence field — both untouched by the L3 rewrite, so egress frames
// still carry them for ordering checks.
func flowPacket(t testing.TB, flow uint16, seq uint32) []byte {
	t.Helper()
	raw, err := pkt.Serialize(
		&pkt.Ethernet{Dst: testbed.RouterMAC, Src: testbed.HostMAC, EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoTCP, Src: [4]byte{10, 0, 0, 1}, Dst: [4]byte{10, 1, 0, 1}},
		&pkt.TCP{SrcPort: flow, DstPort: 80, Seq: seq},
	)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestShardedModeForwards runs the sharded mode end to end: packets
// injected at the ingress port are steered by flow hash across shard
// workers and emerge, rewritten, at the egress port.
func TestShardedModeForwards(t *testing.T) {
	sw, _ := newBaseSwitch(t)
	if err := sw.RunSharded(2, 4); err != nil {
		t.Fatal(err)
	}
	defer sw.Shutdown()
	if nsh, nb := sw.Sharded(); nsh != 2 || nb != 4 {
		t.Fatalf("Sharded() = %d,%d", nsh, nb)
	}
	in, err := sw.Ports().Port(testbed.InPort)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sw.Ports().Port(testbed.OutPort)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	go func() {
		for i := 0; i < n; i++ {
			for !in.Inject(v4Packet(t, [4]byte{10, 1, 0, byte(i)}, testbed.RouterMAC, 64)) {
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
			enq, drops := sw.TMStats()
			t.Fatalf("only %d/%d packets emerged (tm enq=%d drops=%d)", got, n, enq, drops)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if f := sw.Faults(); f.BadTemplate.Load() != 0 {
		t.Errorf("faults: %d", f.BadTemplate.Load())
	}
}

// TestShardedModeErrors: misconfiguration is rejected up front.
func TestShardedModeErrors(t *testing.T) {
	cfgd, _ := newBaseSwitch(t)
	if err := cfgd.RunSharded(0, 0); err == nil {
		t.Error("zero shards accepted")
	}
	if err := cfgd.RunSharded(MaxShards+1, 0); err == nil {
		t.Error("shard count above MaxShards accepted")
	}
	if err := cfgd.RunSharded(2, 4); err != nil {
		t.Fatal(err)
	}
	defer cfgd.Shutdown()
	if err := cfgd.RunSharded(2, 4); err == nil {
		t.Error("double start accepted")
	}
}

// TestShardedStartsUnconfigured: the served driver may start before the
// first configuration, as the daemon does. Frames arriving earlier end as
// parse_error admission failures, frames after ApplyConfig are forwarded,
// and every frame a port accepted has exactly one verdict.
func TestShardedStartsUnconfigured(t *testing.T) {
	sw, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.RunSharded(2, 0); err != nil {
		t.Fatalf("unconfigured start refused: %v", err)
	}
	defer sw.Shutdown()
	in, _ := sw.Ports().Port(testbed.InPort)
	out, _ := sw.Ports().Port(testbed.OutPort)
	var accepted uint64
	inject := func(n int) {
		for i := 0; i < n; i++ {
			if in.Inject(v4Packet(t, [4]byte{10, 1, 0, byte(i)}, testbed.RouterMAC, 64)) {
				accepted++
			}
		}
	}

	inject(20)
	settle(t, sw, int(accepted))
	early := accepted
	if early == 0 {
		t.Fatal("no frame accepted before the configuration")
	}
	if got := sw.tel.packets[verdict.ParseError].Value(); got != early {
		t.Fatalf("%d frames before ApplyConfig, %d parse_error verdicts", early, got)
	}
	if got := sw.tel.drops[verdict.ReasonParse].Value(); got != early {
		t.Fatalf("%d frames before ApplyConfig, %d parser drops", early, got)
	}

	if _, err := sw.ApplyConfig(testbed.Workspace(t).Current().Config); err != nil {
		t.Fatal(err)
	}
	testbed.Populate(t, sw, nil, testbed.Base())
	inject(20)
	settle(t, sw, int(accepted))
	late := accepted - early
	if got := sw.tel.packets[verdict.Forwarded].Value(); got != late {
		t.Fatalf("%d frames after ApplyConfig, %d forwarded", late, got)
	}
	if got := sw.tel.packets[verdict.ParseError].Value(); got != early {
		t.Fatalf("parse_error verdicts moved to %d after ApplyConfig", got)
	}
	drained := uint64(0)
	for {
		if _, ok := out.Drain(); !ok {
			break
		}
		drained++
	}
	if drained != late {
		t.Fatalf("%d frames forwarded, %d left the egress port", late, drained)
	}
	if total := sw.packetsTotal(); total != accepted {
		t.Fatalf("ports accepted %d frames, %d verdicts", accepted, total)
	}
}

// TestShardedFlowOrdering pins the tentpole's correctness invariant:
// same-flow packets are never reordered. Interleaved flows carry per-flow
// sequence numbers; whatever interleaving the shards produce at egress,
// each flow's sequence must emerge strictly increasing.
func TestShardedFlowOrdering(t *testing.T) {
	sw, _ := newBaseSwitch(t)
	if err := sw.RunSharded(4, 4); err != nil {
		t.Fatal(err)
	}
	defer sw.Shutdown()
	in, _ := sw.Ports().Port(testbed.InPort)
	out, _ := sw.Ports().Port(testbed.OutPort)

	const flows, perFlow = 8, 40
	go func() {
		// Round-robin across flows so consecutive frames of one flow are
		// maximally separated — the hardest interleaving for affinity.
		for seq := uint32(1); seq <= perFlow; seq++ {
			for f := 0; f < flows; f++ {
				frame := flowPacket(t, uint16(5000+f), seq)
				for !in.Inject(frame) {
					time.Sleep(time.Millisecond)
				}
			}
		}
	}()

	lastSeq := map[uint16]uint32{}
	got := 0
	deadline := time.After(10 * time.Second)
	for got < flows*perFlow {
		d, ok := out.Drain()
		if !ok {
			select {
			case <-deadline:
				t.Fatalf("only %d/%d packets emerged", got, flows*perFlow)
			default:
				time.Sleep(time.Millisecond)
			}
			continue
		}
		var ip pkt.IPv4
		if err := ip.Decode(d[pkt.EthernetLen:]); err != nil {
			t.Fatal(err)
		}
		var tcp pkt.TCP
		if err := tcp.Decode(d[pkt.EthernetLen+int(ip.IHL)*4:]); err != nil {
			t.Fatal(err)
		}
		if last := lastSeq[tcp.SrcPort]; tcp.Seq <= last {
			t.Fatalf("flow %d reordered: seq %d after %d", tcp.SrcPort, tcp.Seq, last)
		}
		lastSeq[tcp.SrcPort] = tcp.Seq
		got++
	}
	for f := 0; f < flows; f++ {
		if lastSeq[uint16(5000+f)] != perFlow {
			t.Errorf("flow %d ended at seq %d, want %d", 5000+f, lastSeq[uint16(5000+f)], perFlow)
		}
	}
}

// TestShardedReconfigConservation soaks the sharded mode under the two
// in-situ reconfiguration paths — INT toggles and a pipeline patch —
// while traffic flows, then checks verdict conservation: every accepted
// packet has exactly one verdict in the ledger and the ports and TMs
// agree with it, with nothing lost across the reconfigurations.
// `make race` runs this under the race detector.
func TestShardedReconfigConservation(t *testing.T) {
	sw, w := newBaseSwitchOpts(t, func(opts *Options) {
		opts.QueueDepth = 16
	})
	if err := sw.RunSharded(3, 4); err != nil {
		t.Fatal(err)
	}
	defer sw.Shutdown()

	in, _ := sw.Ports().Port(testbed.InPort)
	out, _ := sw.Ports().Port(testbed.OutPort)
	// Keep the egress rx ring from filling (its tail drops are still
	// accounted, this just keeps the common case flowing).
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				if _, ok := out.Drain(); !ok {
					time.Sleep(100 * time.Microsecond)
				}
			}
		}
	}()
	defer close(done)

	// Reconfigure while the burst is in flight: INT on/off round trips,
	// then an in-situ ECMP patch with its selector members.
	reconfigured := make(chan error, 1)
	var injected atomic.Uint64
	go func() {
		reconfigured <- func() error {
			for i := 0; i < 3; i++ {
				for injected.Load() < uint64(50*(i+1)) {
					time.Sleep(time.Millisecond)
				}
				if err := sw.SetInt(true); err != nil {
					return err
				}
				if err := sw.SetInt(false); err != nil {
					return err
				}
			}
			rep, err := testbed.Repo().Update(w, "ecmp.script")
			if err != nil {
				return err
			}
			if _, err := sw.ApplyConfig(rep.Config); err != nil {
				return err
			}
			_, err = sw.InsertEntry(testbed.ECMPMember(testbed.NhMAC.Uint64()))
			return err
		}()
	}()

	accepted := uint64(0)
	for i := 0; i < 600; i++ {
		dst := [4]byte{10, 1, byte(i >> 4), byte(i)}
		if i%5 == 4 {
			dst = [4]byte{192, 168, 0, byte(i)} // no route installed
		}
		if in.Inject(v4Packet(t, dst, testbed.RouterMAC, 64)) {
			accepted++
		}
		injected.Add(1)
	}
	if err := <-reconfigured; err != nil {
		t.Fatalf("reconfiguration failed mid-stream: %v", err)
	}

	if accepted == 0 {
		t.Fatal("nothing accepted")
	}
	waitLedger(t, sw, accepted)
}

// TestShardedSteadyStateAllocs pins the sharded hot path's allocation
// contract: one frame through a shard lane's turn — admit → ingress →
// shard TM → egress → batched transmit — performs zero heap allocations
// once the lane's freelist and transmit queues are warm. Measured on a
// directly-driven lane so the number is deterministic (no goroutine
// scheduling in the loop).
func TestShardedSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on the measured path")
	}
	sw, _ := newBaseSwitch(t)
	sh := sw.newLane(1, pipeline.NewTrafficManager(sw.Ports().Len(), 64), 32)
	raw := v4Packet(t, [4]byte{10, 0, 0, 2}, testbed.RouterMAC, 64)
	data := make([]byte, len(raw))
	out, _ := sw.Ports().Port(testbed.OutPort)
	fwd := func() {
		copy(data, raw) // egress rewrites headers in place; reset each run
		sh.frames = append(sh.frames, laneFrame{data: data, port: testbed.InPort})
		if sent, err := sh.turn(); sent != 1 || err != nil {
			t.Fatalf("turn: sent=%d err=%v", sent, err)
		}
		out.Drain() // keep the tx ring empty so XmitBatch never tail-drops
	}
	for i := 0; i < 64; i++ {
		fwd() // warm the freelist, env and txq storage
	}
	if avg := testing.AllocsPerRun(200, fwd); avg != 0 {
		t.Errorf("sharded hot path allocates: %.2f allocs/op", avg)
	}
}

// TestShardedShutdownDrains: frames already steered to a shard are still
// processed when Shutdown races the ingest, and Shutdown returns (no
// worker deadlocks on a closed input).
func TestShardedShutdownDrains(t *testing.T) {
	sw, _ := newBaseSwitch(t)
	if err := sw.RunSharded(2, 8); err != nil {
		t.Fatal(err)
	}
	in, _ := sw.Ports().Port(testbed.InPort)
	for i := 0; i < 50; i++ {
		in.Inject(v4Packet(t, [4]byte{10, 1, 0, byte(i)}, testbed.RouterMAC, 64))
	}
	finished := make(chan struct{})
	go func() {
		sw.Shutdown()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown hung with frames in flight")
	}
}

// TestShardedEgressPause: an egress peer that stops draining for longer
// than QueueDepth frames take to arrive costs no frame the switch
// accepted. An egress ring takes everything the ingress side can hold
// (NumPorts × QueueDepth), so refusal stays at the ingress edge, where
// the sender sees it, and the peer gets every frame once it resumes.
func TestShardedEgressPause(t *testing.T) {
	const depth = 64
	sw, _ := newBaseSwitchOpts(t, func(o *Options) { o.QueueDepth = depth })
	if err := sw.RunSharded(2, 0); err != nil {
		t.Fatal(err)
	}
	defer sw.Shutdown()
	in, _ := sw.Ports().Port(testbed.InPort)
	out, _ := sw.Ports().Port(testbed.OutPort)
	const n = 4 * depth // all sent while the peer is paused
	for i := 0; i < n; i++ {
		f := flowPacket(t, uint16(i), uint32(i))
		for !in.Inject(f) {
			time.Sleep(50 * time.Microsecond)
		}
	}
	settle(t, sw, n)
	if txFail, drops := sw.tel.drops[verdict.ReasonTxFail].Value(), out.DetailedStats().TxDrops; txFail != 0 || drops != 0 {
		t.Fatalf("a paused egress peer cost %d tx_fail verdicts, %d port tx drops", txFail, drops)
	}
	got := 0
	for {
		if _, ok := out.Drain(); !ok {
			break
		}
		got++
	}
	if got != n {
		t.Fatalf("the resumed peer drained %d of %d frames", got, n)
	}
}
