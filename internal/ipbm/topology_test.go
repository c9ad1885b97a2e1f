package ipbm

import (
	"testing"
	"time"

	"ipsa/internal/ctrlplane"
	"ipsa/internal/netio"
	"ipsa/internal/pkt"
	"ipsa/internal/testbed"
)

// TestTwoSwitchTopology wires two ipbm instances back to back and routes a
// packet through both: host -> A(port1) -> A(port3) ~wire~ B(port1) ->
// B(port3). Exercises the CM path (served lanes), the full pipeline of
// both devices and TTL decrement at each hop.
func TestTwoSwitchTopology(t *testing.T) {
	macA := pkt.MAC{0x02, 0, 0, 0, 0xAA, 0x01} // router MAC of A
	macB := pkt.MAC{0x02, 0, 0, 0, 0xBB, 0x01} // router MAC of B (A's nexthop)
	macHost2 := pkt.MAC{0x02, 0, 0, 0, 0xBB, 0xFF}

	build := func(router, nexthopMAC pkt.MAC) *Switch {
		sw, w := newBaseSwitch(t)
		_ = w
		// Reconfigure routing identity per switch: overwrite the default
		// population with this router's own MAC and nexthop.
		insert(t, sw, ctrlplane.EntryReq{
			Table: "l2_l3_tbl",
			Keys:  []ctrlplane.FieldValue{{Value: testbed.BridgeIn}, {Value: router.Uint64()}},
			Tag:   1,
		})
		insert(t, sw, ctrlplane.EntryReq{
			Table: "nexthop_tbl", Keys: []ctrlplane.FieldValue{{Value: 42}},
			Tag: 1, Params: []uint64{testbed.BridgeOut, nexthopMAC.Uint64()},
		})
		insert(t, sw, ctrlplane.EntryReq{
			Table:     "ipv4_lpm",
			Keys:      []ctrlplane.FieldValue{{Value: 0x14000000}}, // 20.0.0.0/8
			PrefixLen: 8, Tag: 1, Params: []uint64{42},
		})
		insert(t, sw, ctrlplane.EntryReq{
			Table: "dmac_tbl",
			Keys:  []ctrlplane.FieldValue{{Value: testbed.BridgeOut}, {Value: nexthopMAC.Uint64()}},
			Tag:   1, Params: []uint64{testbed.OutPort},
		})
		return sw
	}
	swA := build(macA, macB)
	swB := build(macB, macHost2)

	// Wire A's port 3 to B's port 1.
	pa, err := swA.Ports().Port(testbed.OutPort)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := swB.Ports().Port(testbed.InPort)
	if err != nil {
		t.Fatal(err)
	}
	netio.Wire(pa, pb)
	for _, sw := range []*Switch{swA, swB} {
		if err := sw.RunSharded(1, 0); err != nil {
			t.Fatal(err)
		}
		defer sw.Shutdown()
	}

	// Inject at A's port 1 a packet for 20.1.2.3 addressed to A's MAC.
	raw, err := pkt.Serialize(
		&pkt.Ethernet{Dst: macA, Src: testbed.HostMAC, EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoTCP, Src: [4]byte{10, 0, 0, 1}, Dst: [4]byte{20, 1, 2, 3}},
		&pkt.TCP{SrcPort: 5, DstPort: 6},
	)
	if err != nil {
		t.Fatal(err)
	}
	ingress, err := swA.Ports().Port(testbed.InPort)
	if err != nil {
		t.Fatal(err)
	}
	if !ingress.Inject(raw) {
		t.Fatal("inject failed")
	}

	// The frame must emerge at B's port 3 with TTL 62 and dmac = host2.
	egress, err := swB.Ports().Port(testbed.OutPort)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(2 * time.Second)
	var out []byte
	for out == nil {
		select {
		case <-deadline:
			t.Fatal("packet never crossed the two-switch topology")
		default:
		}
		if d, ok := egress.Drain(); ok {
			out = d
		} else {
			time.Sleep(time.Millisecond)
		}
	}
	var eth pkt.Ethernet
	var ip pkt.IPv4
	if err := eth.Decode(out); err != nil {
		t.Fatal(err)
	}
	if err := ip.Decode(out[pkt.EthernetLen:]); err != nil {
		t.Fatal(err)
	}
	if eth.Dst != macHost2 {
		t.Errorf("final dmac = %v, want %v", eth.Dst, macHost2)
	}
	if ip.TTL != 62 {
		t.Errorf("ttl = %d, want 62 (two hops)", ip.TTL)
	}
	if ip.Dst != [4]byte{20, 1, 2, 3} {
		t.Errorf("dst = %v", ip.Dst)
	}
}

// TestUDPPortCarriesFrames pushes a frame between two switch-port
// endpoints over real UDP sockets.
func TestUDPPortCarriesFrames(t *testing.T) {
	a, b, err := netio.PairUDP()
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	frame := v4Packet(t, [4]byte{10, 0, 0, 2}, testbed.RouterMAC, 64)
	if !a.Send(frame) {
		t.Fatal("send failed")
	}
	got, ok := b.Recv()
	if !ok {
		t.Fatal("recv failed")
	}
	if len(got) != len(frame) {
		t.Fatalf("len %d != %d", len(got), len(frame))
	}
	// And the frame is still a valid packet for a switch.
	sw, _ := newBaseSwitch(t)
	p, err := sw.ProcessPacket(got, testbed.InPort)
	if err != nil || p.Drop {
		t.Fatalf("frame unusable after UDP transit: err=%v drop=%v", err, p.Drop)
	}
	sent, _, _ := a.Stats()
	_, recvd, _ := b.Stats()
	if sent != 1 || recvd != 1 {
		t.Errorf("stats: %d/%d", sent, recvd)
	}
	b.Close()
	if b.Send(frame) {
		t.Error("send on closed port succeeded")
	}
}
