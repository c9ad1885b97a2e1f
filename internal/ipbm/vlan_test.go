package ipbm

import (
	"testing"

	"ipsa/internal/pkt"
	"ipsa/internal/testbed"
)

// TestInsituVLAN adds 802.1Q support to a running switch: the VLAN header
// is linked into the *first* header's implicit parser (a different
// insertion point than SRv6's mid-stack linkage), tagged frames map their
// VLAN ID to a bridge domain, unknown VLANs drop, untagged traffic is
// unaffected.
func TestInsituVLAN(t *testing.T) {
	sw, w := newBaseSwitch(t)
	rep := testbed.Update(t, w, "vlan.script")
	if _, err := sw.ApplyConfig(rep.Config); err != nil {
		t.Fatal(err)
	}
	if !rep.HeaderLinksChanged {
		t.Error("ethernet parser extension not reported")
	}
	// ethernet now transitions to vlan on 0x8100.
	eth := rep.Config.HeaderByName("ethernet")
	vlan := rep.Config.HeaderByName("vlan")
	if vlan == nil {
		t.Fatal("vlan header missing")
	}
	found := false
	for _, tr := range eth.Transitions {
		if tr.Tag == 0x8100 && tr.Next == vlan.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("ethernet transitions: %+v", eth.Transitions)
	}

	// The VLAN maps to the routed bridge/VRF.
	insert(t, sw, testbed.VLANBind())

	tagged := func(vid uint16, dst [4]byte) []byte {
		raw, err := pkt.Serialize(
			&pkt.Ethernet{Dst: testbed.RouterMAC, Src: testbed.HostMAC, EtherType: pkt.EtherTypeVLAN},
			&pkt.VLAN{VID: vid, EtherType: pkt.EtherTypeIPv4},
			&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoTCP, Src: [4]byte{10, 0, 0, 1}, Dst: dst},
			&pkt.TCP{SrcPort: 1, DstPort: 2},
		)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}

	// Tagged frame in a known VLAN routes normally (TTL decremented,
	// egress port resolved).
	p, err := sw.ProcessPacket(tagged(testbed.VID, [4]byte{10, 0, 0, 2}), testbed.InPort)
	if err != nil {
		t.Fatal(err)
	}
	if p.Drop || p.OutPort != testbed.OutPort {
		t.Fatalf("vlan %d: drop=%v out=%d", testbed.VID, p.Drop, p.OutPort)
	}
	// The IPv4 header sits after the tag; TTL was still rewritten.
	var ip pkt.IPv4
	if err := ip.Decode(p.Data[pkt.EthernetLen+pkt.VLANTagLen:]); err != nil {
		t.Fatal(err)
	}
	if ip.TTL != 63 {
		t.Errorf("ttl = %d", ip.TTL)
	}
	// Unknown VLAN drops.
	p2, err := sw.ProcessPacket(tagged(999, [4]byte{10, 0, 0, 2}), testbed.InPort)
	if err != nil {
		t.Fatal(err)
	}
	if !p2.Drop {
		t.Error("unknown vlan forwarded")
	}
	// Untagged traffic is untouched by the update.
	p3, err := sw.ProcessPacket(v4Packet(t, [4]byte{10, 0, 0, 2}, testbed.RouterMAC, 64), testbed.InPort)
	if err != nil {
		t.Fatal(err)
	}
	if p3.Drop || p3.OutPort != testbed.OutPort {
		t.Fatalf("untagged: drop=%v out=%d", p3.Drop, p3.OutPort)
	}
	if sw.Faults().BadTemplate.Load() != 0 {
		t.Errorf("faults: %d", sw.Faults().BadTemplate.Load())
	}
}
