package ipbm

import (
	"testing"

	"ipsa/internal/ctrlplane"
	"ipsa/internal/pkt"
	"ipsa/internal/testbed"
)

// TestInsituACLClosesProbeLoop plays the paper's full C3 story: the probe
// detects a heavy flow and punts to the controller, which reacts by
// loading an ACL function at runtime and dropping the offender — two
// chained in-situ updates on one running switch.
func TestInsituACLClosesProbeLoop(t *testing.T) {
	sw, w := newBaseSwitch(t)

	// Update 1: the probe (use case C3).
	rep := testbed.Update(t, w, "flowprobe.script")
	if _, err := sw.ApplyConfig(rep.Config); err != nil {
		t.Fatal(err)
	}
	insert(t, sw, ctrlplane.EntryReq{
		Table: "flow_probe",
		Keys:  []ctrlplane.FieldValue{{Value: 0x0A000001}, {Value: 0x0A000002}},
		Tag:   1, Params: []uint64{7, 2},
	})
	var punted *pkt.Packet
	for i := 0; i < 4; i++ {
		if _, err := sw.ProcessPacket(v4Packet(t, [4]byte{10, 0, 0, 2}, testbed.RouterMAC, 64), testbed.InPort); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case punted = <-sw.PuntQueue():
	default:
		t.Fatal("probe never punted")
	}
	tuple, ok := pkt.ExtractFiveTuple(punted.Data)
	if !ok {
		t.Fatal("punted packet unparseable")
	}

	// Update 2: the controller reacts by loading the ACL.
	rep2 := testbed.Update(t, w, "acl.script")
	if len(rep2.AddedStages) != 1 || rep2.AddedStages[0] != "acl_stage" {
		t.Fatalf("added: %v", rep2.AddedStages)
	}
	// The probe from update 1 must have survived update 2.
	if _, ok := rep2.Config.Tables["flow_probe"]; !ok {
		t.Fatal("probe lost by ACL update")
	}
	st, err := sw.ApplyConfig(rep2.Config)
	if err != nil {
		t.Fatal(err)
	}
	if st.Full {
		t.Error("ACL update treated as full install")
	}

	// Drop exactly the offending flow (full masks on SIP/DIP, wildcard
	// protocol).
	sip := tuple.Src.As4()
	dip := tuple.Dst.As4()
	insert(t, sw, ctrlplane.EntryReq{
		Table: "acl_tbl",
		Keys: []ctrlplane.FieldValue{
			{Value: uint64(sip[0])<<24 | uint64(sip[1])<<16 | uint64(sip[2])<<8 | uint64(sip[3])},
			{Value: uint64(dip[0])<<24 | uint64(dip[1])<<16 | uint64(dip[2])<<8 | uint64(dip[3])},
			{Value: 0, Mask: &ctrlplane.FieldMask{Value: 0}}, // any protocol
		},
		Priority: 10,
		Tag:      1, // acl_drop
	})

	// The offender is now dropped at the top of the pipeline...
	p, err := sw.ProcessPacket(v4Packet(t, [4]byte{10, 0, 0, 2}, testbed.RouterMAC, 64), testbed.InPort)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Drop {
		t.Error("offending flow not dropped by ACL")
	}
	// ...while other flows still forward, and the register state from the
	// probe survived both updates.
	p2, err := sw.ProcessPacket(v4Packet(t, [4]byte{10, 1, 2, 3}, testbed.RouterMAC, 64), testbed.InPort)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Drop {
		t.Error("innocent flow dropped")
	}
	cnt, err := sw.ReadRegister("flow_cnt", 7)
	if err != nil {
		t.Fatal(err)
	}
	if cnt != 4 {
		t.Errorf("flow_cnt = %d, want 4 (state must survive updates)", cnt)
	}
}

// TestACLRemark exercises the ternary table's second action and priority
// ordering end to end.
func TestACLRemark(t *testing.T) {
	sw, w := newBaseSwitch(t)
	rep := testbed.Update(t, w, "acl.script")
	if _, err := sw.ApplyConfig(rep.Config); err != nil {
		t.Fatal(err)
	}
	// Low-priority remark for all of 10.0.0.0/8, high-priority drop for
	// one host.
	insert(t, sw, ctrlplane.EntryReq{
		Table: "acl_tbl",
		Keys: []ctrlplane.FieldValue{
			{Value: 0x0A000000, Mask: &ctrlplane.FieldMask{Value: 0xFF000000}},
			{Value: 0, Mask: &ctrlplane.FieldMask{Value: 0}},
			{Value: 0, Mask: &ctrlplane.FieldMask{Value: 0}},
		},
		Priority: 1,
		Tag:      2, Params: []uint64{0x2E << 2}, // DSCP EF
	})
	insert(t, sw, ctrlplane.EntryReq{
		Table: "acl_tbl",
		Keys: []ctrlplane.FieldValue{
			{Value: 0x0A0000FF},
			{Value: 0, Mask: &ctrlplane.FieldMask{Value: 0}},
			{Value: 0, Mask: &ctrlplane.FieldMask{Value: 0}},
		},
		Priority: 9,
		Tag:      1,
	})

	// The /8 flow is remarked and forwarded.
	raw, _ := pkt.Serialize(
		&pkt.Ethernet{Dst: testbed.RouterMAC, Src: testbed.HostMAC, EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoTCP, Src: [4]byte{10, 0, 0, 1}, Dst: [4]byte{10, 0, 0, 2}},
		&pkt.TCP{SrcPort: 1, DstPort: 2},
	)
	p, err := sw.ProcessPacket(raw, testbed.InPort)
	if err != nil {
		t.Fatal(err)
	}
	if p.Drop {
		t.Fatal("remarked flow dropped")
	}
	var ip pkt.IPv4
	_ = ip.Decode(p.Data[pkt.EthernetLen:])
	if ip.DSCP != 0x2E {
		t.Errorf("dscp = %#x, want 0x2E", ip.DSCP)
	}
	// The blocked host wins on priority.
	raw2, _ := pkt.Serialize(
		&pkt.Ethernet{Dst: testbed.RouterMAC, Src: testbed.HostMAC, EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoUDP, Src: [4]byte{10, 0, 0, 0xFF}, Dst: [4]byte{10, 0, 0, 2}},
		&pkt.UDP{SrcPort: 1, DstPort: 2},
	)
	p2, err := sw.ProcessPacket(raw2, testbed.InPort)
	if err != nil {
		t.Fatal(err)
	}
	if !p2.Drop {
		t.Error("high-priority drop lost to remark")
	}
	// Non-IPv4 traffic bypasses the ACL entirely.
	ip6 := pkt.IPv6{NextHeader: pkt.IPProtoTCP, HopLimit: 64}
	ip6.Dst[0], ip6.Dst[15] = 0x20, 0x02
	raw3, _ := pkt.Serialize(
		&pkt.Ethernet{Dst: testbed.RouterMAC, Src: testbed.HostMAC, EtherType: pkt.EtherTypeIPv6},
		&ip6, &pkt.TCP{SrcPort: 1, DstPort: 2},
	)
	p3, err := sw.ProcessPacket(raw3, testbed.InPort)
	if err != nil {
		t.Fatal(err)
	}
	if p3.Drop {
		t.Error("IPv6 packet hit the v4 ACL")
	}
}
