package core

import (
	"testing"

	"ipsa/internal/ctrlplane"
	"ipsa/internal/ipbm"
	"ipsa/internal/pkt"
	"ipsa/internal/testbed"
)

func newSwitch(t *testing.T) *ipbm.Switch {
	t.Helper()
	sw, err := ipbm.New(ipbm.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

func TestControllerRP4Flow(t *testing.T) {
	sw := newSwitch(t)
	c, err := NewController("base_l2l3.rp4", testbed.Script(t, "base_l2l3.rp4"), testbed.Compiler(), sw)
	if err != nil {
		t.Fatal(err)
	}
	if c.Generations() != 1 || c.CurrentConfig() == nil {
		t.Fatalf("generations = %d", c.Generations())
	}
	// ECMP update: both halves timed, device agrees with compiler.
	rep, err := c.ApplyUpdate(testbed.Script(t, "ecmp.script"), testbed.Repo().Read)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CompileTime <= 0 || rep.LoadTime <= 0 {
		t.Errorf("times: %v / %v", rep.CompileTime, rep.LoadTime)
	}
	if rep.Device.TSPsWritten != len(rep.Compiler.RewrittenTSPs) {
		t.Errorf("device wrote %d, compiler predicted %v", rep.Device.TSPsWritten, rep.Compiler.RewrittenTSPs)
	}
	if c.Generations() != 2 {
		t.Errorf("generations = %d", c.Generations())
	}
	// Failback: the ECMP trial is reverted; nexthop_tbl exists again.
	st, err := c.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if st.TablesCreated != 1 || st.TablesDropped != 2 {
		t.Errorf("rollback stats: %+v", st)
	}
	if _, ok := c.CurrentConfig().Tables["nexthop_tbl"]; !ok {
		t.Error("rollback lost nexthop_tbl")
	}
	if _, err := c.Rollback(); err == nil {
		t.Error("rollback past the base accepted")
	}
	// The workspace is still ahead of the device, so the next update's
	// patch manifest names only what the script adds (flow_probe) while
	// the device must also recreate ECMP's tables. The update goes
	// through on the device's own diff and leaves the device running the
	// workspace's design.
	rep, err = c.ApplyUpdate(testbed.Script(t, "flowprobe.script"), testbed.Repo().Read)
	if err != nil {
		t.Fatalf("update after rollback refused: %v", err)
	}
	if want := len(rep.Compiler.NewTables) + 2; rep.Device.TablesCreated != want {
		t.Errorf("device created %d tables, want %d (manifest %v plus ECMP's two)",
			rep.Device.TablesCreated, want, rep.Compiler.NewTables)
	}
	if rep.Device.TSPsWritten == 0 {
		t.Error("device wrote no TSPs")
	}
	for name := range rep.Compiler.Config.Tables {
		if _, ok := sw.Config().Tables[name]; !ok {
			t.Errorf("device lacks table %q after the update", name)
		}
	}
	if len(sw.Config().Tables) != len(rep.Compiler.Config.Tables) {
		t.Errorf("device runs %d tables, workspace %d", len(sw.Config().Tables), len(rep.Compiler.Config.Tables))
	}
}

func TestControllerP4Flow(t *testing.T) {
	sw := newSwitch(t)
	c, err := NewControllerFromP4("base_l2l3.p4", testbed.Script(t, "base_l2l3.p4"), testbed.Compiler(), sw)
	if err != nil {
		t.Fatal(err)
	}
	if c.API() == nil || len(c.API().Tables) != 10 {
		t.Fatalf("api: %+v", c.API())
	}
	// Populate through the generated API (action names, not tags).
	routerMAC := pkt.MAC{0x02, 0, 0, 0, 0, 0x01}
	nhMAC := pkt.MAC{0x02, 0, 0, 0, 0, 0x03}
	type row struct {
		table, action string
		keys          []ctrlplane.FieldValue
		params        []uint64
	}
	rows := []row{
		{"port_map_tbl", "set_iif", []ctrlplane.FieldValue{{Value: 1}}, []uint64{10}},
		{"bd_vrf_tbl", "set_bd_vrf", []ctrlplane.FieldValue{{Value: 10}}, []uint64{100, 1}},
		{"l2_l3_tbl", "set_l3", []ctrlplane.FieldValue{{Value: 100}, {Value: routerMAC.Uint64()}}, nil},
		{"ipv4_host", "set_nexthop", []ctrlplane.FieldValue{{Value: 1}, {Value: 0x0A000002}}, []uint64{7}},
		{"nexthop_tbl", "set_bd_dmac", []ctrlplane.FieldValue{{Value: 7}}, []uint64{200, nhMAC.Uint64()}},
		{"smac_tbl", "rewrite_l3", []ctrlplane.FieldValue{{Value: 200}}, []uint64{0x020000000004}},
		{"dmac_tbl", "set_port", []ctrlplane.FieldValue{{Value: 200}, {Value: nhMAC.Uint64()}}, []uint64{3}},
	}
	for _, r := range rows {
		if _, err := c.InsertByAction(r.table, r.action, r.keys, r.params); err != nil {
			t.Fatalf("%s/%s: %v", r.table, r.action, err)
		}
	}
	// The P4-derived design forwards the same traffic as the rP4 one.
	raw, err := pkt.Serialize(
		&pkt.Ethernet{Dst: routerMAC, Src: pkt.MAC{2, 0, 0, 0, 0, 9}, EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoTCP, Src: [4]byte{10, 0, 0, 1}, Dst: [4]byte{10, 0, 0, 2}},
		&pkt.TCP{SrcPort: 1, DstPort: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sw.ProcessPacket(raw, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Drop || p.OutPort != 3 {
		t.Fatalf("drop=%v out=%d", p.Drop, p.OutPort)
	}
	var ip pkt.IPv4
	_ = ip.Decode(p.Data[pkt.EthernetLen:])
	if ip.TTL != 63 {
		t.Errorf("ttl = %d", ip.TTL)
	}
	// API misuse errors.
	if _, err := c.InsertByAction("ghost", "x", nil, nil); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := c.InsertByAction("dmac_tbl", "ghost", nil, nil); err == nil {
		t.Error("unknown action accepted")
	}
	if _, err := c.InsertByAction("dmac_tbl", "set_port", nil, []uint64{1, 2}); err == nil {
		t.Error("wrong arity accepted")
	}
}

func TestControllerP4ThenInsituECMP(t *testing.T) {
	// The full paper workflow: P4 base design via rp4fc, then an rP4
	// in-situ update on top of the generated design. The ECMP script
	// references the generated stage names (<table>_stage).
	sw := newSwitch(t)
	c, err := NewControllerFromP4("base_l2l3.p4", testbed.Script(t, "base_l2l3.p4"), testbed.Compiler(), sw)
	if err != nil {
		t.Fatal(err)
	}
	script := `
load ecmp.rp4 --func_name ecmp
add_link ipv4_lpm_stage ecmp_stage
add_link ipv6_lpm_stage ecmp_stage
del_link ipv6_lpm_stage nexthop_tbl_stage
add_link ecmp_stage smac_tbl_stage
del_link nexthop_tbl_stage smac_tbl_stage
`
	rep, err := c.ApplyUpdate(script, testbed.Repo().Read)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Compiler.AddedStages) != 1 || rep.Compiler.AddedStages[0] != "ecmp_stage" {
		t.Errorf("added: %v", rep.Compiler.AddedStages)
	}
	if len(rep.Compiler.RemovedStages) != 1 || rep.Compiler.RemovedStages[0] != "nexthop_tbl_stage" {
		t.Errorf("removed: %v", rep.Compiler.RemovedStages)
	}
	if _, err := c.InsertEntry(ctrlplane.EntryReq{
		Table: "ecmp_ipv4", Keys: []ctrlplane.FieldValue{{Value: 7}},
		Tag: 1, Params: []uint64{200, 0x020000000003},
	}); err != nil {
		t.Fatal(err)
	}
}

func TestControllerBadSources(t *testing.T) {
	sw := newSwitch(t)
	if _, err := NewController("bad.rp4", "junk {", testbed.Compiler(), sw); err == nil {
		t.Error("bad rP4 accepted")
	}
	if _, err := NewControllerFromP4("bad.p4", "junk {", testbed.Compiler(), sw); err == nil {
		t.Error("bad P4 accepted")
	}
}
