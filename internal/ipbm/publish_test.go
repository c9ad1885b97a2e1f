package ipbm

import (
	"slices"
	"testing"

	"ipsa/internal/ctrlplane"
	"ipsa/internal/mem"
	"ipsa/internal/pkt"
	"ipsa/internal/template"
	"ipsa/internal/testbed"
	"ipsa/internal/tsp"
	"ipsa/internal/verdict"
)

// publish_test.go holds the tests of what a commit publishes: a turn
// reads the version it pinned whole (TestPinnedVersionKeepsItsIntState),
// a redefined table is a new table (TestRedefinedTableIsRecreated), and a
// truncated frame is a parse error on both executor tiers
// (TestTruncatedFramesAreParseErrors).

// TestPinnedVersionKeepsItsIntState: the INT stamping context is part of
// the published version. A lane pins an INT-on version, INT is disabled in
// situ, and the lane then admits, ingresses and egresses a routed frame
// under the version it pinned: the sink's report carries a hop for every
// stage the version runs, egress stages included.
func TestPinnedVersionKeepsItsIntState(t *testing.T) {
	sw, _ := newBaseSwitch(t)
	if err := sw.SetInt(true); err != nil {
		t.Fatal(err)
	}
	v := sw.epochs.pin()
	if err := sw.SetInt(false); err != nil {
		t.Fatal(err)
	}
	l := sw.newLane(1, nil, 1)
	f := laneFrame{data: v4Packet(t, [4]byte{10, 0, 0, 2}, testbed.RouterMAC, 64), port: testbed.InPort}
	if err := l.admit(v, &f); err != nil {
		t.Fatal(err)
	}
	l.ingress(v)
	l.egress(v)
	v.unpin()

	var stages []string
	for _, sl := range slices.Concat(v.ingress, v.egress) {
		for _, sr := range sl.stages {
			stages = append(stages, sr.Name())
		}
	}
	if len(v.egress) == 0 {
		t.Fatal("the base design has no egress stage")
	}
	reports := v.sink.reports.Dump(0)
	if len(reports) != 1 {
		t.Fatalf("%d reports, want 1", len(reports))
	}
	var hops []string
	for _, h := range reports[0].Hops {
		hops = append(hops, h.Stage)
	}
	if !slices.Equal(hops, stages) {
		t.Fatalf("report hops %v, want one for every stage %v", hops, stages)
	}
}

// TestRedefinedTableIsRecreated: a commit that redefines a table under its
// old name drops it and creates it afresh, without its entries.
func TestRedefinedTableIsRecreated(t *testing.T) {
	// redefine commits an edit of ipv4_host made by change.
	redefine := func(sw *Switch, change func(tt *template.Table)) (*ctrlplane.ApplyStats, error) {
		spec := *sw.Config().Tables["ipv4_host"]
		change(&spec)
		return sw.Edit([]ctrlplane.EditOp{{Kind: "set_table", Table: "ipv4_host", TableSpec: &spec}})
	}
	grow := func(tt *template.Table) { tt.Size = 524288 }

	t.Run("resize", func(t *testing.T) {
		sw, _ := newBaseSwitchOpts(t, func(o *Options) {
			o.Mem = mem.Config{Blocks: 256, BlockWidth: 128, BlockDepth: 4096, Clusters: 4}
		})
		st, err := redefine(sw, grow)
		if err != nil {
			t.Fatal(err)
		}
		tbl, _ := sw.mm.Table("ipv4_host")
		pc := sw.mm.Pool().Config()
		spec := sw.Config().Tables["ipv4_host"]
		want := mem.BlocksForTable(spec.KeyWidth, spec.Size, pc.BlockWidth, pc.BlockDepth)
		if st.TablesCreated != 1 || st.TablesDropped != 1 || tbl.Depth != 524288 || len(tbl.Blocks()) != want {
			t.Fatalf("created %d, dropped %d; table holds %d entries in %d blocks; want 1, 1, 524288 in %d",
				st.TablesCreated, st.TablesDropped, tbl.Depth, len(tbl.Blocks()), want)
		}
		if sw.table("ipv4_host") != tbl {
			t.Fatal("the published view does not hold the new table")
		}
		if n := tbl.Engine().Len(); n != 0 {
			t.Errorf("the recreated table holds %d entries", n)
		}
	})

	t.Run("resize past the pool", func(t *testing.T) {
		sw, _ := newBaseSwitch(t)
		before := stateOf(t, sw)
		if _, err := redefine(sw, grow); err == nil {
			t.Fatal("a 524288-entry ipv4_host fit the 64-block pool")
		}
		sameState(t, "the refused resize", before, stateOf(t, sw))
	})

	t.Run("key width", func(t *testing.T) {
		sw, _ := newBaseSwitch(t)
		// Key ipv4_host on the destination address alone.
		if _, err := redefine(sw, func(tt *template.Table) {
			tt.Keys = tt.Keys[len(tt.Keys)-1:]
			tt.KeyWidth = tt.Keys[0].Operand.Width
		}); err != nil {
			t.Fatal(err)
		}
		route := func() *pkt.Packet {
			p, err := sw.ProcessPacket(v4Packet(t, [4]byte{10, 0, 0, 2}, testbed.RouterMAC, 64), testbed.InPort)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		if p := route(); !p.Drop {
			t.Fatalf("10.0.0.2 routed to %d through an empty host table", p.OutPort)
		}
		insert(t, sw, ctrlplane.EntryReq{Table: "ipv4_host", Keys: []ctrlplane.FieldValue{{Value: 0x0A000002}},
			Tag: 1, Params: []uint64{testbed.NexthopID}})
		if p := route(); p.Drop || p.OutPort != testbed.OutPort {
			t.Fatalf("10.0.0.2: drop=%v out=%d, want out %d through the new 32-bit host table", p.Drop, p.OutPort, testbed.OutPort)
		}
	})
}

// TestTruncatedFramesAreParseErrors: a frame that ends inside a header its
// parse chain leads to is a parse error, whichever header that is. On the
// populated base design, prefixes of a routed 42-byte IPv4/UDP frame that
// end inside Ethernet (6, 10 B) or IPv4 (14, 20, 33 B) read parse_error
// on both executor tiers; the whole frame is forwarded.
func TestTruncatedFramesAreParseErrors(t *testing.T) {
	frame, err := pkt.Serialize(
		&pkt.Ethernet{Dst: testbed.RouterMAC, Src: testbed.HostMAC, EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoUDP, Src: [4]byte{10, 0, 0, 1}, Dst: [4]byte{10, 0, 0, 2}},
		&pkt.UDP{SrcPort: 1234, DstPort: 53},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != 42 {
		t.Fatalf("frame is %d bytes, want 42", len(frame))
	}
	for _, exec := range []tsp.ExecMode{tsp.ExecFused, tsp.ExecInterp} {
		t.Run(exec.String(), func(t *testing.T) {
			sw, _ := newBaseSwitchOpts(t, func(o *Options) { o.Exec = exec })
			for _, n := range []int{6, 10, 14, 20, 33, 42} {
				want := verdict.ParseError
				if n == len(frame) {
					want = verdict.Forwarded
				}
				before := sw.tel.VerdictSnapshot()
				if _, err := sw.Forward(append([]byte(nil), frame[:n]...), testbed.InPort); err != nil {
					t.Fatal(err)
				}
				after := sw.tel.VerdictSnapshot()
				if after[want] != before[want]+1 {
					t.Errorf("%d-byte prefix: verdicts %v -> %v, want one more %s", n, before, after, want)
				}
			}
		})
	}
}
