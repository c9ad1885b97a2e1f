package ipbm

import (
	"bytes"
	"testing"
	"time"

	"ipsa/internal/ctrlplane"
	"ipsa/internal/netio"
	"ipsa/internal/pkt"
	"ipsa/internal/telemetry"
	"ipsa/internal/testbed"
)

// TestFunctionUpdateFlow exercises the update case the paper mentions but
// does not show: replacing a running function with a new version (here the
// probe gains a second threshold tier) by offloading and reloading in one
// script. Register state is preserved because the register is not removed.
func TestFunctionUpdateFlow(t *testing.T) {
	sw, w := newBaseSwitch(t)
	rep := testbed.Update(t, w, "flowprobe.script")
	if _, err := sw.ApplyConfig(rep.Config); err != nil {
		t.Fatal(err)
	}
	insert(t, sw, ctrlplane.EntryReq{
		Table: "flow_probe",
		Keys:  []ctrlplane.FieldValue{{Value: 0x0A000001}, {Value: 0x0A000002}},
		Tag:   1, Params: []uint64{3, 100},
	})
	for i := 0; i < 2; i++ {
		if _, err := sw.ProcessPacket(v4Packet(t, [4]byte{10, 0, 0, 2}, testbed.RouterMAC, 64), testbed.InPort); err != nil {
			t.Fatal(err)
		}
	}

	// Version 2 of the probe: same register, new table with a low/high
	// threshold pair (drop above high, punt above low).
	v2 := `
structs {
    struct probe2_meta {
        bit<32> cnt;
    } p2;
}

action probe2(bit<32> idx, bit<32> punt_at, bit<32> drop_at) {
    p2.cnt = flow_cnt.read(idx);
    p2.cnt = p2.cnt + 1;
    flow_cnt.write(idx, p2.cnt);
    if (p2.cnt > drop_at) {
        drop();
    } else if (p2.cnt > punt_at) {
        to_cpu();
    }
}

table flow_probe2 {
    key = {
        ipv4.src_addr: exact;
        ipv4.dst_addr: exact;
    }
    actions = { probe2; }
    size = 1024;
}

stage probe2_stage {
    parser { ipv4 };
    matcher {
        if (ipv4.isValid()) flow_probe2.apply();
        else;
    };
    executor {
        1: probe2;
        default: NoAction;
    };
}

user_funcs {
    func probe2fn { probe2_stage }
}
`
	// Unloading the old probe also removes its links, leaving the gap the
	// new version's links fill.
	update := `
unload probe
load probe_v2.rp4 --func_name probe2fn
add_link ipv4_lpm_fib probe2_stage
add_link probe2_stage ipv6_host_fib
`
	ld := func(name string) (string, error) {
		if name == "probe_v2.rp4" {
			return v2, nil
		}
		return testbed.Repo().Read(name)
	}
	rep2, err := w.ApplyScript(update, ld)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.RemovedStages) != 1 || rep2.RemovedStages[0] != "probe_stage" {
		t.Fatalf("removed: %v", rep2.RemovedStages)
	}
	if len(rep2.AddedStages) != 1 || rep2.AddedStages[0] != "probe2_stage" {
		t.Fatalf("added: %v", rep2.AddedStages)
	}
	if _, err := sw.ApplyConfig(rep2.Config); err != nil {
		t.Fatal(err)
	}
	insert(t, sw, ctrlplane.EntryReq{
		Table: "flow_probe2",
		Keys:  []ctrlplane.FieldValue{{Value: 0x0A000001}, {Value: 0x0A000002}},
		Tag:   1, Params: []uint64{3, 3, 5}, // same slot, punt >3, drop >5
	})
	// The count continues from the preserved register (2 so far).
	results := []struct {
		punt, drop bool
	}{
		{false, false}, // 3
		{true, false},  // 4
		{true, false},  // 5
		{false, true},  // 6: dropped
		{false, true},  // 7
	}
	for i, want := range results {
		p, err := sw.ProcessPacket(v4Packet(t, [4]byte{10, 0, 0, 2}, testbed.RouterMAC, 64), testbed.InPort)
		if err != nil {
			t.Fatal(err)
		}
		if p.ToCPU != want.punt || p.Drop != want.drop {
			cnt, _ := sw.ReadRegister("flow_cnt", 3)
			t.Errorf("packet %d: punt=%v drop=%v, want %+v (cnt=%d)", i, p.ToCPU, p.Drop, want, cnt)
		}
	}
	cnt, err := sw.ReadRegister("flow_cnt", 3)
	if err != nil {
		t.Fatal(err)
	}
	if cnt != 7 {
		t.Errorf("flow_cnt = %d, want 7 (2 from v1 + 5 from v2)", cnt)
	}
}

// TestPcapReplayThroughSwitch replays a generated pcap file through the
// data plane and captures the forwarded packets into another pcap —
// the offline workflow of the CM.
func TestPcapReplayThroughSwitch(t *testing.T) {
	sw, _ := newBaseSwitch(t)
	// Build a capture of 10 routable and 3 unroutable packets.
	var capture bytes.Buffer
	wr, err := netio.NewPcapWriter(&capture)
	if err != nil {
		t.Fatal(err)
	}
	ts := time.Unix(1700000000, 0)
	for i := 0; i < 10; i++ {
		if err := wr.WritePacket(ts, v4Packet(t, [4]byte{10, 1, 0, byte(i)}, testbed.RouterMAC, 64)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := wr.WritePacket(ts, v4Packet(t, [4]byte{192, 168, 0, byte(i)}, testbed.RouterMAC, 64)); err != nil {
			t.Fatal(err)
		}
	}
	// Replay.
	rd, err := netio.NewPcapReader(bytes.NewReader(capture.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	ow, err := netio.NewPcapWriter(&out)
	if err != nil {
		t.Fatal(err)
	}
	forwarded, dropped := 0, 0
	for {
		when, data, err := rd.ReadPacket()
		if err != nil {
			break
		}
		p, err := sw.ProcessPacket(data, testbed.InPort)
		if err != nil {
			t.Fatal(err)
		}
		if p.Drop {
			dropped++
			continue
		}
		forwarded++
		if err := ow.WritePacket(when, p.Data); err != nil {
			t.Fatal(err)
		}
	}
	if forwarded != 10 || dropped != 3 {
		t.Fatalf("forwarded %d dropped %d", forwarded, dropped)
	}
	// The output capture holds rewritten packets.
	or, err := netio.NewPcapReader(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	_, first, err := or.ReadPacket()
	if err != nil {
		t.Fatal(err)
	}
	var eth pkt.Ethernet
	_ = eth.Decode(first)
	if eth.Dst != testbed.NhMAC {
		t.Errorf("captured dmac %v, want %v", eth.Dst, testbed.NhMAC)
	}
}

// TestControlChannelEndToEnd drives a live switch through the real CCM
// TCP protocol: apply base config, populate, update to ECMP, verify over
// the wire — the three-process deployment in one test.
func TestControlChannelEndToEnd(t *testing.T) {
	w := testbed.Workspace(t)
	sw, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	srv := ctrlplane.NewServer(sw, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := ctrlplane.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Install the base design over TCP (the config survives JSON).
	st, err := cl.ApplyConfig(w.Current().Config)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Full {
		t.Error("first apply not full")
	}
	// Populate over the wire.
	if _, err := cl.InsertEntry(ctrlplane.EntryReq{
		Table: "port_map_tbl", Keys: []ctrlplane.FieldValue{{Value: testbed.InPort}},
		Tag: 1, Params: []uint64{testbed.IifIndex},
	}); err != nil {
		t.Fatal(err)
	}
	testbed.Populate(t, sw, nil, testbed.Base()) // rest in-process for brevity
	// In-situ update over the wire, patch manifest included.
	rep := testbed.Update(t, w, "ecmp.script")
	st2, err := cl.ApplyConfig(rep.Config)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Full || st2.TSPsWritten != len(rep.RewrittenTSPs) {
		t.Errorf("patch over TCP: %+v (want %d TSPs)", st2, len(rep.RewrittenTSPs))
	}
	if _, err := cl.InsertEntry(testbed.ECMPMember(testbed.NhMAC.Uint64())); err != nil {
		t.Fatal(err)
	}
	p, err := sw.ProcessPacket(v4Packet(t, [4]byte{10, 0, 0, 2}, testbed.RouterMAC, 64), testbed.InPort)
	if err != nil || p.Drop {
		t.Fatalf("traffic after TCP-driven update: err=%v drop=%v", err, p.Drop)
	}
	// Stats readable over the wire.
	var ds ctrlplane.DeviceStats
	if err := cl.View("stats", telemetry.Query{}, &ds); err != nil || ds.Processed == 0 {
		t.Fatalf("device stats: %+v, %v", ds, err)
	}
	ts, err := cl.TableStats("ipv4_host")
	if err != nil || ts.Hits+ts.Misses == 0 {
		t.Fatalf("table stats: %+v, %v", ts, err)
	}
}
