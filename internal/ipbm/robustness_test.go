package ipbm

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ipsa/internal/pkt"
	"ipsa/internal/template"
	"ipsa/internal/testbed"
)

// TestRandomBytesNeverPanic throws garbage at the fully populated data
// plane: truncated frames, random ether types, mutated valid packets. The
// switch must never panic and never report an error — malformed packets
// simply miss or drop, like hardware.
func TestRandomBytesNeverPanic(t *testing.T) {
	sw, _ := newBaseSwitch(t)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		n := rng.Intn(128)
		data := make([]byte, n)
		rng.Read(data)
		if _, err := sw.ProcessPacket(data, rng.Intn(8)); err != nil {
			t.Fatalf("packet %d (len %d): %v", i, n, err)
		}
	}
	// Mutations of a valid packet, including truncations mid-header.
	valid := v4Packet(t, [4]byte{10, 0, 0, 2}, testbed.RouterMAC, 64)
	for i := 0; i < 3000; i++ {
		data := append([]byte(nil), valid...)
		switch rng.Intn(3) {
		case 0:
			data = data[:rng.Intn(len(data))]
		case 1:
			data[rng.Intn(len(data))] ^= byte(1 << rng.Intn(8))
		case 2:
			data = data[:rng.Intn(len(data))]
			if len(data) > 0 {
				data[rng.Intn(len(data))] ^= 0xFF
			}
		}
		if _, err := sw.ProcessPacket(data, testbed.InPort); err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
	}
}

// TestRandomBytesThroughUseCases repeats the garbage test with every use
// case loaded (the SRv6 path has the most parsing surface: varlen header,
// segment indexing, header removal).
func TestRandomBytesThroughUseCases(t *testing.T) {
	for _, uc := range []string{"ecmp.script", "srv6.script", "flowprobe.script", "acl.script"} {
		sw, w := newBaseSwitch(t)
		rep := testbed.Update(t, w, uc)
		if _, err := sw.ApplyConfig(rep.Config); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11))
		// Random SRv6-shaped packets with corrupted SRH length fields.
		base, _ := pkt.Serialize(
			&pkt.Ethernet{Dst: testbed.RouterMAC, Src: testbed.HostMAC, EtherType: pkt.EtherTypeIPv6},
			&pkt.IPv6{NextHeader: pkt.IPProtoRouting, HopLimit: 64},
			&pkt.SRH{NextHeader: pkt.IPProtoTCP, SegmentsLeft: 1, Segments: [][16]byte{{1}, {2}}},
			&pkt.TCP{},
		)
		for i := 0; i < 2000; i++ {
			data := append([]byte(nil), base...)
			// Corrupt hdr_ext_len / segments_left / random bytes.
			data[pkt.EthernetLen+pkt.IPv6Len+1] = byte(rng.Intn(256))
			data[pkt.EthernetLen+pkt.IPv6Len+3] = byte(rng.Intn(256))
			if rng.Intn(2) == 0 {
				data = data[:rng.Intn(len(data))]
			}
			if _, err := sw.ProcessPacket(data, testbed.InPort); err != nil {
				t.Fatalf("%s packet %d: %v", uc, i, err)
			}
		}
	}
}

// TestApplyFailureLeavesDeviceUsable: a rejected configuration must not
// disturb the running design.
func TestApplyFailureLeavesDeviceUsable(t *testing.T) {
	sw, w := newBaseSwitch(t)
	// Build an invalid config: break a chain reference.
	bad, err := w.Current().Config.Clone()
	if err != nil {
		t.Fatal(err)
	}
	bad.IngressChain = append(bad.IngressChain, "ghost")
	if _, err := sw.ApplyConfig(bad); err == nil {
		t.Fatal("invalid config accepted")
	}
	// Traffic still forwards on the old design.
	p, err := sw.ProcessPacket(v4Packet(t, [4]byte{10, 0, 0, 2}, testbed.RouterMAC, 64), testbed.InPort)
	if err != nil || p.Drop {
		t.Fatalf("device broken after rejected config: err=%v drop=%v", err, p.Drop)
	}
}

// TestApplyRejectsWideLPMTable: a table no engine can hold (an LPM key
// past 128 bits) is refused by validation, before the apply creates any
// table, so a config that adds it beside another new table leaves the
// table set as it was and the device forwarding.
func TestApplyRejectsWideLPMTable(t *testing.T) {
	sw, w := newBaseSwitch(t)
	before := sw.mm.Tables()
	sort.Strings(before)
	bad, err := w.Current().Config.Clone()
	if err != nil {
		t.Fatal(err)
	}
	for name, width := range map[string]int{"extra_host": 32, "wide_lpm": 200} {
		spec := *bad.Tables["ipv4_lpm"]
		spec.Name, spec.KeyWidth = name, width
		if width == 32 {
			spec.Kind = "exact"
		}
		bad.Tables[name] = &spec
	}
	if _, err := sw.ApplyConfig(bad); err == nil || !strings.Contains(err.Error(), "LPM key") {
		t.Fatalf("200-bit LPM table: %v", err)
	}
	after := sw.mm.Tables()
	sort.Strings(after)
	if !reflect.DeepEqual(before, after) {
		t.Errorf("tables %v after the refused apply, want %v", after, before)
	}
	p, err := sw.ProcessPacket(v4Packet(t, [4]byte{10, 0, 0, 2}, testbed.RouterMAC, 64), testbed.InPort)
	if err != nil || p.Drop {
		t.Fatalf("device broken after rejected config: err=%v drop=%v", err, p.Drop)
	}
}

// TestPatchManifestValidation: a patch manifest naming a TSP outside the
// machine or an unknown table is refused before any state changes and the
// device keeps forwarding on the old design. A manifest that leaves out
// the TSP the update rewrites is not trusted either: the device counts
// TSPsWritten from its own diff, the TSPs the true manifest names.
func TestPatchManifestValidation(t *testing.T) {
	sw, w := newBaseSwitch(t)
	rep := testbed.Update(t, w, "flowprobe.script")
	epoch, tables := sw.currentEpoch(), len(sw.ListTables())
	for _, c := range []struct {
		name  string
		patch template.PatchSpec
	}{
		{"out-of-range TSP", template.PatchSpec{RewrittenTSPs: []int{99}}},
		{"unknown new table", template.PatchSpec{NewTables: []string{"ghost"}}},
	} {
		cfg, err := rep.Config.Clone()
		if err != nil {
			t.Fatal(err)
		}
		cfg.Patch = &c.patch
		if st, err := sw.ApplyConfig(cfg); err == nil {
			t.Errorf("%s accepted: %+v", c.name, st)
		} else {
			t.Logf("%s: %v", c.name, err)
		}
		if sw.currentEpoch() != epoch || len(sw.ListTables()) != tables {
			t.Fatalf("%s touched the device: epoch %d -> %d, tables %d -> %d",
				c.name, epoch, sw.currentEpoch(), tables, len(sw.ListTables()))
		}
	}
	p, err := sw.ProcessPacket(v4Packet(t, [4]byte{10, 0, 0, 2}, testbed.RouterMAC, 64), testbed.InPort)
	if err != nil || p.Drop {
		t.Fatalf("device broken after rejected patch: err=%v drop=%v", err, p.Drop)
	}
	short, err := rep.Config.Clone()
	if err != nil {
		t.Fatal(err)
	}
	short.Patch = &template.PatchSpec{NewTables: rep.Config.Patch.NewTables}
	st, err := sw.ApplyConfig(short)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(rep.Config.Patch.RewrittenTSPs); want == 0 || st.TSPsWritten != want {
		t.Errorf("manifest without its rewritten TSP: device wrote %d TSPs, the update rewrites %v",
			st.TSPsWritten, rep.Config.Patch.RewrittenTSPs)
	}
}
