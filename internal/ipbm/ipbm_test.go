package ipbm

import (
	"testing"

	"ipsa/internal/compiler/backend"
	"ipsa/internal/ctrlplane"
	"ipsa/internal/pkt"
	"ipsa/internal/template"
	"ipsa/internal/testbed"
	"ipsa/internal/tsp"
	"ipsa/internal/verdict"
)

// newBaseSwitch compiles, installs and populates the base design.
func newBaseSwitch(t testing.TB) (*Switch, *backend.Workspace) {
	t.Helper()
	return newBaseSwitchOpts(t, nil)
}

// newBaseSwitchOpts is newBaseSwitch with an options hook (e.g. turning
// flow accounting off).
func newBaseSwitchOpts(t testing.TB, tweak func(*Options)) (*Switch, *backend.Workspace) {
	t.Helper()
	w := testbed.Workspace(t)
	opts := DefaultOptions()
	if tweak != nil {
		tweak(&opts)
	}
	sw, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sw.ApplyConfig(w.Current().Config)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Full || st.TablesCreated != 10 {
		t.Fatalf("initial apply: %+v", st)
	}
	testbed.Populate(t, sw, nil, testbed.Base())
	return sw, w
}

// interpreted is the options hook that selects the interpreter tier, the
// oracle the fused tier is held to.
func interpreted(o *Options) { o.Exec = tsp.ExecInterp }

// switchOn brings up a switch running cfg under an options hook (nil for
// the defaults), populated with the base entries of every table cfg has.
func switchOn(t testing.TB, cfg *template.Config, tweak func(*Options)) *Switch {
	t.Helper()
	opts := DefaultOptions()
	if tweak != nil {
		tweak(&opts)
	}
	sw, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.ApplyConfig(cfg); err != nil {
		t.Fatal(err)
	}
	testbed.Populate(t, sw, cfg, testbed.Base())
	return sw
}

func insert(t testing.TB, sw *Switch, req ctrlplane.EntryReq) int {
	t.Helper()
	h, err := sw.InsertEntry(req)
	if err != nil {
		t.Fatalf("insert into %s: %v", req.Table, err)
	}
	return h
}

func v4Packet(t testing.TB, dst [4]byte, dmac pkt.MAC, ttl uint8) []byte {
	t.Helper()
	raw, err := pkt.Serialize(
		&pkt.Ethernet{Dst: dmac, Src: testbed.HostMAC, EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4{TTL: ttl, Protocol: pkt.IPProtoTCP, Src: [4]byte{10, 0, 0, 1}, Dst: dst},
		&pkt.TCP{SrcPort: 1234, DstPort: 80},
	)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestRoutedIPv4HostPath(t *testing.T) {
	sw, _ := newBaseSwitch(t)
	p, err := sw.ProcessPacket(v4Packet(t, [4]byte{10, 0, 0, 2}, testbed.RouterMAC, 64), testbed.InPort)
	if err != nil {
		t.Fatal(err)
	}
	if p.Drop {
		t.Fatal("packet dropped")
	}
	if p.OutPort != testbed.OutPort {
		t.Errorf("out port = %d, want %d", p.OutPort, testbed.OutPort)
	}
	var eth pkt.Ethernet
	if err := eth.Decode(p.Data); err != nil {
		t.Fatal(err)
	}
	if eth.Dst != testbed.NhMAC {
		t.Errorf("dmac = %v, want %v", eth.Dst, testbed.NhMAC)
	}
	if eth.Src != testbed.SmacMAC {
		t.Errorf("smac = %v, want %v", eth.Src, testbed.SmacMAC)
	}
	var ip pkt.IPv4
	if err := ip.Decode(p.Data[pkt.EthernetLen:]); err != nil {
		t.Fatal(err)
	}
	if ip.TTL != 63 {
		t.Errorf("ttl = %d, want 63", ip.TTL)
	}
	if sw.Faults().InvalidHeaderAccess.Load() != 0 || sw.Faults().BadTemplate.Load() != 0 {
		t.Errorf("faults: %+v", sw.Faults())
	}
}

func TestRoutedIPv4LPMPath(t *testing.T) {
	sw, _ := newBaseSwitch(t)
	p, err := sw.ProcessPacket(v4Packet(t, [4]byte{10, 1, 2, 3}, testbed.RouterMAC, 64), testbed.InPort)
	if err != nil {
		t.Fatal(err)
	}
	if p.Drop || p.OutPort != testbed.OutPort {
		t.Fatalf("drop=%v out=%d", p.Drop, p.OutPort)
	}
	// Host table must have missed, LPM hit.
	hostStats, _ := sw.TableStats("ipv4_host")
	lpmStats, _ := sw.TableStats("ipv4_lpm")
	if hostStats.Misses != 1 || hostStats.Hits != 0 {
		t.Errorf("host stats: %+v", hostStats)
	}
	if lpmStats.Hits != 1 {
		t.Errorf("lpm stats: %+v", lpmStats)
	}
}

func TestRoutedIPv6Path(t *testing.T) {
	sw, _ := newBaseSwitch(t)
	ip := pkt.IPv6{NextHeader: pkt.IPProtoTCP, HopLimit: 64}
	ip.Dst[0], ip.Dst[15] = 0x20, 0x02
	ip.Src[15] = 1
	raw, err := pkt.Serialize(
		&pkt.Ethernet{Dst: testbed.RouterMAC, Src: testbed.HostMAC, EtherType: pkt.EtherTypeIPv6},
		&ip, &pkt.TCP{SrcPort: 9, DstPort: 10},
	)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sw.ProcessPacket(raw, testbed.InPort)
	if err != nil {
		t.Fatal(err)
	}
	if p.Drop || p.OutPort != testbed.OutPort {
		t.Fatalf("drop=%v out=%d", p.Drop, p.OutPort)
	}
	var out pkt.IPv6
	if err := out.Decode(p.Data[pkt.EthernetLen:]); err != nil {
		t.Fatal(err)
	}
	if out.HopLimit != 63 {
		t.Errorf("hop limit = %d, want 63", out.HopLimit)
	}
}

func TestL2BridgedPath(t *testing.T) {
	sw, _ := newBaseSwitch(t)
	// Destination is a host MAC, not the router: pure L2 forwarding, no
	// TTL change.
	p, err := sw.ProcessPacket(v4Packet(t, [4]byte{10, 9, 9, 9}, testbed.HostMAC, 33), testbed.InPort)
	if err != nil {
		t.Fatal(err)
	}
	if p.Drop || p.OutPort != 5 {
		t.Fatalf("drop=%v out=%d, want port 5", p.Drop, p.OutPort)
	}
	var ip pkt.IPv4
	if err := ip.Decode(p.Data[pkt.EthernetLen:]); err != nil {
		t.Fatal(err)
	}
	if ip.TTL != 33 {
		t.Errorf("ttl = %d, want unchanged 33", ip.TTL)
	}
	var eth pkt.Ethernet
	_ = eth.Decode(p.Data)
	if eth.Src != testbed.HostMAC {
		t.Errorf("smac rewritten on L2 path: %v", eth.Src)
	}
}

func TestUnknownPortDropped(t *testing.T) {
	sw, _ := newBaseSwitch(t)
	p, err := sw.ProcessPacket(v4Packet(t, [4]byte{10, 0, 0, 2}, testbed.RouterMAC, 64), 6)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Drop {
		t.Error("packet from unmapped port not dropped")
	}
	vs := sw.Telemetry().VerdictSnapshot()
	if vs[verdict.Dropped] != 1 || sw.Stats().Dropped != 1 {
		t.Errorf("dropped verdicts = %d, Stats().Dropped = %d, want 1 each", vs[verdict.Dropped], sw.Stats().Dropped)
	}
}

func TestUnknownDMACDropped(t *testing.T) {
	sw, _ := newBaseSwitch(t)
	p, err := sw.ProcessPacket(v4Packet(t, [4]byte{10, 9, 9, 9}, pkt.MAC{9, 9, 9, 9, 9, 9}, 64), testbed.InPort)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Drop {
		t.Error("packet to unknown dmac not dropped")
	}
}

func TestUnroutableDropsAtDMAC(t *testing.T) {
	sw, _ := newBaseSwitch(t)
	// Routed lookup misses both FIBs: fib_hit stays 0, nexthop skipped,
	// dmac lookup (testbed.BridgeIn, testbed.RouterMAC) misses -> drop.
	p, err := sw.ProcessPacket(v4Packet(t, [4]byte{192, 168, 0, 1}, testbed.RouterMAC, 64), testbed.InPort)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Drop {
		t.Error("unroutable packet not dropped")
	}
}

func TestDeleteEntryAndNewPacket(t *testing.T) {
	sw, _ := newBaseSwitch(t)
	h := insert(t, sw, ctrlplane.EntryReq{
		Table: "ipv4_host",
		Keys:  []ctrlplane.FieldValue{{Value: testbed.VrfID}, {Value: 0x0A00FFFF}},
		Tag:   1, Params: []uint64{testbed.NexthopID},
	})
	if err := sw.DeleteEntry("ipv4_host", h); err != nil {
		t.Fatal(err)
	}
	if err := sw.DeleteEntry("ipv4_host", h); err == nil {
		t.Error("double delete accepted")
	}
	if err := sw.DeleteEntry("ghost", 0); err == nil {
		t.Error("unknown table delete accepted")
	}
	// NewPacket stamps istd.in_port and sizes metadata for the design.
	p, err := sw.NewPacket([]byte{1, 2, 3}, 5)
	if err != nil {
		t.Fatal(err)
	}
	v, err := p.MetaBits(template.IstdInPortOff, template.IstdInPortWidth)
	if err != nil || v != 5 {
		t.Fatalf("in_port = %d, %v", v, err)
	}
	if len(p.Meta) != sw.Config().MetaBytes {
		t.Errorf("meta bytes = %d", len(p.Meta))
	}
	// No config -> error.
	fresh, _ := New(DefaultOptions())
	if _, err := fresh.NewPacket([]byte{1}, 0); err == nil {
		t.Error("NewPacket without config accepted")
	}
	if _, err := fresh.ProcessPacket([]byte{1}, 0); err == nil {
		t.Error("ProcessPacket without config accepted")
	}
}
