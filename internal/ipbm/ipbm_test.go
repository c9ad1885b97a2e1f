package ipbm

import (
	"os"
	"path/filepath"
	"testing"

	"ipsa/internal/compiler/backend"
	"ipsa/internal/ctrlplane"
	"ipsa/internal/pkt"
	"ipsa/internal/rp4/parser"
	"ipsa/internal/template"
	"ipsa/internal/verdict"
)

// Test topology constants for the base L2/L3 design.
const (
	inPort    = 1
	outPort   = 3
	iifIndex  = 10
	bridgeIn  = 100
	bridgeOut = 200
	vrfID     = 1
	nexthopID = 7
)

var (
	routerMAC = pkt.MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x01}
	hostMAC   = pkt.MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x02}
	nhMAC     = pkt.MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x03}
	smacMAC   = pkt.MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x04}
)

func compilerOpts() backend.Options {
	opts := backend.DefaultOptions()
	opts.NumTSPs = 16 // match the software switch
	return opts
}

func newBaseWorkspace(t testing.TB) *backend.Workspace {
	t.Helper()
	src, err := os.ReadFile("../../testdata/base_l2l3.rp4")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := parser.Parse("base_l2l3.rp4", string(src))
	if err != nil {
		t.Fatal(err)
	}
	w, err := backend.NewWorkspace(prog, compilerOpts())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func loader(t testing.TB) backend.Loader {
	t.Helper()
	return func(name string) (string, error) {
		b, err := os.ReadFile(filepath.Join("../../testdata", name))
		return string(b), err
	}
}

func script(t testing.TB, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("../../testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// newBaseSwitch compiles, installs and populates the base design.
func newBaseSwitch(t testing.TB) (*Switch, *backend.Workspace) {
	t.Helper()
	return newBaseSwitchOpts(t, nil)
}

// newBaseSwitchOpts is newBaseSwitch with an options hook (e.g. turning
// flow accounting off).
func newBaseSwitchOpts(t testing.TB, tweak func(*Options)) (*Switch, *backend.Workspace) {
	t.Helper()
	w := newBaseWorkspace(t)
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
	populateBase(t, sw)
	return sw, w
}

func insert(t testing.TB, sw *Switch, req ctrlplane.EntryReq) int {
	t.Helper()
	h, err := sw.InsertEntry(req)
	if err != nil {
		t.Fatalf("insert into %s: %v", req.Table, err)
	}
	return h
}

// baseEntries is the canonical table population for the base L2/L3
// design, shared by the testing.T path (populateBase) and the fuzz-worker
// path (populateBaseErr) which has no T to fail on.
func baseEntries() []ctrlplane.EntryReq {
	v6dst := make([]byte, 16)
	v6dst[0], v6dst[15] = 0x20, 0x02
	v6pfx := make([]byte, 16)
	v6pfx[0], v6pfx[1] = 0x20, 0x01
	return []ctrlplane.EntryReq{
		{
			Table: "port_map_tbl", Keys: []ctrlplane.FieldValue{{Value: inPort}},
			Tag: 1, Params: []uint64{iifIndex},
		},
		{
			Table: "bd_vrf_tbl", Keys: []ctrlplane.FieldValue{{Value: iifIndex}},
			Tag: 1, Params: []uint64{bridgeIn, vrfID},
		},
		{
			Table: "l2_l3_tbl",
			Keys:  []ctrlplane.FieldValue{{Value: bridgeIn}, {Value: routerMAC.Uint64()}},
			Tag:   1,
		},
		{
			Table: "ipv4_host",
			Keys:  []ctrlplane.FieldValue{{Value: vrfID}, {Value: 0x0A000002}}, // 10.0.0.2
			Tag:   1, Params: []uint64{nexthopID},
		},
		{
			Table:     "ipv4_lpm",
			Keys:      []ctrlplane.FieldValue{{Value: 0x0A010000}}, // 10.1.0.0/16
			PrefixLen: 16,
			Tag:       1, Params: []uint64{nexthopID},
		},
		{
			Table: "ipv6_host",
			Keys:  []ctrlplane.FieldValue{{Value: vrfID}, {Bytes: v6dst}},
			Tag:   1, Params: []uint64{nexthopID},
		},
		{
			Table:     "ipv6_lpm",
			Keys:      []ctrlplane.FieldValue{{Bytes: v6pfx}},
			PrefixLen: 32,
			Tag:       1, Params: []uint64{nexthopID},
		},
		{
			Table: "nexthop_tbl", Keys: []ctrlplane.FieldValue{{Value: nexthopID}},
			Tag: 1, Params: []uint64{bridgeOut, nhMAC.Uint64()},
		},
		{
			Table: "smac_tbl", Keys: []ctrlplane.FieldValue{{Value: bridgeOut}},
			Tag: 1, Params: []uint64{smacMAC.Uint64()},
		},
		{
			Table: "dmac_tbl",
			Keys:  []ctrlplane.FieldValue{{Value: bridgeOut}, {Value: nhMAC.Uint64()}},
			Tag:   1, Params: []uint64{outPort},
		},
		// L2 path: same bridge as ingress, direct MAC.
		{
			Table: "dmac_tbl",
			Keys:  []ctrlplane.FieldValue{{Value: bridgeIn}, {Value: hostMAC.Uint64()}},
			Tag:   1, Params: []uint64{5},
		},
	}
}

func populateBase(t testing.TB, sw *Switch) {
	t.Helper()
	for _, req := range baseEntries() {
		insert(t, sw, req)
	}
}

// ecmpMember is a member of next-hop group nexthopID in the ECMP design's
// ecmp_ipv4 selector that rewrites to bridgeOut and dmac.
func ecmpMember(dmac uint64) ctrlplane.EntryReq {
	return ctrlplane.EntryReq{Table: "ecmp_ipv4", Keys: []ctrlplane.FieldValue{{Value: nexthopID}},
		Tag: 1, Params: []uint64{bridgeOut, dmac}}
}

func populateBaseErr(sw *Switch) error {
	for _, req := range baseEntries() {
		if _, err := sw.InsertEntry(req); err != nil {
			return err
		}
	}
	return nil
}

func v4Packet(t testing.TB, dst [4]byte, dmac pkt.MAC, ttl uint8) []byte {
	t.Helper()
	raw, err := pkt.Serialize(
		&pkt.Ethernet{Dst: dmac, Src: hostMAC, EtherType: pkt.EtherTypeIPv4},
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
	p, err := sw.ProcessPacket(v4Packet(t, [4]byte{10, 0, 0, 2}, routerMAC, 64), inPort)
	if err != nil {
		t.Fatal(err)
	}
	if p.Drop {
		t.Fatal("packet dropped")
	}
	if p.OutPort != outPort {
		t.Errorf("out port = %d, want %d", p.OutPort, outPort)
	}
	var eth pkt.Ethernet
	if err := eth.Decode(p.Data); err != nil {
		t.Fatal(err)
	}
	if eth.Dst != nhMAC {
		t.Errorf("dmac = %v, want %v", eth.Dst, nhMAC)
	}
	if eth.Src != smacMAC {
		t.Errorf("smac = %v, want %v", eth.Src, smacMAC)
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
	p, err := sw.ProcessPacket(v4Packet(t, [4]byte{10, 1, 2, 3}, routerMAC, 64), inPort)
	if err != nil {
		t.Fatal(err)
	}
	if p.Drop || p.OutPort != outPort {
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
		&pkt.Ethernet{Dst: routerMAC, Src: hostMAC, EtherType: pkt.EtherTypeIPv6},
		&ip, &pkt.TCP{SrcPort: 9, DstPort: 10},
	)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sw.ProcessPacket(raw, inPort)
	if err != nil {
		t.Fatal(err)
	}
	if p.Drop || p.OutPort != outPort {
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
	p, err := sw.ProcessPacket(v4Packet(t, [4]byte{10, 9, 9, 9}, hostMAC, 33), inPort)
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
	if eth.Src != hostMAC {
		t.Errorf("smac rewritten on L2 path: %v", eth.Src)
	}
}

func TestUnknownPortDropped(t *testing.T) {
	sw, _ := newBaseSwitch(t)
	p, err := sw.ProcessPacket(v4Packet(t, [4]byte{10, 0, 0, 2}, routerMAC, 64), 6)
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
	p, err := sw.ProcessPacket(v4Packet(t, [4]byte{10, 9, 9, 9}, pkt.MAC{9, 9, 9, 9, 9, 9}, 64), inPort)
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
	// dmac lookup (bridgeIn, routerMAC) misses -> drop.
	p, err := sw.ProcessPacket(v4Packet(t, [4]byte{192, 168, 0, 1}, routerMAC, 64), inPort)
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
		Keys:  []ctrlplane.FieldValue{{Value: vrfID}, {Value: 0x0A00FFFF}},
		Tag:   1, Params: []uint64{nexthopID},
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
