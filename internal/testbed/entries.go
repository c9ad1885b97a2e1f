package testbed

import (
	"fmt"

	"ipsa/internal/ctrlplane"
	"ipsa/internal/template"
)

type (
	entry = ctrlplane.EntryReq
	fv    = ctrlplane.FieldValue
)

// v6 is an IPv6 address or prefix with the given first two and last
// bytes.
func v6(b0, b1, b15 byte) []byte {
	a := make([]byte, 16)
	a[0], a[1], a[15] = b0, b1, b15
	return a
}

// Base is the base design's unit-test population: host and /16 routes
// for each address family through next hop NexthopID, its rewrite and
// egress MAC, and a bridged path to HostMAC on L2Port.
func Base() []ctrlplane.EntryReq {
	return []entry{
		{Table: "port_map_tbl", Keys: []fv{{Value: InPort}}, Tag: 1, Params: []uint64{IifIndex}},
		{Table: "bd_vrf_tbl", Keys: []fv{{Value: IifIndex}}, Tag: 1, Params: []uint64{BridgeIn, VrfID}},
		{Table: "l2_l3_tbl", Keys: []fv{{Value: BridgeIn}, {Value: RouterMAC.Uint64()}}, Tag: 1},
		{Table: "ipv4_host", Keys: []fv{{Value: VrfID}, {Value: 0x0A000002}}, Tag: 1, Params: []uint64{NexthopID}}, // 10.0.0.2
		{Table: "ipv4_lpm", Keys: []fv{{Value: 0x0A010000}}, PrefixLen: 16, Tag: 1, Params: []uint64{NexthopID}},   // 10.1.0.0/16
		{Table: "ipv6_host", Keys: []fv{{Value: VrfID}, {Bytes: v6(0x20, 0, 0x02)}}, Tag: 1, Params: []uint64{NexthopID}},
		{Table: "ipv6_lpm", Keys: []fv{{Bytes: v6(0x20, 0x01, 0)}}, PrefixLen: 32, Tag: 1, Params: []uint64{NexthopID}},
		{Table: "nexthop_tbl", Keys: []fv{{Value: NexthopID}}, Tag: 1, Params: []uint64{BridgeOut, NhMAC.Uint64()}},
		{Table: "smac_tbl", Keys: []fv{{Value: BridgeOut}}, Tag: 1, Params: []uint64{SmacMAC.Uint64()}},
		{Table: "dmac_tbl", Keys: []fv{{Value: BridgeOut}, {Value: NhMAC.Uint64()}}, Tag: 1, Params: []uint64{OutPort}},
		// L2 path: same bridge as ingress, direct MAC.
		{Table: "dmac_tbl", Keys: []fv{{Value: BridgeIn}, {Value: HostMAC.Uint64()}}, Tag: 1, Params: []uint64{L2Port}},
	}
}

// Filled is the experiments' and the benchmark's population: the base
// forwarding state with one covering 10.0.0.0/8 route and the 2001::/32
// route, plus n filler entries in each of ipv4_host and ipv4_lpm, so
// that repopulation cost is visible in the P4 flow. The order is part of
// the benchmark workloads' definition.
func Filled(n int) []ctrlplane.EntryReq {
	reqs := []entry{
		{Table: "port_map_tbl", Keys: []fv{{Value: InPort}}, Tag: 1, Params: []uint64{IifIndex}},
		{Table: "bd_vrf_tbl", Keys: []fv{{Value: IifIndex}}, Tag: 1, Params: []uint64{BridgeIn, VrfID}},
		{Table: "l2_l3_tbl", Keys: []fv{{Value: BridgeIn}, {Value: RouterMAC.Uint64()}}, Tag: 1},
		{Table: "nexthop_tbl", Keys: []fv{{Value: NexthopID}}, Tag: 1, Params: []uint64{BridgeOut, NhMAC.Uint64()}},
		{Table: "smac_tbl", Keys: []fv{{Value: BridgeOut}}, Tag: 1, Params: []uint64{SmacMAC.Uint64()}},
		{Table: "dmac_tbl", Keys: []fv{{Value: BridgeOut}, {Value: NhMAC.Uint64()}}, Tag: 1, Params: []uint64{OutPort}},
		{Table: "dmac_tbl", Keys: []fv{{Value: BridgeIn}, {Value: HostMAC.Uint64()}}, Tag: 1, Params: []uint64{L2Port}},
		// Covering route for the generated traffic.
		{Table: "ipv4_lpm", Keys: []fv{{Value: 0x0A000000}}, PrefixLen: 8, Tag: 1, Params: []uint64{NexthopID}},
		{Table: "ipv6_lpm", Keys: []fv{{Bytes: v6(0x20, 0x01, 0)}}, PrefixLen: 32, Tag: 1, Params: []uint64{NexthopID}},
	}
	for i := 0; i < n; i++ {
		reqs = append(reqs,
			entry{Table: "ipv4_host", Keys: []fv{{Value: VrfID}, {Value: uint64(0x0B000000 + i)}}, Tag: 1, Params: []uint64{NexthopID}},
			entry{Table: "ipv4_lpm", Keys: []fv{{Value: uint64(0x0C000000 + i<<8)}}, PrefixLen: 24, Tag: 1, Params: []uint64{NexthopID}})
	}
	return reqs
}

// SID is C2's local segment ID, the outer destination of SRv6 traffic.
var SID = [16]byte{0: 0x20, 15: 0xAA}

// UseCase is the population of the tables a use case adds, with n
// entries in C3's flow_probe.
func UseCase(uc string, n int) []ctrlplane.EntryReq {
	var reqs []entry
	switch uc {
	case "C1":
		// Next-hop group NexthopID gets two members in each selector;
		// the second member's MAC needs a dmac entry.
		for _, tbl := range []string{"ecmp_ipv4", "ecmp_ipv6"} {
			for m := uint64(0); m < 2; m++ {
				reqs = append(reqs, entry{Table: tbl, Keys: []fv{{Value: NexthopID}}, Tag: 1, Params: []uint64{BridgeOut, NhMAC.Uint64() + m}})
			}
		}
		reqs = append(reqs, entry{Table: "dmac_tbl", Keys: []fv{{Value: BridgeOut}, {Value: NhMAC.Uint64() + 1}}, Tag: 1, Params: []uint64{4}})
	case "C2":
		reqs = append(reqs,
			entry{Table: "local_sid", Keys: []fv{{Bytes: SID[:]}}, Tag: 1},
			entry{Table: "end_transit", Keys: []fv{{Bytes: v6(0xfd, 0, 0)}}, PrefixLen: 8, Tag: 1, Params: []uint64{NexthopID}})
	case "C3":
		for i := 0; i < n; i++ {
			reqs = append(reqs, entry{Table: "flow_probe", Keys: []fv{{Value: 0x0A000001}, {Value: uint64(0x0A010000 + i)}},
				Tag: 1, Params: []uint64{uint64(i % 1024), 1 << 30}})
		}
	}
	return reqs
}

// ECMPMember is a member of next-hop group NexthopID in ecmp.script's
// ecmp_ipv4 selector that rewrites to BridgeOut and dmac.
func ECMPMember(dmac uint64) ctrlplane.EntryReq {
	return entry{Table: "ecmp_ipv4", Keys: []fv{{Value: NexthopID}}, Tag: 1, Params: []uint64{BridgeOut, dmac}}
}

// VLANBind maps VLAN VID to BridgeIn in VrfID in vlan.script's
// vlan_bind table.
func VLANBind() ctrlplane.EntryReq {
	return entry{Table: "vlan_bind", Keys: []fv{{Value: VID}}, Tag: 1, Params: []uint64{BridgeIn, VrfID}}
}

// Install inserts reqs in order. With a design, entries for tables the
// design does not have (nexthop_tbl after ecmp.script swapped it for a
// selector) are skipped.
func Install(t EntryTarget, cfg *template.Config, reqs []ctrlplane.EntryReq) error {
	for _, req := range reqs {
		if cfg != nil && cfg.Tables[req.Table] == nil {
			continue
		}
		if _, err := t.InsertEntry(req); err != nil {
			return fmt.Errorf("populate %s: %w", req.Table, err)
		}
	}
	return nil
}

// Populate is Install failing t on error.
func Populate(t T, sw EntryTarget, cfg *template.Config, reqs []ctrlplane.EntryReq) {
	if err := Install(sw, cfg, reqs); err != nil {
		t.Helper()
		t.Fatal(err)
	}
}
