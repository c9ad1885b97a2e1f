// Quickstart: compile the base L2/L3 design, install it on an in-process
// ipbm switch, populate the tables, and forward a packet.
//
// Run from the repository root:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"ipsa/internal/compiler/backend"
	"ipsa/internal/core"
	"ipsa/internal/ctrlplane"
	"ipsa/internal/ipbm"
	"ipsa/internal/pkt"
)

func main() {
	// 1. An IPSA software switch: 16 TSPs, 8 ports.
	sw, err := ipbm.New(ipbm.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	// 2. Compile and install the base design through the in-situ engine.
	src, err := os.ReadFile("testdata/base_l2l3.rp4")
	if err != nil {
		log.Fatal("run from the repository root: ", err)
	}
	opts := backend.DefaultOptions()
	opts.NumTSPs = 16
	ctl, err := core.NewController("base_l2l3.rp4", string(src), opts, sw)
	if err != nil {
		log.Fatal(err)
	}
	cfg := ctl.CurrentConfig()
	fmt.Printf("installed %d stages over %d tables; %d TSPs active\n",
		len(cfg.Stages), len(cfg.Tables), sw.Stats().ActiveTSPs)

	// 3. Populate the forwarding state: port 1 -> interface 10 -> bridge
	// 100/VRF 1; route 10.0.0.0/8 via nexthop 7 out of port 3.
	routerMAC := pkt.MAC{0x02, 0, 0, 0, 0, 0x01}
	nhMAC := pkt.MAC{0x02, 0, 0, 0, 0, 0x03}
	smac := pkt.MAC{0x02, 0, 0, 0, 0, 0x04}
	entries := []ctrlplane.EntryReq{
		{Table: "port_map_tbl", Keys: []ctrlplane.FieldValue{{Value: 1}}, Tag: 1, Params: []uint64{10}},
		{Table: "bd_vrf_tbl", Keys: []ctrlplane.FieldValue{{Value: 10}}, Tag: 1, Params: []uint64{100, 1}},
		{Table: "l2_l3_tbl", Keys: []ctrlplane.FieldValue{{Value: 100}, {Value: routerMAC.Uint64()}}, Tag: 1},
		{Table: "ipv4_lpm", Keys: []ctrlplane.FieldValue{{Value: 0x0A000000}}, PrefixLen: 8, Tag: 1, Params: []uint64{7}},
		{Table: "nexthop_tbl", Keys: []ctrlplane.FieldValue{{Value: 7}}, Tag: 1, Params: []uint64{200, nhMAC.Uint64()}},
		{Table: "smac_tbl", Keys: []ctrlplane.FieldValue{{Value: 200}}, Tag: 1, Params: []uint64{smac.Uint64()}},
		{Table: "dmac_tbl", Keys: []ctrlplane.FieldValue{{Value: 200}, {Value: nhMAC.Uint64()}}, Tag: 1, Params: []uint64{3}},
	}
	for _, e := range entries {
		if _, err := ctl.InsertEntry(e); err != nil {
			log.Fatalf("insert %s: %v", e.Table, err)
		}
	}

	// 4. Forward a packet addressed to the router.
	raw, err := pkt.Serialize(
		&pkt.Ethernet{Dst: routerMAC, Src: pkt.MAC{2, 0, 0, 0, 0, 0xFE}, EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoTCP, Src: [4]byte{10, 0, 0, 1}, Dst: [4]byte{10, 7, 7, 7}},
		&pkt.TCP{SrcPort: 12345, DstPort: 80},
		pkt.Payload("hello, IPSA"),
	)
	if err != nil {
		log.Fatal(err)
	}
	p, err := sw.ProcessPacket(raw, 1)
	if err != nil {
		log.Fatal(err)
	}
	var eth pkt.Ethernet
	var ip pkt.IPv4
	_ = eth.Decode(p.Data)
	_ = ip.Decode(p.Data[pkt.EthernetLen:])
	fmt.Printf("in port 1 -> out port %d\n", p.OutPort)
	fmt.Printf("dmac rewritten to %s, smac to %s, ttl %d -> %d\n", eth.Dst, eth.Src, 64, ip.TTL)

	stats, _ := sw.TableStats("ipv4_lpm")
	fmt.Printf("ipv4_lpm: %d hits, %d misses\n", stats.Hits, stats.Misses)
}
