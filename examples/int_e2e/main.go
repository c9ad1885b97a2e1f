// In-band network telemetry end to end: enable INT on a running switch
// via the control channel (an in-situ reconfiguration — no restart, no
// table loss), push routed traffic through it, and read back the
// sink-decoded per-hop reports and the reconfiguration audit trail the
// same way `rp4ctl int report` and `rp4ctl events` would.
//
// Run from the repository root:
//
//	go run ./examples/int_e2e
package main

import (
	"fmt"
	"log"
	"log/slog"
	"os"
	"time"

	"ipsa/internal/compiler/backend"
	"ipsa/internal/core"
	"ipsa/internal/ctrlplane"
	"ipsa/internal/experiments"
	"ipsa/internal/intmd"
	"ipsa/internal/ipbm"
	"ipsa/internal/pkt"
	"ipsa/internal/telemetry"
)

func main() {
	sw, err := ipbm.New(ipbm.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
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
	if err := experiments.PopulateBase(sw, ctl.CurrentConfig(), 4); err != nil {
		log.Fatal(err)
	}

	// Drive everything over the real control channel, like rp4ctl does.
	srv := ctrlplane.NewServer(sw, slog.Default())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	cl, err := ctrlplane.Dial(addr, 2*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	if err := cl.IntEnable(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("INT enabled in situ: stage programs rewritten under a pipeline drain,")
	fmt.Println("table entries and registers untouched")

	// Routed traffic: each packet traverses the L2/L3 ingress and egress
	// stages, each of which stamps one hop record.
	raw, _ := pkt.Serialize(
		&pkt.Ethernet{Dst: experiments.RouterMAC, Src: pkt.MAC{2, 0, 0, 0, 0, 0xFE}, EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoTCP, Src: [4]byte{10, 0, 0, 1}, Dst: [4]byte{10, 7, 7, 7}},
		&pkt.TCP{SrcPort: 999, DstPort: 80},
	)
	for i := 0; i < 3; i++ {
		p, err := sw.ProcessPacket(append([]byte(nil), raw...), 1)
		if err != nil {
			log.Fatal(err)
		}
		if p.Drop {
			log.Fatal("routed packet dropped")
		}
		// The sink stripped the INT trailer: what leaves the switch is the
		// ordinary packet.
		if len(p.Data) != len(raw) {
			log.Fatalf("trailer escaped: %d bytes out vs %d in", len(p.Data), len(raw))
		}
	}

	var reports []intmd.Report
	if err := cl.View("int", telemetry.Query{Max: 1}, &reports); err != nil {
		log.Fatal(err)
	}
	if len(reports) == 0 {
		log.Fatal("no INT reports at the sink")
	}
	rep := reports[0]
	fmt.Printf("\nnewest INT report (in=%d out=%d path=%s):\n", rep.InPort, rep.OutPort, rep.Path())
	for _, h := range rep.Hops {
		fmt.Printf("  sw%-2d tsp%-2d %-16s latency=%-10s qdepth=%d\n",
			h.SwitchID, h.TSP, h.Stage,
			fmt.Sprintf("%.3fus", float64(h.LatencyNanos)/1e3), h.QDepth)
	}
	if len(rep.Hops) < 3 {
		log.Fatalf("expected >= 3 stamping TSPs, got %d", len(rep.Hops))
	}

	if err := cl.IntDisable(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nINT disabled in situ; reconfiguration audit trail:")
	var events []telemetry.Event
	if err := cl.View("events", telemetry.Query{}, &events); err != nil {
		log.Fatal(err)
	}
	for _, ev := range events {
		fmt.Printf("  #%d %-12s cfg=%s tsps=%d drain=%.3fms in_flight=%d\n",
			ev.Seq, ev.Kind, ev.ConfigHash, ev.TSPsWritten,
			float64(ev.DrainNanos)/1e6, ev.InFlight)
	}
}
