// Use case C1 (paper Sec. 4.2): insert Equal-Cost Multi-Path routing into
// a running switch. Traffic flows before, during and after the update;
// only one TSP template is rewritten, existing table entries survive, and
// afterwards flows spread over two equal-cost links.
//
// Run from the repository root:
//
//	go run ./examples/ecmp_insitu
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"ipsa/internal/compiler/backend"
	"ipsa/internal/core"
	"ipsa/internal/ctrlplane"
	"ipsa/internal/experiments"
	"ipsa/internal/ipbm"
	"ipsa/internal/pkt"
	"ipsa/internal/trafficgen"
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
	if err := experiments.PopulateBase(sw, ctl.CurrentConfig(), 16); err != nil {
		log.Fatal(err)
	}

	// Background traffic: routed v4 flows.
	gcfg := trafficgen.DefaultConfig()
	gcfg.V4Base = [4]byte{10, 1, 0, 0}
	gen, err := trafficgen.New(gcfg)
	if err != nil {
		log.Fatal(err)
	}
	var sent, delivered atomic.Uint64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			p, err := sw.ProcessPacket(gen.Next(), 1)
			if err != nil {
				log.Fatal(err)
			}
			sent.Add(1)
			if !p.Drop {
				delivered.Add(1)
			}
		}
	}()
	time.Sleep(20 * time.Millisecond)
	before := delivered.Load()
	fmt.Printf("traffic running: %d packets delivered\n", before)

	// The in-situ update: load ECMP, relink the pipeline (Fig. 5b).
	script, err := os.ReadFile("testdata/ecmp.script")
	if err != nil {
		log.Fatal(err)
	}
	loader := func(name string) (string, error) {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		return string(b), err
	}
	rep, err := ctl.ApplyUpdate(string(script), loader)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("update applied while forwarding:\n")
	fmt.Printf("  t_C (incremental compile) = %v\n", rep.CompileTime)
	fmt.Printf("  t_L (device patch)        = %v\n", rep.LoadTime)
	fmt.Printf("  stages: +%v -%v\n", rep.Compiler.AddedStages, rep.Compiler.RemovedStages)
	fmt.Printf("  TSP templates rewritten: %v (of 16)\n", rep.Compiler.RewrittenTSPs)
	fmt.Printf("  only new tables need population: %v\n", rep.Compiler.NewTables)
	fmt.Printf("  pipeline stall so far: %v\n", sw.Pipeline().StallTime())

	// Two equal-cost members for nexthop group 7: a selector's entries
	// are its members, keyed by their group.
	nhA := pkt.MAC{0x02, 0, 0, 0, 0, 0x03}
	nhB := pkt.MAC{0x02, 0, 0, 0, 0, 0x33}
	for _, m := range []pkt.MAC{nhA, nhB} {
		if _, err := ctl.InsertEntry(ctrlplane.EntryReq{
			Table: "ecmp_ipv4", Keys: []ctrlplane.FieldValue{{Value: 7}},
			Tag: 1, Params: []uint64{200, m.Uint64()},
		}); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := ctl.InsertEntry(ctrlplane.EntryReq{
		Table: "dmac_tbl",
		Keys:  []ctrlplane.FieldValue{{Value: 200}, {Value: nhB.Uint64()}},
		Tag:   1, Params: []uint64{4},
	}); err != nil {
		log.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	<-done
	fmt.Printf("traffic total: %d sent, %d delivered\n", sent.Load(), delivered.Load())

	// Show the spread: 64 distinct flows over the two members.
	spread := map[pkt.MAC]int{}
	for i := 0; i < 64; i++ {
		raw, _ := pkt.Serialize(
			&pkt.Ethernet{Dst: experiments.RouterMAC, Src: pkt.MAC{2, 0, 0, 0, 0, 0xFE}, EtherType: pkt.EtherTypeIPv4},
			&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoTCP, Src: [4]byte{10, 0, 0, 1}, Dst: [4]byte{10, 1, byte(i), byte(3 * i)}},
			&pkt.TCP{SrcPort: uint16(1000 + i), DstPort: 80},
		)
		p, err := sw.ProcessPacket(raw, 1)
		if err != nil {
			log.Fatal(err)
		}
		var eth pkt.Ethernet
		_ = eth.Decode(p.Data)
		spread[eth.Dst]++
	}
	fmt.Printf("ECMP spread over 64 flows: %s=%d %s=%d\n", nhA, spread[nhA], nhB, spread[nhB])
}
