package ipbm

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ipsa/internal/compiler/backend"
	"ipsa/internal/ctrlplane"
	"ipsa/internal/pkt"
	"ipsa/internal/rp4/parser"
	"ipsa/internal/tsp"
)

// The fused closures are an optimization over the reference tree
// interpreter; the two executor tiers must be bit-for-bit equivalent.
// These tests hold that line two ways: differential fuzz targets over
// arbitrary packet bytes — one packet at a time, and in stage-major
// batches over large tables — and a deterministic sweep
// over every shipped example design with realistic traffic.

var (
	diffFuzzOnce   sync.Once
	diffFuzzFused  *Switch
	diffFuzzInterp *Switch // the oracle

	batchFuzzOnce   sync.Once
	batchFuzzFused  *Switch
	batchFuzzInterp *Switch // the oracle
	batchFuzzErr    error
)

// faultSnapshot flattens the executor fault counters for comparison.
func faultSnapshot(sw *Switch) [3]uint64 {
	f := sw.Faults()
	return [3]uint64{
		f.InvalidHeaderAccess.Load(),
		f.RegisterFault.Load(),
		f.BadTemplate.Load(),
	}
}

// diffFuzzBringUp builds a fused/interpreter switch pair running the SRv6
// design (the largest parsing surface) with populated base tables plus
// extra entries. No testing.T plumbing so it can run inside the fuzz
// engine's worker.
func diffFuzzBringUp(extra []ctrlplane.EntryReq) (*Switch, *Switch, error) {
	read := func(name string) (string, error) {
		b, err := os.ReadFile(filepath.Join("../../testdata", name))
		return string(b), err
	}
	src, err := read("base_l2l3.rp4")
	if err != nil {
		return nil, nil, err
	}
	prog, err := parser.Parse("base_l2l3.rp4", src)
	if err != nil {
		return nil, nil, err
	}
	copts := backend.DefaultOptions()
	copts.NumTSPs = 16
	w, err := backend.NewWorkspace(prog, copts)
	if err != nil {
		return nil, nil, err
	}
	scriptSrc, err := read("srv6.script")
	if err != nil {
		return nil, nil, err
	}
	rep, err := w.ApplyScript(scriptSrc, read)
	if err != nil {
		return nil, nil, err
	}
	mk := func(mode tsp.ExecMode) (*Switch, error) {
		o := DefaultOptions()
		o.Exec = mode
		sw, err := New(o)
		if err != nil {
			return nil, err
		}
		if _, err := sw.ApplyConfig(rep.Config); err != nil {
			return nil, err
		}
		if err := populateBaseErr(sw); err != nil {
			return nil, err
		}
		for _, req := range extra {
			if _, err := sw.InsertEntry(req); err != nil {
				return nil, fmt.Errorf("insert into %s: %w", req.Table, err)
			}
		}
		return sw, nil
	}
	fused, err := mk(tsp.ExecFused)
	if err != nil {
		return nil, nil, err
	}
	interp, err := mk(tsp.ExecInterp)
	if err != nil {
		return nil, nil, err
	}
	return fused, interp, nil
}

// comparePacket demands identical observable outcomes from two executor
// tiers: packet bytes, user metadata, verdict bits and egress port. The
// names label the tiers in the failure report.
func comparePacket(aName, bName string, pa, pb *pkt.Packet) error {
	if pa.Drop != pb.Drop || pa.ToCPU != pb.ToCPU || pa.OutPort != pb.OutPort {
		return fmt.Errorf("verdict diverged: %s={drop:%v cpu:%v out:%d} %s={drop:%v cpu:%v out:%d}",
			aName, pa.Drop, pa.ToCPU, pa.OutPort, bName, pb.Drop, pb.ToCPU, pb.OutPort)
	}
	if !bytes.Equal(pa.Data, pb.Data) {
		return fmt.Errorf("packet bytes diverged:\n%s: %x\n%s: %x", aName, pa.Data, bName, pb.Data)
	}
	if !bytes.Equal(pa.Meta, pb.Meta) {
		return fmt.Errorf("metadata diverged:\n%s: %x\n%s: %x", aName, pa.Meta, bName, pb.Meta)
	}
	return nil
}

// addDiffSeeds adds the differential fuzz targets' seed corpus: empty and
// runt frames, a routed SRv6 packet, a routed IPv4 packet and a truncated
// one.
func addDiffSeeds(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0x02, 0, 0, 0, 0, 1}, uint8(1))
	srv6, _ := pkt.Serialize(
		&pkt.Ethernet{Dst: routerMAC, Src: hostMAC, EtherType: pkt.EtherTypeIPv6},
		&pkt.IPv6{NextHeader: pkt.IPProtoRouting, HopLimit: 64},
		&pkt.SRH{NextHeader: pkt.IPProtoTCP, SegmentsLeft: 1, Segments: [][16]byte{{1}, {2}}},
		&pkt.TCP{SrcPort: 1, DstPort: 2},
	)
	f.Add(srv6, uint8(1))
	v4 := []byte{
		0x02, 0, 0, 0, 0, 0x01, 0x02, 0, 0, 0, 0, 0x02, 0x08, 0x00,
		0x45, 0, 0, 20, 0, 0, 0, 0, 64, 6, 0, 0, 10, 0, 0, 1, 10, 0, 0, 2,
	}
	f.Add(v4, uint8(1))
	// Truncated v4 header: exercises the invalid-header fault paths.
	f.Add(v4[:16], uint8(1))
}

// FuzzFusedVsInterp feeds arbitrary packet bytes through the fused and
// interpreter executors and demands bit-identical outcomes, including the
// fault counters (faults are part of the observable contract). Under plain
// `go test` the seed corpus runs as regression tests.
func FuzzFusedVsInterp(f *testing.F) {
	addDiffSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, port uint8) {
		diffFuzzOnce.Do(func() { diffFuzzFused, diffFuzzInterp, _ = diffFuzzBringUp(nil) })
		if diffFuzzFused == nil || diffFuzzInterp == nil {
			t.Skip("switch bring-up failed")
		}
		in := int(port) % 8
		// Both switches outlive a -count iteration, so their absolute fault
		// totals include earlier inputs; compare the per-packet deltas.
		beforeF, beforeI := faultSnapshot(diffFuzzFused), faultSnapshot(diffFuzzInterp)
		pf, err := diffFuzzFused.ProcessPacket(append([]byte(nil), data...), in)
		if err != nil {
			t.Fatalf("fused ProcessPacket: %v", err)
		}
		pi, err := diffFuzzInterp.ProcessPacket(append([]byte(nil), data...), in)
		if err != nil {
			t.Fatalf("interp ProcessPacket: %v", err)
		}
		if err := comparePacket("fused", "interp", pf, pi); err != nil {
			t.Fatal(err)
		}
		df, di := faultDelta(faultSnapshot(diffFuzzFused), beforeF), faultDelta(faultSnapshot(diffFuzzInterp), beforeI)
		if df != di {
			t.Fatalf("fault counters diverged: fused=%v interp=%v (invalid_header, register, bad_template)", df, di)
		}
	})
}

// largeTableEntries takes the nexthop and dmac tables' exact engines past
// a cache-resident slot array.
const largeTableEntries = 3000

// largeTableEntriesFor is the batch fuzz target's extra population: enough
// nexthops and egress MACs that the nexthop and dmac stages, each applying
// one word-keyed table, probe tables that no longer fit the cache.
func largeTableEntriesFor() []ctrlplane.EntryReq {
	var reqs []ctrlplane.EntryReq
	for i := 0; i < largeTableEntries; i++ {
		mac := nhMAC.Uint64() + 1 + uint64(i)
		reqs = append(reqs,
			ctrlplane.EntryReq{
				Table: "nexthop_tbl", Keys: []ctrlplane.FieldValue{{Value: uint64(1000 + i)}},
				Tag: 1, Params: []uint64{bridgeOut, mac},
			},
			ctrlplane.EntryReq{
				Table: "dmac_tbl", Keys: []ctrlplane.FieldValue{{Value: bridgeOut}, {Value: mac}},
				Tag: 1, Params: []uint64{outPort},
			})
	}
	return reqs
}

// egressFrames drains sw's egress rings, one slice of frames per port in
// transmit order, and then its punt queue into a last slice.
func egressFrames(sw *Switch) [][][]byte {
	out := make([][][]byte, sw.Ports().Len()+1)
	for i := 0; i < sw.Ports().Len(); i++ {
		p, _ := sw.Ports().Port(i)
		for {
			d, ok := p.Drain()
			if !ok {
				break
			}
			out[i] = append(out[i], d)
		}
	}
	punts := len(out) - 1
	for {
		select {
		case p := <-sw.PuntQueue():
			out[punts] = append(out[punts], p.Data)
		default:
			return out
		}
	}
}

// FuzzFusedBatchVsInterp holds the fused tier's batch path to the
// interpreter on arbitrary packet bytes. Each input runs in one
// ForwardBatch between routed IPv4 frames, so the stage-major executor
// carries the fuzzed frame's faults and outcomes beside clean packets
// through every stage, over 3000-entry nexthop and dmac tables. Both
// switches must transmit the same frames on the same ports, punt the
// same packets and count the same faults. Under plain `go test` the seed
// corpus runs as regression tests.
func FuzzFusedBatchVsInterp(f *testing.F) {
	addDiffSeeds(f)
	host := v4Packet(f, [4]byte{10, 0, 0, 2}, routerMAC, 64)
	routed := v4Packet(f, [4]byte{10, 1, 2, 3}, routerMAC, 64)
	f.Fuzz(func(t *testing.T, data []byte, port uint8) {
		batchFuzzOnce.Do(func() { batchFuzzFused, batchFuzzInterp, batchFuzzErr = diffFuzzBringUp(largeTableEntriesFor()) })
		if batchFuzzErr != nil {
			t.Fatalf("switch bring-up: %v", batchFuzzErr)
		}
		in := int(port) % 8
		batch := func() [][]byte {
			return cloneFrames([][]byte{host, data, routed, data, data, host})
		}
		beforeF, beforeI := faultSnapshot(batchFuzzFused), faultSnapshot(batchFuzzInterp)
		sentF, errF := batchFuzzFused.ForwardBatch(batch(), in)
		sentI, errI := batchFuzzInterp.ForwardBatch(batch(), in)
		if sentF != sentI || (errF == nil) != (errI == nil) {
			t.Fatalf("batch outcome diverged: fused sent %d (err %v), interp sent %d (err %v)", sentF, errF, sentI, errI)
		}
		outF, outI := egressFrames(batchFuzzFused), egressFrames(batchFuzzInterp)
		for i := range outF {
			if len(outF[i]) != len(outI[i]) {
				t.Fatalf("egress %d of %d: fused %d frames, interp %d", i, len(outF)-1, len(outF[i]), len(outI[i]))
			}
			for j := range outF[i] {
				if !bytes.Equal(outF[i][j], outI[i][j]) {
					t.Fatalf("egress %d of %d, frame %d diverged:\nfused:  %x\ninterp: %x", i, len(outF)-1, j, outF[i][j], outI[i][j])
				}
			}
		}
		df, di := faultDelta(faultSnapshot(batchFuzzFused), beforeF), faultDelta(faultSnapshot(batchFuzzInterp), beforeI)
		if df != di {
			t.Fatalf("fault counters diverged: fused=%v interp=%v (invalid_header, register, bad_template)", df, di)
		}
	})
}

// faultDelta subtracts a prior fault snapshot from a later one.
func faultDelta(after, before [3]uint64) [3]uint64 {
	for i := range after {
		after[i] -= before[i]
	}
	return after
}

// TestDifferentialFusedVsInterp sweeps every shipped design: for each,
// a fused and an interpreter switch process the same realistic traffic
// mix and must agree on every outcome and fault count.
func TestDifferentialFusedVsInterp(t *testing.T) {
	designs := []struct {
		name   string
		script string // applied on top of the base design; "" = base only
	}{
		{"base", ""},
		{"acl", "acl.script"},
		{"ecmp", "ecmp.script"},
		{"flowprobe", "flowprobe.script"},
		{"srv6", "srv6.script"},
		{"vlan", "vlan.script"},
	}
	for _, d := range designs {
		t.Run(d.name, func(t *testing.T) {
			w := newBaseWorkspace(t)
			cfg := w.Current().Config
			if d.script != "" {
				rep, err := w.ApplyScript(script(t, d.script), loader(t))
				if err != nil {
					t.Fatal(err)
				}
				cfg = rep.Config
			}
			mk := func(mode tsp.ExecMode) *Switch {
				o := DefaultOptions()
				o.Exec = mode
				sw, err := New(o)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sw.ApplyConfig(cfg); err != nil {
					t.Fatal(err)
				}
				// Some scripts swap tables out (ecmp replaces
				// nexthop_tbl with a selector); install what the
				// design still has — identically on both switches.
				for _, req := range baseEntries() {
					_, _ = sw.InsertEntry(req)
				}
				if d.name == "ecmp" {
					if _, err := sw.InsertEntry(ecmpMember(nhMAC.Uint64())); err != nil {
						t.Fatal(err)
					}
				}
				return sw
			}
			fused, interp := mk(tsp.ExecFused), mk(tsp.ExecInterp)
			runDiff(t, fused, interp, diffTraffic(t, 48), d.name+" fused vs interp")
			if ff, fi := faultSnapshot(fused), faultSnapshot(interp); ff != fi {
				t.Fatalf("%s: fault counters diverged: fused=%v interp=%v", d.name, ff, fi)
			}
		})
	}
}
