package ipbm

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"ipsa/internal/compiler/backend"
	"ipsa/internal/ctrlplane"
	"ipsa/internal/pkt"
	"ipsa/internal/testbed"
	"ipsa/internal/trafficgen"
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
// design with VLAN support on top (the largest parsing surface), with the
// base and C2 entries, VLAN testbed.VID bound, plus extra entries. No
// testing.T plumbing so it can run inside the fuzz engine's worker.
func diffFuzzBringUp(extra []ctrlplane.EntryReq) (*Switch, *Switch, error) {
	bed := testbed.Repo()
	w, err := bed.Workspace(testbed.Compiler())
	if err != nil {
		return nil, nil, err
	}
	var rep *backend.UpdateReport
	for _, script := range []string{"srv6.script", "vlan.script"} {
		if rep, err = bed.Update(w, script); err != nil {
			return nil, nil, err
		}
	}
	entries := append(testbed.Base(), testbed.UseCase("C2", 0)...)
	entries = append(append(entries, testbed.VLANBind()), extra...)
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
		return sw, testbed.Install(sw, nil, entries)
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
// tiers: the verdict bits, egress port and packet bytes, then the user
// metadata.
func comparePacket(pa, pb *pkt.Packet) error {
	if err := testbed.Compare(pa, pb); err != nil {
		return err
	}
	if !bytes.Equal(pa.Meta, pb.Meta) {
		return fmt.Errorf("metadata diverged:\nfused:  %x\ninterp: %x", pa.Meta, pb.Meta)
	}
	return nil
}

// addDiffSeeds adds the differential fuzz targets' seed corpus: empty and
// runt frames, one frame of each testbed profile (routed SRv6 frames run
// the End stages), VLAN-tagged routed frames, the same with an upstream
// INT hop, and every fourth prefix of a routed IPv4 and an SRv6 frame.
func addDiffSeeds(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0x02, 0, 0, 0, 0, 1}, uint8(1))
	for _, hops := range []int{0, 1} {
		frames := testbed.Frames(f, 1, hops, testbed.CrossTarget...)
		frames = append(frames, testbed.Tagged(testbed.VID, frames[:2])...)
		for _, fr := range frames {
			f.Add(fr, uint8(testbed.InPort))
		}
	}
	for _, fr := range testbed.Frames(f, 1, 0, trafficgen.IPv4Routed, trafficgen.SRv6) {
		for n := 4; n < len(fr); n += 4 {
			f.Add(fr[:n], uint8(testbed.InPort))
		}
	}
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
		if err := comparePacket(pf, pi); err != nil {
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
		mac := testbed.NhMAC.Uint64() + 1 + uint64(i)
		reqs = append(reqs,
			ctrlplane.EntryReq{
				Table: "nexthop_tbl", Keys: []ctrlplane.FieldValue{{Value: uint64(1000 + i)}},
				Tag: 1, Params: []uint64{testbed.BridgeOut, mac},
			},
			ctrlplane.EntryReq{
				Table: "dmac_tbl", Keys: []ctrlplane.FieldValue{{Value: testbed.BridgeOut}, {Value: mac}},
				Tag: 1, Params: []uint64{testbed.OutPort},
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
	host := v4Packet(f, [4]byte{10, 0, 0, 2}, testbed.RouterMAC, 64)
	routed := v4Packet(f, [4]byte{10, 1, 2, 3}, testbed.RouterMAC, 64)
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
	for _, script := range testbed.Scripts {
		name := strings.TrimSuffix(script, ".script")
		if name == "" {
			name = "base"
		}
		t.Run(name, func(t *testing.T) {
			cfg := testbed.Config(t, script)
			mk := func(tier func(*Options)) *Switch {
				sw := switchOn(t, cfg, tier)
				if script == "ecmp.script" {
					insert(t, sw, testbed.ECMPMember(testbed.NhMAC.Uint64()))
				}
				return sw
			}
			frames := testbed.Frames(t, 48, 0, testbed.Mix...)
			floor := len(frames)
			if script == "ecmp.script" {
				floor = 140 // the one member is IPv4's: the 52 IPv6 flows drop
			}
			fused, interp := mk(nil), mk(interpreted)
			if err := testbed.Diff(fused, interp, frames, floor); err != nil {
				t.Fatalf("fused vs interp: %v", err)
			}
			if ff, fi := faultSnapshot(fused), faultSnapshot(interp); ff != fi {
				t.Fatalf("fault counters diverged: fused=%v interp=%v", ff, fi)
			}
		})
	}
}
