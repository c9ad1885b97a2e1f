package pisa

import (
	"fmt"
	"sync"
	"testing"

	"ipsa/internal/ctrlplane"
	"ipsa/internal/pkt"
	"ipsa/internal/template"
	"ipsa/internal/testbed"
	"ipsa/internal/tsp"
	"ipsa/internal/verdict"
)

// populatedTables are the base entries' tables the routed frame of v4pkt
// hits.
var populatedTables = []string{"port_map_tbl", "bd_vrf_tbl", "l2_l3_tbl", "ipv4_host", "nexthop_tbl", "smac_tbl", "dmac_tbl"}

func v4pkt(t *testing.T) []byte {
	t.Helper()
	raw, err := pkt.Serialize(
		&pkt.Ethernet{Dst: testbed.RouterMAC, Src: testbed.HostMAC, EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoTCP, Src: [4]byte{10, 0, 0, 1}, Dst: [4]byte{10, 0, 0, 2}},
		&pkt.TCP{SrcPort: 1, DstPort: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestPISAForwardsBaseDesign routes one frame through the base design on
// each executor tier. Both tiers forward it, and both report the same
// per-table hits and misses, with a hit on every table the frame applies.
func TestPISAForwardsBaseDesign(t *testing.T) {
	cfg := testbed.P4Full(t, "")
	stats := map[tsp.ExecMode]map[string]ctrlplane.TableStats{}
	for _, mode := range []tsp.ExecMode{tsp.ExecFused, tsp.ExecInterp} {
		t.Run(mode.String(), func(t *testing.T) {
			opts := DefaultOptions()
			opts.Exec = mode
			sw, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			st, err := sw.ApplyConfig(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !st.Full || st.TSPsWritten != 16 {
				t.Errorf("apply: %+v", st)
			}
			testbed.Populate(t, sw, nil, testbed.Base())
			p, err := sw.ProcessPacket(v4pkt(t), 1)
			if err != nil {
				t.Fatal(err)
			}
			if p.Drop || p.OutPort != 3 {
				t.Fatalf("drop=%v out=%d", p.Drop, p.OutPort)
			}
			var ip pkt.IPv4
			if err := ip.Decode(p.Data[pkt.EthernetLen:]); err != nil {
				t.Fatal(err)
			}
			if ip.TTL != 63 {
				t.Errorf("ttl = %d", ip.TTL)
			}
			if sw.Faults().BadTemplate.Load() != 0 {
				t.Errorf("faults: %+v", sw.Faults())
			}
			proc, drop := sw.Stats()
			if proc != 1 || drop != 0 {
				t.Errorf("stats: %d/%d", proc, drop)
			}
			stats[mode] = map[string]ctrlplane.TableStats{}
			for tn := range cfg.Tables {
				ts, err := sw.TableStats(tn)
				if err != nil {
					t.Fatal(err)
				}
				stats[mode][tn] = *ts
			}
			for _, tn := range populatedTables {
				if stats[mode][tn].Hits == 0 {
					t.Errorf("%s: no hit", tn)
				}
			}
		})
	}
	for tn, fused := range stats[tsp.ExecFused] {
		if interp := stats[tsp.ExecInterp][tn]; fused != interp {
			t.Errorf("%s: fused %+v, interp %+v", tn, fused, interp)
		}
	}
}

func TestPISAFullReloadLosesEntries(t *testing.T) {
	sw, _ := New(DefaultOptions())
	cfg := testbed.P4Full(t, "")
	if _, err := sw.ApplyConfig(cfg); err != nil {
		t.Fatal(err)
	}
	testbed.Populate(t, sw, nil, testbed.Base())
	// A PISA "update" (even a no-op redeploy) rebuilds the pipeline and
	// discards every table entry — the architectural cost the paper
	// contrasts with IPSA's incremental patch.
	if _, err := sw.ApplyConfig(cfg); err != nil {
		t.Fatal(err)
	}
	p, err := sw.ProcessPacket(v4pkt(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Drop {
		t.Error("entries survived a full reload (they must not, matching bmv2)")
	}
	if sw.Reloads() != 2 {
		t.Errorf("reloads = %d", sw.Reloads())
	}
	// Repopulating restores forwarding.
	testbed.Populate(t, sw, nil, testbed.Base())
	p, _ = sw.ProcessPacket(v4pkt(t), 1)
	if p.Drop {
		t.Error("repopulated pipeline still dropping")
	}
}

func TestPISAEffectiveStageConsumption(t *testing.T) {
	sw, _ := New(Options{IngressStages: 20, EgressStages: 18, StageBlocks: 2, BlockWidth: 128, BlockDepth: 4096})
	cfg := testbed.P4Full(t, "")
	if _, err := sw.ApplyConfig(cfg); err != nil {
		t.Fatal(err)
	}
	// With only 2 blocks per stage, the big FIB/nexthop/dmac tables span
	// several consecutive stages; more physical stages are consumed than
	// logical stages exist.
	logical := len(cfg.IngressChain) + len(cfg.EgressChain)
	if sw.EffectiveStagesUsed() <= logical {
		t.Errorf("effective stages %d should exceed logical %d under table spanning",
			sw.EffectiveStagesUsed(), logical)
	}
}

func TestPISATooSmallPipeline(t *testing.T) {
	sw, _ := New(Options{IngressStages: 3, EgressStages: 1, StageBlocks: 8, BlockWidth: 128, BlockDepth: 4096})
	if _, err := sw.ApplyConfig(testbed.P4Full(t, "")); err == nil {
		t.Error("base design accepted on 3 ingress stages")
	}
}

func TestPISARegistersResetOnReload(t *testing.T) {
	// Load the flow-probe design into PISA and verify register state does
	// not survive a reload (unlike ipbm).
	cfg := testbed.P4Full(t, "flowprobe.script")
	sw, _ := New(DefaultOptions())
	if _, err := sw.ApplyConfig(cfg); err != nil {
		t.Fatal(err)
	}
	testbed.Populate(t, sw, nil, testbed.Base())
	if _, err := sw.InsertEntry(ctrlplane.EntryReq{
		Table: "flow_probe",
		Keys:  []ctrlplane.FieldValue{{Value: 0x0A000001}, {Value: 0x0A000002}},
		Tag:   1, Params: []uint64{5, 100},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := sw.ProcessPacket(v4pkt(t), 1); err != nil {
			t.Fatal(err)
		}
	}
	v, err := sw.ReadRegister("flow_cnt", 5)
	if err != nil {
		t.Fatal(err)
	}
	if v != 3 {
		t.Errorf("flow_cnt = %d, want 3", v)
	}
	if _, err := sw.ApplyConfig(cfg); err != nil {
		t.Fatal(err)
	}
	v, err = sw.ReadRegister("flow_cnt", 5)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Errorf("flow_cnt survived reload: %d", v)
	}
}

// TestPISAConcurrentStats: four goroutines push routed frames and frames
// from an unmapped port (which the program drops) through ProcessPacket
// at once; Stats counts every one exactly, with no lock on the packet
// path. `make soak` runs it under the race detector.
func TestPISAConcurrentStats(t *testing.T) {
	sw, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.ApplyConfig(testbed.P4Full(t, "")); err != nil {
		t.Fatal(err)
	}
	testbed.Populate(t, sw, nil, testbed.Base())
	const workers, each = 4, 200
	frame := v4pkt(t)
	truncated := frame[:6]
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				routed, err := sw.ProcessPacket(append([]byte(nil), frame...), 1)
				if err != nil {
					errs <- err
					return
				}
				unmapped, err := sw.ProcessPacket(append([]byte(nil), frame...), 2)
				if err != nil {
					errs <- err
					return
				}
				if routed.Drop || !unmapped.Drop {
					errs <- fmt.Errorf("routed drop=%v, unmapped drop=%v", routed.Drop, unmapped.Drop)
					return
				}
				if _, err := sw.ProcessPacket(append([]byte(nil), truncated...), 1); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if proc, drop := sw.Stats(); proc != workers*each || drop != workers*each {
		t.Fatalf("stats: processed %d, dropped %d; want %d each", proc, drop, workers*each)
	}
	// Truncated frames count under parse_error alone, and every frame
	// counts once.
	snap := sw.VerdictSnapshot()
	var total uint64
	for _, n := range snap {
		total += n
	}
	if snap[verdict.ParseError] != workers*each || total != 3*workers*each {
		t.Fatalf("verdicts %v: parse_error %d, total %d; want %d and %d",
			snap, snap[verdict.ParseError], total, workers*each, 3*workers*each)
	}
}

// TestPISATruncatedFramesAreParseErrors: on the populated base design,
// prefixes of a routed 42-byte IPv4/UDP frame that end inside Ethernet
// (6, 10 B) or IPv4 (14, 20, 33 B) read parse_error, as on ipbm's two
// tiers: the front parser's walk stamps the truncation wherever it finds
// it. The whole frame is forwarded.
func TestPISATruncatedFramesAreParseErrors(t *testing.T) {
	frame, err := pkt.Serialize(
		&pkt.Ethernet{Dst: testbed.RouterMAC, Src: testbed.HostMAC, EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoUDP, Src: [4]byte{10, 0, 0, 1}, Dst: [4]byte{10, 0, 0, 2}},
		&pkt.UDP{SrcPort: 1234, DstPort: 53},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != 42 {
		t.Fatalf("frame is %d bytes, want 42", len(frame))
	}
	sw, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.ApplyConfig(testbed.P4Full(t, "")); err != nil {
		t.Fatal(err)
	}
	testbed.Populate(t, sw, nil, testbed.Base())
	for _, n := range []int{6, 10, 14, 20, 33, 42} {
		want := verdict.ParseError
		if n == len(frame) {
			want = verdict.Forwarded
		}
		before := sw.VerdictSnapshot()
		if _, err := sw.ProcessPacket(append([]byte(nil), frame[:n]...), 1); err != nil {
			t.Fatal(err)
		}
		if after := sw.VerdictSnapshot(); after[want] != before[want]+1 {
			t.Errorf("%d-byte prefix: verdicts %v -> %v, want one more %s", n, before, after, want)
		}
	}
}

// tagConfig is a one-stage design over a single 8-byte header of ID id,
// whose stage writes tag into the header's first byte and istd.out_port.
// Two tags on two header IDs make builds whose mix is no build: the
// second's stage cannot find its header through the first's parser.
func tagConfig(id pkt.HeaderID, tag uint64) *template.Config {
	set := func(dst template.Operand) template.Instr {
		return template.Instr{Op: template.IAssign, Dst: dst, Src: &template.Expr{Kind: template.ExprOperand,
			Operand: &template.Operand{Kind: template.OpdConst, Const: tag}}}
	}
	return &template.Config{
		Headers:   []template.Header{{Name: "h", ID: id, WidthBits: 64}},
		FirstHdr:  id,
		MetaBytes: 8,
		Actions: map[string]*template.Action{"tag": {Name: "tag", Body: []template.Instr{
			set(template.Operand{Kind: template.OpdHeader, Header: id, Width: 8}),
			set(template.Operand{Kind: template.OpdMeta, BitOff: template.IstdOutPortOff, Width: template.IstdOutPortWidth}),
		}}},
		Stages: map[string]*template.Stage{"s": {Name: "s", Pipe: "ingress", Parse: []pkt.HeaderID{id},
			Arms: []template.Arm{{Default: true, Action: "tag"}}}},
		IngressChain:  []string{"s"},
		TSPAssignment: map[string]int{"s": 0},
	}
}

// TestPISABuildsReachPacketsWhole: ApplyConfig and SetInt rebuild the
// pipeline over and over while four goroutines push frames through
// ProcessPacket, and every result is the output of one build — two
// designs, each with INT off and on — never one build's parser, registers
// or INT context against another's stages. `make soak` runs it under the
// race detector.
func TestPISABuildsReachPacketsWhole(t *testing.T) {
	type result struct {
		data          string
		port          int
		drop, stamped bool
	}
	run := func(sw *Switch) (result, error) {
		p, err := sw.ProcessPacket(make([]byte, 16), 0)
		if err != nil {
			return result{}, err
		}
		return result{string(p.Data), p.OutPort, p.Drop, p.IngressNanos != 0}, nil
	}
	builds := []*template.Config{tagConfig(0, 1), tagConfig(1, 2)}
	want := map[result]bool{}
	for _, cfg := range builds {
		for _, intOn := range []bool{false, true} {
			sw, _ := New(DefaultOptions())
			if err := sw.SetInt(intOn); err != nil {
				t.Fatal(err)
			}
			if _, err := sw.ApplyConfig(cfg); err != nil {
				t.Fatal(err)
			}
			r, err := run(sw)
			if err != nil {
				t.Fatal(err)
			}
			want[r] = true
		}
	}
	if len(want) != 4 {
		t.Fatalf("four builds give %d distinct outputs: %v", len(want), want)
	}

	sw, _ := New(DefaultOptions())
	if _, err := sw.ApplyConfig(builds[0]); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r, err := run(sw)
				if err == nil && !want[r] {
					err = fmt.Errorf("result %+v is no build's output", r)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for i := 0; i < 300; i++ {
		if _, err := sw.ApplyConfig(builds[i%2]); err != nil {
			t.Error(err)
			break
		}
		if err := sw.SetInt(i%3 == 0); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
