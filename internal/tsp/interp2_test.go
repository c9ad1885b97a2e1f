package tsp

import (
	"bytes"
	"testing"

	"ipsa/internal/pkt"
	"ipsa/internal/template"
)

// srv6Env builds a packet with an IPv6+SRH pair already parsed, IDs 0/1.
func srv6Env(t *testing.T, segmentsLeft uint8, nSegs int) (*Env, []byte) {
	t.Helper()
	ip := pkt.IPv6{NextHeader: pkt.IPProtoRouting, HopLimit: 64}
	ip.Dst[15] = 0xAA
	segs := make([][16]byte, nSegs)
	for i := range segs {
		segs[i][0] = 0x20
		segs[i][15] = byte(0x10 + i)
	}
	srh := pkt.SRH{NextHeader: pkt.IPProtoTCP, SegmentsLeft: segmentsLeft, Segments: segs}
	raw, err := pkt.Serialize(&ip, &srh, &pkt.TCP{SrcPort: 1, DstPort: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := pkt.NewPacket(raw, 8)
	p.HV.Set(0, 0, pkt.IPv6Len)
	p.HV.Set(1, pkt.IPv6Len, pkt.SRHFixedLen+nSegs*pkt.SegmentLength)
	env := &Env{Pkt: p, Regs: NewRegisterFile(nil), Faults: &Faults{}, SRHID: 1, IPv6ID: 0}
	return env, raw
}

func TestSRHAdvanceUnit(t *testing.T) {
	env, _ := srv6Env(t, 2, 3)
	env.ExecInstrs([]template.Instr{{Op: template.ISRHAdvance}})
	var ip pkt.IPv6
	_ = ip.Decode(env.Pkt.Data)
	// SL 2 -> 1; dst = segments[1] whose last byte is 0x11.
	if ip.Dst[15] != 0x11 || ip.Dst[0] != 0x20 {
		t.Errorf("dst = %x", ip.Dst)
	}
	var srh pkt.SRH
	_ = srh.Decode(env.Pkt.Data[pkt.IPv6Len:])
	if srh.SegmentsLeft != 1 {
		t.Errorf("SL = %d", srh.SegmentsLeft)
	}
	if env.Faults.BadTemplate.Load() != 0 {
		t.Errorf("faults: %d", env.Faults.BadTemplate.Load())
	}
}

func TestSRHAdvanceAtZeroFaults(t *testing.T) {
	env, before := srv6Env(t, 0, 2)
	orig := append([]byte(nil), before...)
	env.ExecInstrs([]template.Instr{{Op: template.ISRHAdvance}})
	if env.Faults.BadTemplate.Load() == 0 {
		t.Error("SL=0 advance did not fault")
	}
	if !bytes.Equal(env.Pkt.Data, orig) {
		t.Error("packet mutated despite fault")
	}
}

func TestSRHAdvanceWithoutHeadersFaults(t *testing.T) {
	p := pkt.NewPacket(make([]byte, 64), 8)
	env := &Env{Pkt: p, Regs: NewRegisterFile(nil), Faults: &Faults{}, SRHID: 1, IPv6ID: 0}
	env.ExecInstrs([]template.Instr{{Op: template.ISRHAdvance}, {Op: template.ISRHPop}})
	if env.Faults.InvalidHeaderAccess.Load() != 2 {
		t.Errorf("faults: %d", env.Faults.InvalidHeaderAccess.Load())
	}
}

func TestSRHPopUnit(t *testing.T) {
	env, before := srv6Env(t, 0, 2)
	origLen := len(before)
	env.ExecInstrs([]template.Instr{{Op: template.ISRHPop}})
	if got := len(env.Pkt.Data); got != origLen-(pkt.SRHFixedLen+2*pkt.SegmentLength) {
		t.Errorf("len = %d", got)
	}
	var ip pkt.IPv6
	_ = ip.Decode(env.Pkt.Data)
	if ip.NextHeader != pkt.IPProtoTCP {
		t.Errorf("next header = %d", ip.NextHeader)
	}
	if int(ip.PayloadLen) != pkt.TCPMinLen {
		t.Errorf("payload len = %d", ip.PayloadLen)
	}
	if env.Pkt.HV.Valid(1) {
		t.Error("srh still valid after pop")
	}
	// TCP moved up.
	var tcp pkt.TCP
	if err := tcp.Decode(env.Pkt.Data[pkt.IPv6Len:]); err != nil || tcp.SrcPort != 1 {
		t.Errorf("tcp after pop: %+v, %v", tcp, err)
	}
}

func TestSRHAdvanceTruncatedSegmentsFaults(t *testing.T) {
	env, _ := srv6Env(t, 2, 3)
	// Lie about the SRH length: claim it ends before segment[1].
	loc, _ := env.Pkt.HV.Loc(1)
	env.Pkt.HV.Set(1, loc.Off, pkt.SRHFixedLen+pkt.SegmentLength)
	env.ExecInstrs([]template.Instr{{Op: template.ISRHAdvance}})
	if env.Faults.BadTemplate.Load() == 0 {
		t.Error("out-of-bounds segment access did not fault")
	}
}

func TestWriteOperandWideAndMeta(t *testing.T) {
	p := pkt.NewPacket(make([]byte, 40), 40)
	p.HV.Set(0, 0, 40)
	env := &Env{Pkt: p, Regs: NewRegisterFile(nil), Faults: &Faults{},
		SRHID: pkt.InvalidHeader, IPv6ID: pkt.InvalidHeader}

	// Wide meta write: high part cleared, low 64 bits stored.
	wide := template.Operand{Kind: template.OpdMeta, BitOff: 0, Width: 128}
	for i := 0; i < 16; i++ {
		p.Meta[i] = 0xFF
	}
	env.WriteOperand(&wide, 0x1122334455667788)
	want := append(bytes.Repeat([]byte{0}, 8), 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88)
	if !bytes.Equal(p.Meta[:16], want) {
		t.Errorf("meta = %x", p.Meta[:16])
	}
	if got := env.ReadOperand(&wide); got != 0x1122334455667788 {
		t.Errorf("read back %x", got)
	}

	// Wide header write.
	hwide := template.Operand{Kind: template.OpdHeader, Header: 0, BitOff: 64, Width: 128}
	env.WriteOperand(&hwide, 0xAB)
	if got := env.ReadOperand(&hwide); got != 0xAB {
		t.Errorf("header wide read %x", got)
	}

	// Invalid header write faults but does not panic.
	bad := template.Operand{Kind: template.OpdHeader, Header: 7, BitOff: 0, Width: 8}
	env.WriteOperand(&bad, 1)
	if env.Faults.InvalidHeaderAccess.Load() == 0 {
		t.Error("invalid header write did not fault")
	}
	// Unknown operand kind faults.
	unk := template.Operand{Kind: "bogus"}
	env.WriteOperand(&unk, 1)
	if env.ReadOperand(&unk) != 0 {
		t.Error("bogus operand read nonzero")
	}
	if env.Faults.BadTemplate.Load() == 0 {
		t.Error("bogus operand did not fault")
	}
}

func TestExecAssignWideCopy(t *testing.T) {
	// 128-bit field-to-field copy (ipv6 address style).
	p := pkt.NewPacket(make([]byte, 64), 32)
	p.HV.Set(0, 0, 64)
	env := &Env{Pkt: p, Regs: NewRegisterFile(nil), Faults: &Faults{},
		SRHID: pkt.InvalidHeader, IPv6ID: pkt.InvalidHeader}
	for i := 0; i < 16; i++ {
		p.Data[i] = byte(0xA0 + i)
	}
	src := template.Operand{Kind: template.OpdHeader, Header: 0, BitOff: 0, Width: 128}
	dst := template.Operand{Kind: template.OpdHeader, Header: 0, BitOff: 256, Width: 128}
	env.ExecInstrs([]template.Instr{{
		Op: template.IAssign, Dst: dst,
		Src: &template.Expr{Kind: template.ExprOperand, Operand: &src},
	}})
	if !bytes.Equal(p.Data[32:48], p.Data[0:16]) {
		t.Errorf("wide copy: %x vs %x", p.Data[32:48], p.Data[0:16])
	}
	// Wide copy into metadata too.
	mdst := template.Operand{Kind: template.OpdMeta, BitOff: 0, Width: 128}
	env.ExecInstrs([]template.Instr{{
		Op: template.IAssign, Dst: mdst,
		Src: &template.Expr{Kind: template.ExprOperand, Operand: &src},
	}})
	if !bytes.Equal(p.Meta[0:16], p.Data[0:16]) {
		t.Errorf("wide meta copy: %x", p.Meta[0:16])
	}
	if env.Faults.BadTemplate.Load() != 0 {
		t.Errorf("faults: %d", env.Faults.BadTemplate.Load())
	}
}

func TestBuildStageRuntimesAndResolve(t *testing.T) {
	cfg := miniConfig()
	rts, err := BuildStageRuntimes(cfg, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rts) != 1 || rts["s"] == nil || rts["s"].Template().Name != "s" {
		t.Fatalf("runtimes: %+v", rts)
	}
	srh, v6 := ResolveSRv6IDs(cfg)
	if srh != pkt.InvalidHeader || v6 != pkt.InvalidHeader {
		t.Errorf("ids: %d/%d", srh, v6)
	}
	cfg.Headers[0].Name = "srh"
	cfg.Headers[1].Name = "ipv6"
	srh, v6 = ResolveSRv6IDs(cfg)
	if srh != 0 || v6 != 1 {
		t.Errorf("ids: %d/%d", srh, v6)
	}
	bad, _ := cfg.Clone()
	bad.Stages["s"].Arms[0].Action = "ghost"
	if _, err := BuildStageRuntimes(bad, BuildOpts{}); err == nil {
		t.Error("bad config accepted")
	}
}
