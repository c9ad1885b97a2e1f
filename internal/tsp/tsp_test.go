package tsp

import (
	"testing"

	"ipsa/internal/match"
	"ipsa/internal/pkt"
	"ipsa/internal/template"
)

// Minimal hand-built config: one 2-byte header "h" with an 8-bit field f
// at offset 0 and an 8-bit selector g at offset 8 transitioning to header
// "h2" on tag 7.
func miniConfig() *template.Config {
	return &template.Config{
		Headers: []template.Header{
			{
				Name: "h", ID: 0, WidthBits: 16,
				SelOff: 8, SelWidth: 8,
				Transitions: []template.Transition{{Tag: 7, Next: 1}},
				Fields:      map[string][2]int{"f": {0, 8}, "g": {8, 8}},
			},
			{Name: "h2", ID: 1, WidthBits: 8, Fields: map[string][2]int{"x": {0, 8}}},
		},
		FirstHdr:  0,
		MetaBytes: 8,
		Actions: map[string]*template.Action{
			"NoAction": {Name: "NoAction"},
			"setmeta": {
				Name:        "setmeta",
				ParamWidths: []int{8},
				Body: []template.Instr{
					{
						Op:  template.IAssign,
						Dst: template.Operand{Kind: template.OpdMeta, BitOff: 34, Width: 8},
						Src: &template.Expr{Kind: template.ExprOperand, Operand: &template.Operand{Kind: template.OpdParam, ParamIdx: 0}},
					},
				},
			},
			"dropper": {Name: "dropper", Body: []template.Instr{{Op: template.IDrop}}},
		},
		Tables: map[string]*template.Table{
			"t": {
				Name: "t", Kind: "exact", KeyWidth: 8, Size: 16,
				Keys: []template.KeySel{{
					Name: "h.f", Kind: "exact",
					Operand: template.Operand{Kind: template.OpdHeader, Header: 0, BitOff: 0, Width: 8},
				}},
			},
		},
		Stages: map[string]*template.Stage{
			"s": {
				Name: "s", Pipe: "ingress",
				Parse: []pkt.HeaderID{0},
				Match: []template.MatchStmt{{Kind: template.MatchApply, Table: "t"}},
				Arms: []template.Arm{
					{Tag: 1, Action: "setmeta"},
					{Tag: 2, Action: "dropper"},
					{Default: true, Action: "NoAction"},
				},
				Tables: []string{"t"},
			},
		},
		IngressChain:  []string{"s"},
		TSPAssignment: map[string]int{"s": 0},
	}
}

// mapBackend resolves every table name to a view of two maps, keyed
// "table/key" and "table/group".
type mapBackend struct {
	entries map[string]match.Result
	groups  map[string][]match.Result
}

type mapTable struct {
	b    *mapBackend
	name string
}

func (b *mapBackend) ResolveTable(name string) (ResolvedTable, bool) {
	return mapTable{b, name}, true
}

func (t mapTable) Lookup(key []byte) (match.Result, bool) {
	r, ok := t.b.entries[t.name+"/"+string(key)]
	return r, ok
}

func (t mapTable) LookupMember(group []byte, h uint64) (match.Result, bool) {
	m := t.b.groups[t.name+"/"+string(group)]
	if len(m) == 0 {
		return match.Result{}, false
	}
	return m[h%uint64(len(m))], true
}

func TestOnDemandParserWalk(t *testing.T) {
	cfg := miniConfig()
	op := NewOnDemandParser(cfg)
	// h.g = 7 -> h2 follows.
	p := pkt.NewPacket([]byte{0xAA, 0x07, 0x42}, cfg.MetaBytes)
	if !op.Ensure(p, 1) {
		t.Fatal("h2 not parsed")
	}
	loc, _ := p.HV.Loc(1)
	if loc.Off != 2 || loc.Len != 1 {
		t.Errorf("h2 loc: %+v", loc)
	}
	if !p.HV.Valid(0) {
		t.Error("walking to h2 must parse h on the way")
	}
	// h.g = 9 -> no transition; h2 unreachable.
	p2 := pkt.NewPacket([]byte{0xAA, 0x09, 0x42}, cfg.MetaBytes)
	if op.Ensure(p2, 1) {
		t.Error("h2 parsed despite missing transition")
	}
	if !p2.HV.Valid(0) {
		t.Error("h should still be parsed")
	}
	// Truncated packet.
	p3 := pkt.NewPacket([]byte{0xAA}, cfg.MetaBytes)
	if op.Ensure(p3, 0) {
		t.Error("truncated header parsed")
	}
	// Already-parsed short path.
	if !op.Ensure(p, 1) {
		t.Error("re-ensure failed")
	}
}

func TestOnDemandParserVarLen(t *testing.T) {
	cfg := miniConfig()
	cfg.Headers[1].VarLen = &template.VarLen{LenOff: 0, LenWidth: 8, BaseBytes: 1, UnitBytes: 2}
	op := NewOnDemandParser(cfg)
	// h2's first byte = 2 -> total length 1 + 2*2 = 5 bytes.
	data := []byte{0xAA, 0x07, 0x02, 1, 2, 3, 4}
	p := pkt.NewPacket(data, cfg.MetaBytes)
	if !op.Ensure(p, 1) {
		t.Fatal("varlen header not parsed")
	}
	loc, _ := p.HV.Loc(1)
	if loc.Len != 5 {
		t.Errorf("varlen len = %d, want 5", loc.Len)
	}
	// Truncated varlen.
	p2 := pkt.NewPacket([]byte{0xAA, 0x07, 0x09}, cfg.MetaBytes)
	if op.Ensure(p2, 1) {
		t.Error("truncated varlen header parsed")
	}
}

func TestStageRuntimeHitMissDefault(t *testing.T) {
	cfg := miniConfig()
	sr, err := NewStageRuntime(cfg, "s", BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	op := NewOnDemandParser(cfg)
	be := &mapBackend{entries: map[string]match.Result{
		"t/\xAA": {ActionID: 1, Params: []uint64{0x5C}},
		"t/\xBB": {ActionID: 2},
	}}
	sr.Bind(be)
	regs := NewRegisterFile(nil)
	faults := &Faults{}

	// Hit tag 1: setmeta writes the param into meta bits 34..41.
	p := pkt.NewPacket([]byte{0xAA, 0x00}, cfg.MetaBytes)
	env := &Env{Regs: regs, Faults: faults, SRHID: pkt.InvalidHeader, IPv6ID: pkt.InvalidHeader}
	sr.ExecuteBatch([]*pkt.Packet{p}, op, env)
	v, _ := p.MetaBits(34, 8)
	if v != 0x5C {
		t.Errorf("meta = %#x, want 0x5C", v)
	}
	if p.Drop {
		t.Error("hit dropped")
	}
	// Hit tag 2: dropper.
	p2 := pkt.NewPacket([]byte{0xBB, 0x00}, cfg.MetaBytes)
	sr.ExecuteBatch([]*pkt.Packet{p2}, op, env)
	if !p2.Drop {
		t.Error("dropper arm did not drop")
	}
	dropBit, _ := p2.MetaBits(template.IstdDropOff, 1)
	if dropBit != 1 {
		t.Error("istd.drop not set")
	}
	// Miss: default NoAction.
	p3 := pkt.NewPacket([]byte{0xCC, 0x00}, cfg.MetaBytes)
	sr.ExecuteBatch([]*pkt.Packet{p3}, op, env)
	if p3.Drop {
		t.Error("miss dropped")
	}
	pkts, hits, misses := sr.Stats()
	if pkts != 3 || hits != 2 || misses != 1 {
		t.Errorf("stats: %d/%d/%d", pkts, hits, misses)
	}
	if faults.BadTemplate.Load() != 0 {
		t.Errorf("faults: %d", faults.BadTemplate.Load())
	}
}

func TestNewStageRuntimeErrors(t *testing.T) {
	cfg := miniConfig()
	if _, err := NewStageRuntime(cfg, "ghost", BuildOpts{}); err == nil {
		t.Error("unknown stage accepted")
	}
	bad, _ := cfg.Clone()
	bad.Stages["s"].Tables = []string{"missing"}
	if _, err := NewStageRuntime(bad, "s", BuildOpts{}); err == nil {
		t.Error("unknown table accepted")
	}
	bad2, _ := cfg.Clone()
	bad2.Stages["s"].Arms[0].Action = "missing"
	if _, err := NewStageRuntime(bad2, "s", BuildOpts{}); err == nil {
		t.Error("unknown action accepted")
	}
}

// TestDroppedPacketSkipsLaterStages: a packet one stage drops is not
// run by the stage after it in the same batch sweep.
func TestDroppedPacketSkipsLaterStages(t *testing.T) {
	cfg := miniConfig()
	drops := &mapBackend{entries: map[string]match.Result{"t/\xBB": {ActionID: 2}}}
	first, _ := NewStageRuntime(cfg, "s", BuildOpts{})
	second, _ := NewStageRuntime(cfg, "s", BuildOpts{})
	first.Bind(drops)
	second.Bind(drops)
	op := NewOnDemandParser(cfg)
	env := &Env{Regs: NewRegisterFile(nil), Faults: &Faults{}, SRHID: pkt.InvalidHeader, IPv6ID: pkt.InvalidHeader}
	ps := []*pkt.Packet{pkt.NewPacket([]byte{0xBB, 0x00}, cfg.MetaBytes)}
	first.ExecuteBatch(ps, op, env)
	second.ExecuteBatch(ps, op, env)
	if !ps[0].Drop {
		t.Fatal("first stage did not drop the packet")
	}
	if pkts, _, _ := first.Stats(); pkts != 1 {
		t.Errorf("first stage ran %d packets, want 1", pkts)
	}
	if pkts, _, _ := second.Stats(); pkts != 0 {
		t.Errorf("second stage ran on a dropped packet: %d executions", pkts)
	}
}

func TestRegisterFile(t *testing.T) {
	rf := NewRegisterFile([]template.Register{{Name: "r", Width: 8, Size: 4}})
	if ok := rf.Write("r", 2, 0x1FF); !ok {
		t.Fatal("write failed")
	}
	v, ok := rf.Read("r", 2)
	if !ok || v != 0xFF { // truncated to 8 bits
		t.Errorf("read = %d, %v", v, ok)
	}
	if _, ok := rf.Read("r", 9); ok {
		t.Error("out-of-range read ok")
	}
	if ok := rf.Write("ghost", 0, 1); ok {
		t.Error("unknown register write ok")
	}
	// Update preserves contents and rejects resizes.
	if err := rf.Update([]template.Register{{Name: "r", Width: 8, Size: 4}, {Name: "s", Width: 16, Size: 2}}); err != nil {
		t.Fatal(err)
	}
	if v, _ := rf.Read("r", 2); v != 0xFF {
		t.Error("update reset contents")
	}
	if len(rf.Names()) != 2 {
		t.Errorf("names: %v", rf.Names())
	}
	if err := rf.Update([]template.Register{{Name: "r", Width: 16, Size: 4}}); err == nil {
		t.Error("resize accepted")
	}
}

func TestEnvExprEval(t *testing.T) {
	faults := &Faults{}
	env := &Env{
		Pkt:    pkt.NewPacket([]byte{0x12, 0x34}, 4),
		Regs:   NewRegisterFile([]template.Register{{Name: "r", Width: 32, Size: 2}}),
		Faults: faults,
		SRHID:  pkt.InvalidHeader, IPv6ID: pkt.InvalidHeader,
	}
	env.Pkt.HV.Set(0, 0, 2)
	num := func(v uint64) *template.Expr {
		return &template.Expr{Kind: template.ExprOperand, Operand: &template.Operand{Kind: template.OpdConst, Const: v}}
	}
	bin := func(op template.ArithOp, a, b *template.Expr) *template.Expr {
		return &template.Expr{Kind: template.ExprBin, Op: op, A: a, B: b}
	}
	cases := []struct {
		e    *template.Expr
		want uint64
	}{
		{bin(template.OpAdd, num(3), num(4)), 7},
		{bin(template.OpSub, num(3), num(4)), ^uint64(0)}, // wraps
		{bin(template.OpMul, num(3), num(4)), 12},
		{bin(template.OpDiv, num(12), num(4)), 3},
		{bin(template.OpDiv, num(12), num(0)), 0}, // div by zero -> 0
		{bin(template.OpMod, num(13), num(4)), 1},
		{bin(template.OpMod, num(13), num(0)), 0},
		{bin(template.OpAnd, num(0xF0), num(0x3C)), 0x30},
		{bin(template.OpOr, num(0xF0), num(0x0C)), 0xFC},
		{bin(template.OpXor, num(0xFF), num(0x0F)), 0xF0},
		{bin(template.OpShl, num(1), num(4)), 16},
		{bin(template.OpShl, num(1), num(70)), 0},
		{bin(template.OpShr, num(16), num(4)), 1},
		{&template.Expr{Kind: template.ExprOperand, Operand: &template.Operand{Kind: template.OpdHeader, Header: 0, BitOff: 0, Width: 16}}, 0x1234},
	}
	for i, c := range cases {
		if got := env.EvalExpr(c.e); got != c.want {
			t.Errorf("case %d: %d, want %d", i, got, c.want)
		}
	}
	// Register round trip through expressions.
	env.ExecInstrs([]template.Instr{{Op: template.IRegWrite, Reg: "r", Index: num(1), Value: num(99)}})
	got := env.EvalExpr(&template.Expr{Kind: template.ExprRegRead, Reg: "r", Index: num(1)})
	if got != 99 {
		t.Errorf("reg read = %d", got)
	}
	// Hash is deterministic and finalized.
	h1 := env.EvalExpr(&template.Expr{Kind: template.ExprHash, Args: []*template.Expr{num(1), num(2)}})
	h2 := env.EvalExpr(&template.Expr{Kind: template.ExprHash, Args: []*template.Expr{num(1), num(2)}})
	h3 := env.EvalExpr(&template.Expr{Kind: template.ExprHash, Args: []*template.Expr{num(2), num(1)}})
	if h1 != h2 || h1 == h3 {
		t.Errorf("hash: %x %x %x", h1, h2, h3)
	}
	// Faults: invalid header access reads as zero.
	before := faults.InvalidHeaderAccess.Load()
	v := env.EvalExpr(&template.Expr{Kind: template.ExprOperand, Operand: &template.Operand{Kind: template.OpdHeader, Header: 5, BitOff: 0, Width: 8}})
	if v != 0 || faults.InvalidHeaderAccess.Load() != before+1 {
		t.Errorf("invalid access: v=%d faults=%d", v, faults.InvalidHeaderAccess.Load())
	}
	if env.EvalExpr(nil) != 0 {
		t.Error("nil expr not zero")
	}
}

func TestEnvCondEval(t *testing.T) {
	env := &Env{
		Pkt:    pkt.NewPacket([]byte{9}, 4),
		Regs:   NewRegisterFile(nil),
		Faults: &Faults{},
		SRHID:  pkt.InvalidHeader, IPv6ID: pkt.InvalidHeader,
	}
	env.Pkt.HV.Set(0, 0, 1)
	num := func(v uint64) *template.Expr {
		return &template.Expr{Kind: template.ExprOperand, Operand: &template.Operand{Kind: template.OpdConst, Const: v}}
	}
	cmp := func(op template.CmpOp, a, b uint64) *template.Cond {
		return &template.Cond{Kind: template.CondCmp, Cmp: op, A: num(a), B: num(b)}
	}
	cases := []struct {
		c    *template.Cond
		want bool
	}{
		{&template.Cond{Kind: template.CondBool, Val: true}, true},
		{&template.Cond{Kind: template.CondValid, Header: 0}, true},
		{&template.Cond{Kind: template.CondValid, Header: 3}, false},
		{cmp(template.CmpEq, 5, 5), true},
		{cmp(template.CmpNe, 5, 5), false},
		{cmp(template.CmpLt, 4, 5), true},
		{cmp(template.CmpGt, 4, 5), false},
		{cmp(template.CmpLe, 5, 5), true},
		{cmp(template.CmpGe, 4, 5), false},
		{&template.Cond{Kind: template.CondNot, X: &template.Cond{Kind: template.CondBool, Val: true}}, false},
		{&template.Cond{Kind: template.CondAnd, X: cmp(template.CmpEq, 1, 1), Y: cmp(template.CmpEq, 2, 2)}, true},
		{&template.Cond{Kind: template.CondOr, X: cmp(template.CmpEq, 1, 2), Y: cmp(template.CmpEq, 2, 2)}, true},
	}
	for i, c := range cases {
		if got := env.EvalCond(c.c); got != c.want {
			t.Errorf("case %d: %v, want %v", i, got, c.want)
		}
	}
}
