package tsp

import (
	"bytes"
	"fmt"
	"testing"

	"ipsa/internal/pkt"
	"ipsa/internal/template"
)

// These tests pin the executor edge cases where a naive lowering is most
// likely to diverge — division and modulo by zero (hardware-style
// saturation to 0, no fault), shift counts at and beyond the 64-bit
// register width, and >64-bit wide stores at their width boundaries —
// and assert that both tiers (reference interpreter, fused closures)
// agree bit-for-bit on packet bytes, metadata and fault counters.

// edgeConfig wraps body as the default-arm action of a single stage over
// one 16-byte header.
func edgeConfig(body []template.Instr) *template.Config {
	return &template.Config{
		Headers: []template.Header{{
			Name: "h", ID: 0, WidthBits: 128,
			Fields: map[string][2]int{"f": {0, 8}, "z": {8, 8}},
		}},
		FirstHdr:  0,
		MetaBytes: 40,
		Actions: map[string]*template.Action{
			"act": {Name: "act", Body: body},
		},
		Stages: map[string]*template.Stage{
			"s": {
				Name: "s", Pipe: "ingress",
				Parse: []pkt.HeaderID{0},
				Arms:  []template.Arm{{Default: true, Action: "act"}},
			},
		},
		IngressChain:  []string{"s"},
		TSPAssignment: map[string]int{"s": 0},
	}
}

// edgeModes orders the tiers with the interpreter oracle first.
var edgeModes = []struct {
	name string
	mode ExecMode
}{
	{"interp", ExecInterp},
	{"fused", ExecFused},
}

// edgeRun is one tier's observable outcome.
type edgeRun struct {
	data, meta []byte
	faults     [3]uint64
}

// runEdgeTiers executes body on the same packet bytes under every tier.
func runEdgeTiers(t *testing.T, body []template.Instr, data []byte) []edgeRun {
	t.Helper()
	out := make([]edgeRun, len(edgeModes))
	for i, m := range edgeModes {
		cfg := edgeConfig(body)
		sr, err := NewStageRuntime(cfg, "s", BuildOpts{Mode: m.mode})
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		op := NewOnDemandParser(cfg)
		faults := &Faults{}
		env := &Env{Regs: NewRegisterFile(nil), Faults: faults,
			SRHID: pkt.InvalidHeader, IPv6ID: pkt.InvalidHeader}
		p := pkt.NewPacket(append([]byte(nil), data...), cfg.MetaBytes)
		sr.Bind(&mapBackend{})
		sr.ExecuteBatch([]*pkt.Packet{p}, op, env)
		out[i] = edgeRun{
			data: p.Data, meta: p.Meta,
			faults: [3]uint64{
				faults.InvalidHeaderAccess.Load(),
				faults.RegisterFault.Load(),
				faults.BadTemplate.Load(),
			},
		}
	}
	for i := 1; i < len(edgeModes); i++ {
		if !bytes.Equal(out[i].data, out[0].data) {
			t.Errorf("%s packet bytes diverged from interp:\n%s: %x\ninterp: %x",
				edgeModes[i].name, edgeModes[i].name, out[i].data, out[0].data)
		}
		if !bytes.Equal(out[i].meta, out[0].meta) {
			t.Errorf("%s metadata diverged from interp:\n%s: %x\ninterp: %x",
				edgeModes[i].name, edgeModes[i].name, out[i].meta, out[0].meta)
		}
		if out[i].faults != out[0].faults {
			t.Errorf("%s faults diverged from interp: %v vs %v (invalid_header, register, bad_template)",
				edgeModes[i].name, out[i].faults, out[0].faults)
		}
	}
	return out
}

// assign builds meta[dstOff:dstOff+w] = src.
func assign(dstOff, w int, src *template.Expr) template.Instr {
	return template.Instr{
		Op:  template.IAssign,
		Dst: template.Operand{Kind: template.OpdMeta, BitOff: dstOff, Width: w},
		Src: src,
	}
}

func konst(v uint64, w int) *template.Expr {
	return &template.Expr{Kind: template.ExprOperand,
		Operand: &template.Operand{Kind: template.OpdConst, Const: v, Width: w}}
}

func hdrField(bitOff, w int) *template.Expr {
	return &template.Expr{Kind: template.ExprOperand,
		Operand: &template.Operand{Kind: template.OpdHeader, Header: 0, BitOff: bitOff, Width: w}}
}

func bin(op template.ArithOp, a, b *template.Expr) *template.Expr {
	return &template.Expr{Kind: template.ExprBin, Op: op, A: a, B: b}
}

// edgePacket is 16 header bytes: h.f = 0xAA, h.z = 0x00.
func edgePacket() []byte {
	d := make([]byte, 16)
	d[0] = 0xAA
	return d
}

func TestEdgeOpsDivModByZero(t *testing.T) {
	body := []template.Instr{
		// h.f / h.z and h.f % h.z with h.z == 0: saturate to 0, no fault.
		assign(0, 8, bin(template.OpDiv, hdrField(0, 8), hdrField(8, 8))),
		assign(8, 8, bin(template.OpMod, hdrField(0, 8), hdrField(8, 8))),
		// Sanity: a nonzero divisor still divides.
		assign(16, 8, bin(template.OpDiv, konst(0x90, 8), konst(3, 8))),
		assign(24, 8, bin(template.OpMod, konst(0x91, 8), konst(16, 8))),
	}
	out := runEdgeTiers(t, body, edgePacket())
	m := out[0].meta
	if m[0] != 0 || m[1] != 0 {
		t.Errorf("div/mod by zero = %#x/%#x, want 0/0", m[0], m[1])
	}
	if m[2] != 0x30 || m[3] != 0x01 {
		t.Errorf("div/mod sanity = %#x/%#x, want 0x30/0x01", m[2], m[3])
	}
	if out[0].faults != ([3]uint64{}) {
		t.Errorf("division by zero faulted: %v", out[0].faults)
	}
}

func TestEdgeOpsShiftsAtRegisterWidth(t *testing.T) {
	body := []template.Instr{
		// Shift counts 63 / 64 / far beyond 64: Go would panic-free wrap
		// into garbage with a bare shift, the executors must yield 0 once
		// the count reaches the 64-bit register width.
		assign(0, 64, bin(template.OpShl, konst(1, 64), konst(63, 8))),
		assign(64, 64, bin(template.OpShl, konst(1, 64), konst(64, 8))),
		assign(128, 64, bin(template.OpShr, konst(0xFFFFFFFFFFFFFFFF, 64), konst(64, 8))),
		assign(192, 64, bin(template.OpShr, konst(0x8000000000000000, 64), konst(63, 8))),
		assign(256, 8, bin(template.OpShl, konst(1, 8), konst(200, 16))),
	}
	out := runEdgeTiers(t, body, edgePacket())
	m := out[0].meta
	if m[0] != 0x80 { // 1<<63, big-endian meta store
		t.Errorf("1<<63 high byte = %#x, want 0x80", m[0])
	}
	for i := 8; i < 24; i++ { // 1<<64 and max>>64 are all-zero
		if m[i] != 0 {
			t.Fatalf("shift >= 64 left residue at meta[%d] = %#x", i, m[i])
		}
	}
	if m[31] != 0x01 { // 0x80..00 >> 63
		t.Errorf("msb>>63 low byte = %#x, want 0x01", m[31])
	}
	if m[32] != 0 { // 1<<200
		t.Errorf("1<<200 = %#x, want 0", m[32])
	}
}

func TestEdgeOpsWideStoreBoundaries(t *testing.T) {
	const v = 0x1122334455667788
	for _, w := range []int{63, 64, 65, 72, 127, 128} {
		t.Run(fmt.Sprintf("meta-width-%d", w), func(t *testing.T) {
			// Pre-set bits around the destination by first writing ones,
			// then storing through the width under test: a wide store must
			// zero the bits above 64 and keep neighbours intact.
			body := []template.Instr{
				assign(0, 64, konst(0xFFFFFFFFFFFFFFFF, 64)),
				assign(64, 64, konst(0xFFFFFFFFFFFFFFFF, 64)),
				assign(128, 64, konst(0xFFFFFFFFFFFFFFFF, 64)),
				assign(8, w, konst(v, 64)),
			}
			out := runEdgeTiers(t, body, edgePacket())
			if w <= 64 {
				// Truncating store: the field holds the low w bits of v.
				got, err := pkt.GetBits(out[0].meta, 8, w)
				if err != nil {
					t.Fatal(err)
				}
				if want := v & (^uint64(0) >> (64 - w)); got != want {
					t.Errorf("field = %#x, want %#x", got, want)
				}
			} else {
				// Wide store: the low 64 bits of the field hold v.
				got, err := pkt.GetBits(out[0].meta, 8+w-64, 64)
				if err != nil {
					t.Fatal(err)
				}
				if got != v {
					t.Errorf("low 64 bits = %#x, want %#x", got, v)
				}
				hi, err := pkt.GetBits(out[0].meta, 8, w-64)
				if err != nil {
					t.Fatal(err)
				}
				if hi != 0 {
					t.Errorf("high %d bits = %#x, want 0", w-64, hi)
				}
			}
			// The guard bit below the field survived.
			if b, _ := pkt.GetBits(out[0].meta, 0, 8); b != 0xFF {
				t.Errorf("guard bits before field = %#x, want 0xFF", b)
			}
		})
	}
	for _, w := range []int{65, 72, 128} {
		t.Run(fmt.Sprintf("header-width-%d", w), func(t *testing.T) {
			body := []template.Instr{
				{
					Op:  template.IAssign,
					Dst: template.Operand{Kind: template.OpdHeader, Header: 0, BitOff: 0, Width: w},
					Src: konst(v, 64),
				},
			}
			data := edgePacket()
			for i := range data {
				data[i] = 0xEE
			}
			out := runEdgeTiers(t, body, data)
			got, err := pkt.GetBits(out[0].data, w-64, 64)
			if err != nil {
				t.Fatal(err)
			}
			if got != v {
				t.Errorf("low 64 bits = %#x, want %#x", got, v)
			}
			hi, err := pkt.GetBits(out[0].data, 0, w-64)
			if err != nil {
				t.Fatal(err)
			}
			if hi != 0 {
				t.Errorf("high %d bits = %#x, want 0", w-64, hi)
			}
		})
	}
}
