package tsp

import (
	"encoding/binary"
	"sort"
	"testing"

	"ipsa/internal/match"
	"ipsa/internal/pkt"
	"ipsa/internal/template"
	"ipsa/internal/testbed"
)

// The fuzz input's plan is a run of 13-byte field records — kind, header
// id, source bit offset (2), width-1, constant (8) — of which the first
// one to four whose widths sum to at most 64 make the key.
const wordKeyRec = 13

func decodeWordKeyTable(plan []byte) *template.Table {
	tbl := &template.Table{Name: "t", Kind: "exact", Size: 16}
	for ; len(plan) >= wordKeyRec && len(tbl.Keys) < 4; plan = plan[wordKeyRec:] {
		o := template.Operand{BitOff: int(binary.BigEndian.Uint16(plan[2:])), Width: int(plan[4])%64 + 1}
		if tbl.KeyWidth+o.Width > 64 {
			break
		}
		switch plan[0] % 4 {
		case 0:
			o.Kind = template.OpdMeta
		case 1:
			o.Kind, o.Header = template.OpdHeader, pkt.HeaderID(plan[1]%16)
		case 2:
			o.Kind, o.Const = template.OpdConst, binary.BigEndian.Uint64(plan[5:])
		case 3: // unbound while matching: ReadOperand faults and yields 0
			o.Kind, o.ParamIdx = template.OpdParam, int(plan[1])
		}
		tbl.Keys = append(tbl.Keys, template.KeySel{Name: "k", Operand: o, Kind: "exact"})
		tbl.KeyWidth += o.Width
	}
	return tbl
}

// encodeWordKeyTable is decodeWordKeyTable's inverse for a shipped table;
// nil when the table's key is not a word key the records can express.
func encodeWordKeyTable(t *template.Table) []byte {
	if t.IsSelector || t.KeyWidth > 64 || len(t.Keys) == 0 || len(t.Keys) > 4 {
		return nil
	}
	var plan []byte
	for i := range t.Keys {
		o := &t.Keys[i].Operand
		rec := make([]byte, wordKeyRec)
		switch o.Kind {
		case template.OpdMeta:
			rec[0] = 0
		case template.OpdHeader:
			rec[0], rec[1] = 1, byte(o.Header)
		case template.OpdConst:
			rec[0] = 2
			binary.BigEndian.PutUint64(rec[5:], o.Const)
		default:
			return nil
		}
		if o.Header >= 16 || o.BitOff < 0 || o.BitOff > 0xffff || o.Width < 1 || o.Width > 64 {
			return nil
		}
		binary.BigEndian.PutUint16(rec[2:], uint16(o.BitOff))
		rec[4] = byte(o.Width - 1)
		plan = append(plan, rec...)
	}
	return plan
}

// shippedWordKeyPlans encodes every word-keyed table of the base design
// and of the base design under each update script.
func shippedWordKeyPlans(f *testing.F) [][]byte {
	seen := map[string]bool{}
	var plans [][]byte
	for _, script := range testbed.Scripts {
		cfg := testbed.Config(f, script)
		names := make([]string, 0, len(cfg.Tables))
		for n := range cfg.Tables {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if plan := encodeWordKeyTable(cfg.Tables[n]); plan != nil && !seen[string(plan)] {
				seen[string(plan)] = true
				plans = append(plans, plan)
			}
		}
	}
	if len(plans) < 8 {
		f.Fatalf("only %d word-keyed tables found in the shipped designs", len(plans))
	}
	return plans
}

func faultCounts(f *Faults) [3]uint64 {
	return [3]uint64{f.InvalidHeaderAccess.Load(), f.RegisterFault.Load(), f.BadTemplate.Load()}
}

// FuzzWordKeyVsPlanned holds the fused tier's word key to the byte key it
// replaced. For a random key plan over a random packet — unaligned source
// and destination offsets, totals that are not byte multiples, truncated
// buffers, headers not parsed — the word fusedWordKey.build yields must be
// match.KeyWord of the bytes buildKeyPlanned builds, with the same abort
// decision and the same fault counts.
func FuzzWordKeyVsPlanned(f *testing.F) {
	data := make([]byte, 96)
	for i := range data {
		data[i] = byte(i*37 + 11)
	}
	meta := make([]byte, 64)
	for i := range meta {
		meta[i] = byte(i*101 + 3)
	}
	offs := []byte{0, 14, 18, 34, 38, 54, 58, 62, 66, 70, 74, 78, 82, 86, 88, 90}
	for _, plan := range shippedWordKeyPlans(f) {
		f.Add(plan, data, meta, offs, uint16(0xffff))
		f.Add(plan, data[:20], meta[:3], offs, uint16(0x0005)) // truncated, mostly unparsed
	}
	// Hand-made shapes: a 64-bit field nine bytes wide at the source, a
	// 63-bit total, a constant and a parameter beside packet fields.
	f.Add([]byte{0, 0, 0, 3, 63, 0, 0, 0, 0, 0, 0, 0, 0}, data, meta, offs, uint16(0xffff))
	f.Add([]byte{1, 2, 0, 5, 32, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9, 29, 0, 0, 0, 0, 0, 0, 0, 0}, data, meta, offs, uint16(0xffff))
	f.Add([]byte{2, 0, 0, 0, 11, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4, 3, 1, 0, 0, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 13, 20, 0, 0, 0, 0, 0, 0, 0, 0}, data, meta, offs, uint16(0xffff))

	f.Fuzz(func(t *testing.T, plan, data, meta, offs []byte, parsed uint16) {
		tbl := decodeWordKeyTable(plan)
		if len(tbl.Keys) == 0 {
			return
		}
		kp := compileKeyPlan(tbl)
		if kp == nil {
			t.Fatalf("no key plan for %+v", tbl.Keys)
		}
		wk := fuseWordKey(kp)
		if wk == nil {
			t.Fatalf("no word key for a %d-bit plan", tbl.KeyWidth)
		}
		p := &pkt.Packet{Data: data, Meta: meta, OutPort: -1}
		for i := 0; i < 16 && i < len(offs); i++ {
			if parsed&(1<<uint(i)) != 0 {
				p.HV.Set(pkt.HeaderID(i), int(offs[i]), 20)
			}
		}
		env := func() *Env {
			return &Env{Pkt: p, Regs: NewRegisterFile(nil), Faults: &Faults{},
				SRHID: pkt.InvalidHeader, IPv6ID: pkt.InvalidHeader}
		}
		eb, ew := env(), env()
		key, ok := eb.buildKeyPlanned(kp)
		word, wok := wk.build(ew)
		if ok != wok {
			t.Fatalf("abort decision: bytes ok=%v, word ok=%v", ok, wok)
		}
		if fb, fw := faultCounts(eb.Faults), faultCounts(ew.Faults); fb != fw {
			t.Fatalf("faults {hdr reg tmpl}: bytes %v, word %v", fb, fw)
		}
		if ok && word != match.KeyWord(key) {
			t.Fatalf("%d-bit key: bytes %x, word %#x", tbl.KeyWidth, key, word)
		}
	})
}
