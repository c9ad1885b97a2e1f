package tsp

// fuse.go is the fast executor tier: it lowers a stage template to fused
// native Go closures. Where the interpreter walks the tree per packet,
// the fused tier pays one indirect call per template *node*, built once at
// bind time: constant subtrees are folded, field offsets are burned into
// the closure, byte-aligned loads/stores skip the generic bit helpers, and
// table applies capture their slot in the stage's handle array (compile.go,
// filled by Bind): a key of at most 64 bits is assembled in a register and
// handed to the engine's own probe, a wider one goes through the same
// applyTableWith funnel as the interpreter. Fault-counter side effects and
// evaluation order mirror interp.go exactly; the differential fuzz
// (internal/ipbm) guards drift between the two tiers.

import (
	"encoding/binary"

	"ipsa/internal/match"
	"ipsa/internal/pkt"
	"ipsa/internal/template"
)

// The closure kinds. A fusedVal returns the value the interpreter's
// EvalExpr would.
type (
	fusedVal   func(*Env) uint64
	fusedCond  func(*Env) bool
	fusedStmt  func(*Env)
	fusedMatch func(*Env, *matchOutcome)
)

// fusedProg is a stage lowered to closures. arms is parallel to
// template.Stage.Arms (sharing indices with the dispatch arrays); nil
// entries are empty bodies.
type fusedProg struct {
	match fusedMatch
	arms  []fusedStmt
	// keys and groups, parallel to prog.tables, are what makes an apply
	// word-keyed: a plain table's key builder, a selector's group reader.
	// Both are nil for a table whose key or group is wider than 64 bits,
	// which stays bytes.
	keys   []*fusedWordKey
	groups []*fusedWordKey
}

type fuser struct {
	*fusedProg
	sr     *StageRuntime
	prog   *stageProg
	tblIdx map[string]int
}

// fuseStage lowers a stage to closures over sr.prog's table list, key
// plans and bind-time handle arrays (closures capture the prog pointer, so
// handles resolved by Bind after fusing are visible without a rebuild).
func fuseStage(sr *StageRuntime) *fusedProg {
	n := len(sr.prog.tables)
	fp := &fusedProg{keys: make([]*fusedWordKey, n), groups: make([]*fusedWordKey, n)}
	f := &fuser{fusedProg: fp, sr: sr, prog: sr.prog, tblIdx: make(map[string]int, n)}
	for i, t := range sr.prog.tables {
		f.tblIdx[t.Name] = i
		if !t.IsSelector {
			fp.keys[i] = fuseWordKey(sr.prog.keyPlans[i])
		} else if len(t.Keys) > 0 {
			fp.groups[i] = fuseFieldWord(&t.Keys[0].Operand)
		}
	}
	fp.match = f.fuseMatchStmts(sr.tmpl.Match)
	bodies := make(map[string]fusedStmt, len(sr.actions))
	done := make(map[string]bool, len(sr.actions))
	fp.arms = make([]fusedStmt, len(sr.tmpl.Arms))
	for i := range sr.tmpl.Arms {
		name := sr.tmpl.Arms[i].Action
		if !done[name] {
			if act := sr.actions[name]; act != nil {
				bodies[name] = f.fuseInstrs(act.Body)
			}
			done[name] = true
		}
		fp.arms[i] = bodies[name]
	}
	return fp
}

// faultZeroVal is the lowering of nil/unknown value nodes: fault, yield 0.
func faultZeroVal(e *Env) uint64 {
	e.Faults.BadTemplate.Add(1)
	return 0
}

// faultFalseCond is the lowering of nil/unknown boolean nodes.
func faultFalseCond(e *Env) bool {
	e.Faults.BadTemplate.Add(1)
	return false
}

// beLoadFn returns a big-endian loader for nb bytes (1..8); callers
// guarantee len(b) >= nb.
func beLoadFn(nb int) func(b []byte) uint64 {
	switch nb {
	case 1:
		return func(b []byte) uint64 { return uint64(b[0]) }
	case 2:
		return func(b []byte) uint64 { return uint64(binary.BigEndian.Uint16(b)) }
	case 3:
		return func(b []byte) uint64 {
			return uint64(binary.BigEndian.Uint16(b))<<8 | uint64(b[2])
		}
	case 4:
		return func(b []byte) uint64 { return uint64(binary.BigEndian.Uint32(b)) }
	case 5:
		return func(b []byte) uint64 {
			return uint64(binary.BigEndian.Uint32(b))<<8 | uint64(b[4])
		}
	case 6:
		return func(b []byte) uint64 {
			return uint64(binary.BigEndian.Uint32(b))<<16 | uint64(binary.BigEndian.Uint16(b[4:]))
		}
	case 7:
		return func(b []byte) uint64 {
			return uint64(binary.BigEndian.Uint32(b))<<24 |
				uint64(binary.BigEndian.Uint16(b[4:]))<<8 | uint64(b[6])
		}
	case 8:
		return binary.BigEndian.Uint64
	}
	return func(b []byte) uint64 {
		var v uint64
		for _, x := range b {
			v = v<<8 | uint64(x)
		}
		return v
	}
}

// beStoreFn returns a big-endian store of the low nb bytes of v. Storing
// only nb bytes is the same truncation SetBits applies for width nb*8.
func beStoreFn(nb int) func(b []byte, v uint64) {
	switch nb {
	case 1:
		return func(b []byte, v uint64) { b[0] = byte(v) }
	case 2:
		return func(b []byte, v uint64) { binary.BigEndian.PutUint16(b, uint16(v)) }
	case 3:
		return func(b []byte, v uint64) {
			binary.BigEndian.PutUint16(b, uint16(v>>8))
			b[2] = byte(v)
		}
	case 4:
		return func(b []byte, v uint64) { binary.BigEndian.PutUint32(b, uint32(v)) }
	case 5:
		return func(b []byte, v uint64) {
			binary.BigEndian.PutUint32(b, uint32(v>>8))
			b[4] = byte(v)
		}
	case 6:
		return func(b []byte, v uint64) {
			binary.BigEndian.PutUint32(b, uint32(v>>16))
			binary.BigEndian.PutUint16(b[4:], uint16(v))
		}
	case 7:
		return func(b []byte, v uint64) {
			binary.BigEndian.PutUint32(b, uint32(v>>24))
			binary.BigEndian.PutUint16(b[4:], uint16(v>>8))
			b[6] = byte(v)
		}
	case 8:
		return binary.BigEndian.PutUint64
	}
	return func(b []byte, v uint64) {
		for i := nb - 1; i >= 0; i-- {
			b[i] = byte(v)
			v >>= 8
		}
	}
}

// alignedByteSpan reports whether a clamped (off, w) read/write can use
// the direct byte path: in-range offsets on byte boundaries, whole-byte
// widths within a register.
func alignedByteSpan(off, w int) bool {
	return off >= 0 && w >= 1 && w <= 64 && off%8 == 0 && w%8 == 0
}

// bitSpan is the fuse-time decomposition of a constant (bitOff, width)
// field access into one byte-aligned load: which bytes the field spans,
// the right-shift that lands the field's LSB at bit 0, and the width
// mask. Any constant access of at most 64 bits whose span fits 8 bytes
// lowers this way — alignment no longer matters, which is what makes
// bit-packed metadata layouts cheap on the fused tier. Spans of 9 bytes
// (width > 56 straddling a byte boundary) keep the generic bit helpers.
type bitSpan struct {
	firstByte, nb int
	slack         uint
	mask          uint64
}

func bitSpanOf(off, w int) (bitSpan, bool) {
	if off < 0 || w < 1 || w > 64 {
		return bitSpan{}, false
	}
	first := off / 8
	nb := (off+w-1)/8 - first + 1
	if nb > 8 {
		return bitSpan{}, false
	}
	mask := ^uint64(0)
	if w < 64 {
		mask = 1<<uint(w) - 1
	}
	return bitSpan{firstByte: first, nb: nb, slack: uint(nb*8 - off%8 - w), mask: mask}, true
}

// clamp64 mirrors ReadOperand's wide-field truncation: reads wider than 64
// bits take the low 64 bits.
func clamp64(off, w int) (int, int) {
	if w > 64 {
		off += w - 64
		w = 64
	}
	return off, w
}

// fuseMetaLoad lowers a metadata read (offsets pre-clamped by clamp64).
func fuseMetaLoad(off, w int) fusedVal {
	if sp, ok := bitSpanOf(off, w); ok {
		byteOff, nb, slack, mask := sp.firstByte, sp.nb, sp.slack, sp.mask
		load := beLoadFn(nb)
		return func(e *Env) uint64 {
			m := e.Pkt.Meta
			if uint(byteOff)+uint(nb) > uint(len(m)) {
				e.Faults.BadTemplate.Add(1)
				return 0
			}
			return load(m[byteOff:]) >> slack & mask
		}
	}
	return func(e *Env) uint64 {
		v, err := e.Pkt.MetaBits(off, w)
		if err != nil {
			e.Faults.BadTemplate.Add(1)
			return 0
		}
		return v
	}
}

// fuseHdrLoad lowers a header-field read. The location lookup replaces
// ReadOperand's Valid check + FieldBits re-lookup with one Loc call; the
// observable fault sequence is identical. The in-header bit offset is
// constant, so the sub-byte alignment (and hence the shift and mask) is
// known at fuse time even though the header's packet offset is not.
func fuseHdrLoad(id pkt.HeaderID, off, w int) fusedVal {
	if off >= 0 {
		if sp, ok := bitSpanOf(off%8, w); ok {
			relByte := off / 8
			nb, slack, mask := sp.nb, sp.slack, sp.mask
			load := beLoadFn(nb)
			return func(e *Env) uint64 {
				loc, hok := e.Pkt.HV.Loc(id)
				if !hok {
					e.Faults.InvalidHeaderAccess.Add(1)
					return 0
				}
				d := e.Pkt.Data
				o := loc.Off + relByte
				if uint(o)+uint(nb) > uint(len(d)) {
					e.Faults.BadTemplate.Add(1)
					return 0
				}
				return load(d[o:]) >> slack & mask
			}
		}
	}
	return func(e *Env) uint64 {
		if !e.Pkt.HV.Valid(id) {
			e.Faults.InvalidHeaderAccess.Add(1)
			return 0
		}
		v, err := e.Pkt.FieldBits(id, off, w)
		if err != nil {
			e.Faults.BadTemplate.Add(1)
			return 0
		}
		return v
	}
}

// fuseOperand lowers one operand read. konst marks a side-effect-free
// compile-time constant the caller may fold.
func (f *fuser) fuseOperand(o *template.Operand) (fn fusedVal, konst bool, kv uint64) {
	if o == nil {
		return faultZeroVal, false, 0
	}
	switch o.Kind {
	case template.OpdConst:
		v := o.Const
		return func(*Env) uint64 { return v }, true, v
	case template.OpdParam:
		idx := o.ParamIdx
		return func(e *Env) uint64 {
			if idx >= 0 && idx < len(e.Params) {
				return e.Params[idx]
			}
			e.Faults.BadTemplate.Add(1)
			return 0
		}, false, 0
	case template.OpdMeta:
		return fuseMetaLoad(clamp64(o.BitOff, o.Width)), false, 0
	case template.OpdHeader:
		off, w := clamp64(o.BitOff, o.Width)
		return fuseHdrLoad(o.Header, off, w), false, 0
	}
	return faultZeroVal, false, 0
}

// fuseBin lowers one arithmetic node over already-fused children; known
// reports whether the operator exists (unknown operators keep the
// children's side effects and fault, as EvalExpr does). Division, modulo
// and shift semantics match EvalExpr: x/0 == x%0 == 0, shifts of 64 or
// more yield 0.
func fuseBin(op template.ArithOp, a, b fusedVal) (fusedVal, bool) {
	switch op {
	case template.OpAdd:
		return func(e *Env) uint64 { x := a(e); return x + b(e) }, true
	case template.OpSub:
		return func(e *Env) uint64 { x := a(e); return x - b(e) }, true
	case template.OpMul:
		return func(e *Env) uint64 { x := a(e); return x * b(e) }, true
	case template.OpDiv:
		return func(e *Env) uint64 {
			x, y := a(e), b(e)
			if y == 0 {
				return 0
			}
			return x / y
		}, true
	case template.OpMod:
		return func(e *Env) uint64 {
			x, y := a(e), b(e)
			if y == 0 {
				return 0
			}
			return x % y
		}, true
	case template.OpAnd:
		return func(e *Env) uint64 { x := a(e); return x & b(e) }, true
	case template.OpOr:
		return func(e *Env) uint64 { x := a(e); return x | b(e) }, true
	case template.OpXor:
		return func(e *Env) uint64 { x := a(e); return x ^ b(e) }, true
	case template.OpShl:
		return func(e *Env) uint64 {
			x, y := a(e), b(e)
			if y >= 64 {
				return 0
			}
			return x << y
		}, true
	case template.OpShr:
		return func(e *Env) uint64 {
			x, y := a(e), b(e)
			if y >= 64 {
				return 0
			}
			return x >> y
		}, true
	}
	return nil, false
}

func fuseCmp(op template.CmpOp, a, b fusedVal) (fusedCond, bool) {
	switch op {
	case template.CmpEq:
		return func(e *Env) bool { x := a(e); return x == b(e) }, true
	case template.CmpNe:
		return func(e *Env) bool { x := a(e); return x != b(e) }, true
	case template.CmpLt:
		return func(e *Env) bool { x := a(e); return x < b(e) }, true
	case template.CmpGt:
		return func(e *Env) bool { x := a(e); return x > b(e) }, true
	case template.CmpLe:
		return func(e *Env) bool { x := a(e); return x <= b(e) }, true
	case template.CmpGe:
		return func(e *Env) bool { x := a(e); return x >= b(e) }, true
	}
	return nil, false
}

// fuseExpr lowers a value expression. Constant subtrees (which by
// construction carry no fault side effects) are folded by evaluating the
// fused closure with a nil Env — constant closures never touch it.
func (f *fuser) fuseExpr(x *template.Expr) (fusedVal, bool, uint64) {
	if x == nil {
		return faultZeroVal, false, 0
	}
	switch x.Kind {
	case template.ExprOperand:
		return f.fuseOperand(x.Operand)
	case template.ExprBin:
		a, ak, _ := f.fuseExpr(x.A)
		b, bk, _ := f.fuseExpr(x.B)
		fn, known := fuseBin(x.Op, a, b)
		if !known {
			return func(e *Env) uint64 {
				a(e)
				b(e)
				e.Faults.BadTemplate.Add(1)
				return 0
			}, false, 0
		}
		if ak && bk {
			v := fn(nil)
			return func(*Env) uint64 { return v }, true, v
		}
		return fn, false, 0
	case template.ExprHash:
		args := make([]fusedVal, len(x.Args))
		allConst := true
		for i, ax := range x.Args {
			var k bool
			args[i], k, _ = f.fuseExpr(ax)
			allConst = allConst && k
		}
		fn := func(e *Env) uint64 {
			h := uint64(fnvOffset64)
			for _, a := range args {
				h = fnvMix(h, a(e))
			}
			return finalizeHash(h)
		}
		if allConst {
			v := fn(nil)
			return func(*Env) uint64 { return v }, true, v
		}
		return fn, false, 0
	case template.ExprRegRead:
		idx, _, _ := f.fuseExpr(x.Index)
		reg := x.Reg
		return func(e *Env) uint64 {
			i := idx(e)
			v, ok := e.Regs.Read(reg, i)
			if !ok {
				e.Faults.RegisterFault.Add(1)
			}
			return v
		}, false, 0
	}
	return faultZeroVal, false, 0
}

// fuseCond lowers a boolean. And/Or compile to Go's own && and ||, which
// is exactly the interpreter's short-circuit order; constant left sides
// fold the whole node (skipping the right side's effects is then correct
// by the same short-circuit rule).
func (f *fuser) fuseCond(c *template.Cond) (fusedCond, bool, bool) {
	if c == nil {
		return faultFalseCond, false, false
	}
	switch c.Kind {
	case template.CondBool:
		v := c.Val
		return func(*Env) bool { return v }, true, v
	case template.CondValid:
		id := c.Header
		return func(e *Env) bool { return e.Pkt.HV.Valid(id) }, false, false
	case template.CondNot:
		x, k, kv := f.fuseCond(c.X)
		if k {
			v := !kv
			return func(*Env) bool { return v }, true, v
		}
		return func(e *Env) bool { return !x(e) }, false, false
	case template.CondAnd:
		x, xk, xv := f.fuseCond(c.X)
		y, yk, yv := f.fuseCond(c.Y)
		if xk {
			if !xv {
				return func(*Env) bool { return false }, true, false
			}
			return y, yk, yv
		}
		return func(e *Env) bool { return x(e) && y(e) }, false, false
	case template.CondOr:
		x, xk, xv := f.fuseCond(c.X)
		y, yk, yv := f.fuseCond(c.Y)
		if xk {
			if xv {
				return func(*Env) bool { return true }, true, true
			}
			return y, yk, yv
		}
		return func(e *Env) bool { return x(e) || y(e) }, false, false
	case template.CondCmp:
		a, ak, _ := f.fuseExpr(c.A)
		b, bk, _ := f.fuseExpr(c.B)
		fn, known := fuseCmp(c.Cmp, a, b)
		if !known {
			return func(e *Env) bool {
				a(e)
				b(e)
				e.Faults.BadTemplate.Add(1)
				return false
			}, false, false
		}
		if ak && bk {
			v := fn(nil)
			return func(*Env) bool { return v }, true, v
		}
		return fn, false, false
	}
	return faultFalseCond, false, false
}

// fuseMetaStore lowers a narrow (<=64-bit) metadata store. The source is
// evaluated before the bounds check, matching WriteOperand's evaluate-
// then-store order. Aligned whole-byte stores write directly; any other
// constant span of at most 8 bytes becomes a read-modify-write splice
// with fuse-time masks — the same bytes SetBits produces.
func fuseMetaStore(off, w int, src fusedVal) fusedStmt {
	if alignedByteSpan(off, w) {
		byteOff, nb := off/8, w/8
		store := beStoreFn(nb)
		return func(e *Env) {
			v := src(e)
			m := e.Pkt.Meta
			if uint(byteOff)+uint(nb) > uint(len(m)) {
				e.Faults.BadTemplate.Add(1)
				return
			}
			store(m[byteOff:byteOff+nb], v)
		}
	}
	if sp, ok := bitSpanOf(off, w); ok {
		byteOff, nb, slack, mask := sp.firstByte, sp.nb, sp.slack, sp.mask
		load, store := beLoadFn(nb), beStoreFn(nb)
		clr := ^(mask << slack)
		return func(e *Env) {
			v := src(e)
			m := e.Pkt.Meta
			if uint(byteOff)+uint(nb) > uint(len(m)) {
				e.Faults.BadTemplate.Add(1)
				return
			}
			b := m[byteOff : byteOff+nb]
			store(b, load(b)&clr|(v&mask)<<slack)
		}
	}
	return func(e *Env) {
		if err := e.Pkt.SetMetaBits(off, w, src(e)); err != nil {
			e.Faults.BadTemplate.Add(1)
		}
	}
}

func fuseHdrStore(id pkt.HeaderID, off, w int, src fusedVal) fusedStmt {
	if alignedByteSpan(off, w) {
		byteOff, nb := off/8, w/8
		store := beStoreFn(nb)
		return func(e *Env) {
			v := src(e)
			loc, ok := e.Pkt.HV.Loc(id)
			if !ok {
				e.Faults.InvalidHeaderAccess.Add(1)
				return
			}
			d := e.Pkt.Data
			o := loc.Off + byteOff
			if uint(o)+uint(nb) > uint(len(d)) {
				e.Faults.BadTemplate.Add(1)
				return
			}
			store(d[o:o+nb], v)
		}
	}
	if off >= 0 {
		if sp, ok := bitSpanOf(off%8, w); ok {
			relByte := off / 8
			nb, slack, mask := sp.nb, sp.slack, sp.mask
			load, store := beLoadFn(nb), beStoreFn(nb)
			clr := ^(mask << slack)
			return func(e *Env) {
				v := src(e)
				loc, hok := e.Pkt.HV.Loc(id)
				if !hok {
					e.Faults.InvalidHeaderAccess.Add(1)
					return
				}
				d := e.Pkt.Data
				o := loc.Off + relByte
				if uint(o)+uint(nb) > uint(len(d)) {
					e.Faults.BadTemplate.Add(1)
					return
				}
				b := d[o : o+nb]
				store(b, load(b)&clr|(v&mask)<<slack)
			}
		}
	}
	return func(e *Env) {
		v := src(e)
		if !e.Pkt.HV.Valid(id) {
			e.Faults.InvalidHeaderAccess.Add(1)
			return
		}
		if err := e.Pkt.SetFieldBits(id, off, w, v); err != nil {
			e.Faults.BadTemplate.Add(1)
		}
	}
}

// fuseAssign mirrors execAssign: wide field-to-field copies escape to the
// interpreter's byte-granular execAssign, wide numeric stores to
// storeMetaWide/storeHdrWide, everything else to a direct store closure.
func (f *fuser) fuseAssign(in *template.Instr) fusedStmt {
	if in.Dst.Width > 64 && in.Src != nil && in.Src.Kind == template.ExprOperand &&
		in.Src.Operand != nil && in.Src.Operand.Width == in.Dst.Width {
		tree := in
		return func(e *Env) { e.execAssign(tree) }
	}
	src, _, _ := f.fuseExpr(in.Src)
	switch in.Dst.Kind {
	case template.OpdMeta:
		if in.Dst.Width > 64 {
			off, w := in.Dst.BitOff, in.Dst.Width
			return func(e *Env) { e.storeMetaWide(off, w, src(e)) }
		}
		return fuseMetaStore(in.Dst.BitOff, in.Dst.Width, src)
	case template.OpdHeader:
		if in.Dst.Width > 64 {
			id, off, w := in.Dst.Header, in.Dst.BitOff, in.Dst.Width
			return func(e *Env) { e.storeHdrWide(id, off, w, src(e)) }
		}
		return fuseHdrStore(in.Dst.Header, in.Dst.BitOff, in.Dst.Width, src)
	}
	// Unknown destination kind: evaluate the source (for its side
	// effects), then fault — WriteOperand's default case.
	return func(e *Env) {
		src(e)
		e.Faults.BadTemplate.Add(1)
	}
}

// storeMetaWide mirrors WriteOperand's >64-bit metadata path: zero the
// high part, store the low 64 bits.
func (e *Env) storeMetaWide(off, w int, v uint64) {
	for rem, ro := w-64, off; rem > 0; {
		chunk := min(rem, 64)
		_ = e.Pkt.SetMetaBits(ro, chunk, 0)
		ro += chunk
		rem -= chunk
	}
	if err := e.Pkt.SetMetaBits(off+w-64, 64, v); err != nil {
		e.Faults.BadTemplate.Add(1)
	}
}

// storeHdrWide mirrors WriteOperand's >64-bit header path.
func (e *Env) storeHdrWide(hdr pkt.HeaderID, off, w int, v uint64) {
	if !e.Pkt.HV.Valid(hdr) {
		e.Faults.InvalidHeaderAccess.Add(1)
		return
	}
	for rem, ro := w-64, off; rem > 0; {
		chunk := min(rem, 64)
		_ = e.Pkt.SetFieldBits(hdr, ro, chunk, 0)
		ro += chunk
		rem -= chunk
	}
	if err := e.Pkt.SetFieldBits(hdr, off+w-64, 64, v); err != nil {
		e.Faults.BadTemplate.Add(1)
	}
}

// fuseInstrs lowers an action body; nil means empty (the caller skips the
// call entirely).
func (f *fuser) fuseInstrs(body []template.Instr) fusedStmt {
	if len(body) == 0 {
		return nil
	}
	parts := make([]fusedStmt, len(body))
	for i := range body {
		parts[i] = f.fuseInstr(&body[i])
	}
	if len(parts) == 1 {
		return parts[0]
	}
	return func(e *Env) {
		for _, p := range parts {
			p(e)
		}
	}
}

func (f *fuser) fuseInstr(in *template.Instr) fusedStmt {
	switch in.Op {
	case template.IAssign:
		return f.fuseAssign(in)
	case template.IRegWrite:
		idx, _, _ := f.fuseExpr(in.Index)
		val, _, _ := f.fuseExpr(in.Value)
		reg := in.Reg
		return func(e *Env) {
			i := idx(e)
			v := val(e)
			if !e.Regs.Write(reg, i, v) {
				e.Faults.RegisterFault.Add(1)
			}
		}
	case template.IDrop:
		return func(e *Env) { e.markDrop() }
	case template.IToCPU:
		return func(e *Env) {
			e.Pkt.ToCPU = true
			_ = e.Pkt.SetMetaBits(template.IstdToCPUOff, 1, 1)
		}
	case template.ISRHAdvance:
		return func(e *Env) { e.srhAdvance() }
	case template.ISRHPop:
		return func(e *Env) { e.srhPop() }
	case template.IIf:
		c, k, kv := f.fuseCond(in.Cond)
		thenS := f.fuseInstrs(in.Then)
		elseS := f.fuseInstrs(in.Else)
		if k {
			// Constant condition (CondBool has no side effects): the dead
			// branch folds away entirely.
			br := elseS
			if kv {
				br = thenS
			}
			if br == nil {
				return func(*Env) {}
			}
			return br
		}
		return func(e *Env) {
			if c(e) {
				if thenS != nil {
					thenS(e)
				}
			} else if elseS != nil {
				elseS(e)
			}
		}
	}
	return func(e *Env) { e.Faults.BadTemplate.Add(1) }
}

// wordStep is one field of at most 64 bits on its way into a register:
// where its bytes are (kind, hdr, off), how to cut the field out of them
// (nb, slack, mask) and where it lands in the word being assembled (shl).
// Offsets and masks are fuse-time constants.
type wordStep struct {
	kind  uint8 // keyMeta, keyHdr or keyValue
	nb    uint8 // source bytes the field spans, 1..9
	slack uint8 // bits right of the field in its last source byte
	shl   uint8
	hdr   pkt.HeaderID      // keyHdr only
	off   int               // first source byte: in Meta, or past the header's start
	mask  uint64            // the low width bits
	op    *template.Operand // keyValue only, read via ReadOperand
}

// newWordStep lowers a plan step (1 <= width <= 64, bitOff >= 0 — what
// compileKeyPlan admits) that lands shl bits above the word's bit 0.
func newWordStep(s *keyStep, shl int) wordStep {
	ws := wordStep{kind: s.kind, hdr: s.hdr, op: s.op, shl: uint8(shl), mask: ^uint64(0) >> uint(64-s.width)}
	if s.kind != keyValue {
		sub := s.bitOff % 8
		ws.off = s.bitOff / 8
		ws.nb = uint8((sub + s.width + 7) / 8)
		ws.slack = uint8(int(ws.nb)*8 - sub - s.width)
	}
	return ws
}

// beLoad reads b[:nb] big-endian, nb in 1..8; callers guarantee len(b) >= nb.
func beLoad(b []byte, nb uint8) uint64 {
	switch nb {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.BigEndian.Uint16(b))
	case 4:
		return uint64(binary.BigEndian.Uint32(b))
	case 6:
		return uint64(binary.BigEndian.Uint32(b))<<16 | uint64(binary.BigEndian.Uint16(b[4:]))
	case 8:
		return binary.BigEndian.Uint64(b)
	}
	var v uint64
	for _, x := range b[:nb] {
		v = v<<8 | uint64(x)
	}
	return v
}

// fusedWordKey is a lookup key of at most 64 bits lowered to a register:
// a start value (the plan's constant fields, which cannot fault) and the
// steps that OR the packet's fields into it. It is what a plain table's
// key, a selector's group and each of a selector's hashed fields are
// built with.
type fusedWordKey struct {
	base  uint64
	steps []wordStep
}

// build assembles the word from the Env's packet. For a table key that is
// the key's nBytes big-endian bytes with tail padding zero — match.KeyWord
// of the bytes buildKeyPlanned lays down — built in the same step order,
// with the same abort rule and the same fault counts: ok false means a
// field could not be read, because its header is not parsed
// (InvalidHeaderAccess) or it ends beyond the buffer (BadTemplate), and the
// apply then records applied-no-hit and looks nothing up. A keyValue step
// always reads (ReadOperand counts its own faults and yields 0).
func (k *fusedWordKey) build(e *Env) (word uint64, ok bool) {
	p := e.Pkt
	word = k.base
	for i := range k.steps {
		s := &k.steps[i]
		var src []byte
		off := s.off
		switch s.kind {
		case keyMeta:
			src = p.Meta
		case keyHdr:
			loc, hok := p.HV.Loc(s.hdr)
			if !hok {
				e.Faults.InvalidHeaderAccess.Add(1)
				return 0, false
			}
			src, off = p.Data, off+loc.Off
		default:
			word |= e.ReadOperand(s.op) & s.mask << s.shl
			continue
		}
		if uint(off)+uint(s.nb) > uint(len(src)) {
			e.Faults.BadTemplate.Add(1)
			return 0, false
		}
		b := src[off:]
		var v uint64
		if s.nb == 9 {
			// A field of 57..64 bits off a byte boundary: eight bytes and
			// the top bits of the ninth.
			v = binary.BigEndian.Uint64(b)<<(8-s.slack) | uint64(b[8])>>s.slack
		} else {
			v = beLoad(b, s.nb) >> s.slack
		}
		word |= v & s.mask << s.shl
	}
	return word, true
}

// fuseWordKey lowers a plain table's key plan; nil when the key does not
// fit a word (the apply then builds byte keys with buildKeyPlanned).
func fuseWordKey(kp *keyPlan) *fusedWordKey {
	if kp == nil || kp.sel || kp.nBytes > 8 {
		return nil
	}
	k := &fusedWordKey{steps: make([]wordStep, 0, len(kp.steps))}
	for i := range kp.steps {
		s := &kp.steps[i]
		ws := newWordStep(s, kp.nBytes*8-s.dstOff-s.width)
		if s.kind == keyValue && s.op.Kind == template.OpdConst {
			k.base |= s.op.Const & ws.mask << ws.shl
			continue
		}
		k.steps = append(k.steps, ws)
	}
	return k
}

// fuseFieldWord lowers a selector key field — the group operand, or a
// hashed one — to a one-step word: match.KeyWord of the (width+7)/8 bytes
// operandBytes lays down, with operandBytes' fault kinds and abort. For a
// constant or parameter those bytes are the low bytes of ReadOperand's
// value, unmasked, where a table key keeps only the field's width. nil
// means no register holds the field (wide or irregular).
func fuseFieldWord(o *template.Operand) *fusedWordKey {
	if o.Width < 1 || o.Width > 64 {
		return nil
	}
	s := keyStep{kind: keyValue, op: o, bitOff: o.BitOff, width: (o.Width + 7) / 8 * 8}
	switch o.Kind {
	case template.OpdMeta:
		s.kind, s.width = keyMeta, o.Width
	case template.OpdHeader:
		s.kind, s.width, s.hdr = keyHdr, o.Width, o.Header
	}
	if s.kind != keyValue && o.BitOff < 0 {
		return nil
	}
	return &fusedWordKey{steps: []wordStep{newWordStep(&s, 0)}}
}

// fusedHashStep reads one selector hash field: as a word, of which the
// low bits ((width+7)/8*8 of them) are mixed, or — for a field no register
// holds — as operandBytes of the operand.
type fusedHashStep struct {
	word *fusedWordKey
	bits int
	wide *template.Operand
}

// fuseHashSteps lowers a selector's hashed fields (Keys[1:]).
func fuseHashSteps(keys []template.KeySel) []fusedHashStep {
	steps := make([]fusedHashStep, len(keys))
	for i := range keys {
		o := &keys[i].Operand
		if w := fuseFieldWord(o); w != nil {
			steps[i] = fusedHashStep{word: w, bits: (o.Width + 7) / 8 * 8}
		} else {
			steps[i].wide = o
		}
	}
	return steps
}

// fuseHash folds the hashed fields as applyTableWith's selector arm does:
// each field's bytes MSB-first, and a field that cannot be read stops the
// fold but not the lookup.
func fuseHash(e *Env, steps []fusedHashStep) uint64 {
	h := uint64(fnvOffset64)
	for i := range steps {
		s := &steps[i]
		if s.wide != nil {
			raw, ok := e.operandBytes(s.wide, e.fieldBuf)
			if !ok {
				break
			}
			e.fieldBuf = raw[:0]
			for _, b := range raw {
				h ^= uint64(b)
				h *= fnvPrime64
			}
			continue
		}
		v, ok := s.word.build(e)
		if !ok {
			break
		}
		for sh := s.bits; sh > 0; sh -= 8 {
			h ^= uint64(byte(v >> uint(sh-8)))
			h *= fnvPrime64
		}
	}
	return finalizeHash(h)
}

// countLookup records a word-path lookup of bt: its hit or miss into the
// Env's batched counts, and a hit's entry into out.
func (e *Env) countLookup(bt *boundTable, res *match.Result, out *matchOutcome) {
	if e.statTbl != bt {
		e.flushTableStats()
		e.statTbl = bt
	}
	if res == nil {
		e.statMisses++
		return
	}
	e.statHits++
	out.hit = true
	out.tag = uint64(res.ActionID)
	out.params = res.Params
}

// fuseMatchStmts lowers the matcher. An apply captures its table's slot in
// the stage's bound array — Bind fills it after fusing, so closures see
// bind-time handles with no rebuild — and runs the word path when Bind
// found a word handle there, else the applyTableWith funnel it shares with
// the interpreter.
func (f *fuser) fuseMatchStmts(stmts []template.MatchStmt) fusedMatch {
	if len(stmts) == 0 {
		return nil
	}
	parts := make([]fusedMatch, 0, len(stmts))
	for i := range stmts {
		st := &stmts[i]
		switch st.Kind {
		case template.MatchIf:
			c, k, kv := f.fuseCond(st.Cond)
			thenM := f.fuseMatchStmts(st.Then)
			elseM := f.fuseMatchStmts(st.Else)
			if k {
				br := elseM
				if kv {
					br = thenM
				}
				if br != nil {
					parts = append(parts, br)
				}
				continue
			}
			cc, tm, em := c, thenM, elseM
			parts = append(parts, func(e *Env, out *matchOutcome) {
				if cc(e) {
					if tm != nil {
						tm(e, out)
					}
				} else if em != nil {
					em(e, out)
				}
			})
		case template.MatchApply:
			idx := -1
			if t := f.sr.tables[st.Table]; t != nil {
				idx = f.tblIdx[st.Table]
			}
			if idx < 0 {
				// Unknown table: one BadTemplate per attempt, whether or
				// not a table already applied — runMatch's two checks
				// collapse to a single fault either way.
				parts = append(parts, func(e *Env, _ *matchOutcome) {
					e.Faults.BadTemplate.Add(1)
				})
				continue
			}
			ti := idx
			t, kp, bt := f.prog.tables[ti], f.prog.keyPlans[ti], &f.prog.bound[ti]
			tname := t.Name
			// generic is the funnel shared with the interpreter: byte keys
			// end to end. Wide keys and groups take it, and so does any
			// apply Bind could not resolve to a word handle.
			generic := func(e *Env, out *matchOutcome) {
				if out.applied {
					// One table application per stage per packet; extra
					// applies are template bugs.
					e.Faults.BadTemplate.Add(1)
					return
				}
				e.applyTableWith(t, bt.rt, kp, out)
			}
			if gs := f.groups[ti]; gs != nil {
				// Selector whose group fits a word: group, hash fold and the
				// member pick run over fuse-time constant offsets with no byte
				// key in between, and the hit/miss counts batch on the Env as
				// a plain table's do. Fault ordering and outcome recording are
				// applyTableWith's selector arm's.
				hsteps := fuseHashSteps(t.Keys[1:])
				parts = append(parts, func(e *Env, out *matchOutcome) {
					member := bt.member
					if out.applied || member == nil {
						generic(e, out)
						return
					}
					out.applied = true
					out.table = tname
					group, ok := gs.build(e)
					if !ok {
						return
					}
					e.countLookup(bt, member(group, fuseHash(e, hsteps)), out)
				})
				continue
			}
			if wk := f.keys[ti]; wk != nil {
				// Plain table whose key fits a word: field loads OR into a
				// register, the register goes straight to the engine's probe,
				// and the hit/miss counts batch on the Env instead of two
				// shared atomics per packet.
				parts = append(parts, func(e *Env, out *matchOutcome) {
					probe := bt.probe
					if out.applied || probe == nil {
						generic(e, out)
						return
					}
					out.applied = true
					out.table = tname
					word, ok := wk.build(e)
					if !ok {
						return
					}
					e.countLookup(bt, probe(word), out)
				})
				continue
			}
			parts = append(parts, generic)
		}
	}
	switch len(parts) {
	case 0:
		return nil
	case 1:
		return parts[0]
	}
	return func(e *Env, out *matchOutcome) {
		for _, p := range parts {
			p(e, out)
		}
	}
}
