package tsp

import (
	"sync/atomic"

	"ipsa/internal/pkt"
	"ipsa/internal/telemetry"
	"ipsa/internal/template"
	"ipsa/internal/verdict"
)

// Faults counts abnormal events the interpreter tolerates the way hardware
// would (reads of invalid headers return zero, bad register indexes are
// dropped) while keeping them observable.
type Faults struct {
	InvalidHeaderAccess atomic.Uint64
	RegisterFault       atomic.Uint64
	BadTemplate         atomic.Uint64
}

// Env is the per-packet evaluation environment of the executor.
type Env struct {
	Pkt    *pkt.Packet
	Params []uint64
	Regs   *RegisterFile
	Faults *Faults
	// srhID/ipv6ID locate the instances the SRv6 action primitives
	// operate on; InvalidHeader when the design has no such headers.
	SRHID  pkt.HeaderID
	IPv6ID pkt.HeaderID

	// Trace, when non-nil, is this packet's flight record: each stage
	// executed appends a telemetry.StageEvent. Nil for the (sampled-out)
	// common case.
	Trace *telemetry.TraceRecord
	// Timed marks this packet as latency-sampled: TSPs with a histogram
	// attached time their stage batch. Kept separate from Trace so
	// latency sampling can run denser than full tracing.
	Timed bool
	// TSPIndex is the physical TSP currently executing, stamped by the
	// program version's slot that runs the stage, so stage trace events
	// carry their location.
	TSPIndex int

	// Int is the INT stamping context, set by the dataplane per packet
	// while INT is enabled; nil makes every IntStamp epilogue a no-op.
	Int *IntStampCtx

	// Lane is the counter stripe this executor writes (0 for the inline
	// Forward paths, shard index + 1 for shard workers), so per-packet
	// totals land in per-core cells instead of one contended cache line.
	Lane int

	// Scratch buffers reused across lookups on the hot path. keyBuf backs
	// BuildKey results (valid until the next BuildKey on this Env);
	// groupBuf and fieldBuf back selector group keys and field reads.
	keyBuf   []byte
	groupBuf []byte
	fieldBuf []byte

	// statTbl/statHits/statMisses batch table hit/miss accounting for the
	// fused word path: counts for the table last probed accumulate here in
	// plain registers and flushTableStats credits them to the table's
	// shared atomics at batch boundaries.
	statTbl    *boundTable
	statHits   uint64
	statMisses uint64

	// matchOut is the per-stage match outcome, Env-resident because the
	// fused tier hands its address to closure calls: a stack-local would
	// be forced to escape (one heap allocation per stage per packet).
	matchOut matchOutcome
}

// Rebind prepares a (possibly pooled) Env for a new packet under the given
// design, clearing all per-packet state while keeping scratch buffers.
func (e *Env) Rebind(regs *RegisterFile, faults *Faults, srh, ipv6 pkt.HeaderID) {
	e.Pkt = nil
	e.Params = nil
	e.Regs = regs
	e.Faults = faults
	e.SRHID = srh
	e.IPv6ID = ipv6
	e.Trace = nil
	e.Timed = false
	e.TSPIndex = 0
	e.Int = nil
	e.Lane = 0
	e.statTbl = nil
	e.statHits, e.statMisses = 0, 0
}

const fnvOffset64 = 14695981039346656037
const fnvPrime64 = 1099511628211

func fnvMix(h, v uint64) uint64 {
	for i := 56; i >= 0; i -= 8 {
		h ^= (v >> uint(i)) & 0xff
		h *= fnvPrime64
	}
	return h
}

// finalizeHash applies a splitmix64-style avalanche. FNV-1a's low bit is a
// linear function of the input bytes' low bits, so using a raw FNV value
// modulo a small member count degenerates (every flow picks the same ECMP
// member); finalization restores uniformity in the low bits.
func finalizeHash(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// ReadOperand evaluates an operand to a uint64 (wide fields are truncated
// to their low 64 bits).
func (e *Env) ReadOperand(o *template.Operand) uint64 {
	switch o.Kind {
	case template.OpdConst:
		return o.Const
	case template.OpdParam:
		if o.ParamIdx < len(e.Params) {
			return e.Params[o.ParamIdx]
		}
		e.Faults.BadTemplate.Add(1)
		return 0
	case template.OpdMeta:
		w := o.Width
		off := o.BitOff
		if w > 64 {
			off += w - 64
			w = 64
		}
		v, err := e.Pkt.MetaBits(off, w)
		if err != nil {
			e.Faults.BadTemplate.Add(1)
			return 0
		}
		return v
	case template.OpdHeader:
		if !e.Pkt.HV.Valid(o.Header) {
			e.Faults.InvalidHeaderAccess.Add(1)
			return 0
		}
		w := o.Width
		off := o.BitOff
		if w > 64 {
			off += w - 64
			w = 64
		}
		v, err := e.Pkt.FieldBits(o.Header, off, w)
		if err != nil {
			e.Faults.BadTemplate.Add(1)
			return 0
		}
		return v
	}
	e.Faults.BadTemplate.Add(1)
	return 0
}

// WriteOperand stores v into a field destination, truncating to its width.
func (e *Env) WriteOperand(o *template.Operand, v uint64) {
	switch o.Kind {
	case template.OpdMeta:
		w := o.Width
		off := o.BitOff
		if w > 64 {
			// Clear the high part, store the low 64 bits.
			for rem, ro := w-64, off; rem > 0; {
				chunk := rem
				if chunk > 64 {
					chunk = 64
				}
				_ = e.Pkt.SetMetaBits(ro, chunk, 0)
				ro += chunk
				rem -= chunk
			}
			off += w - 64
			w = 64
		}
		if err := e.Pkt.SetMetaBits(off, w, v); err != nil {
			e.Faults.BadTemplate.Add(1)
		}
	case template.OpdHeader:
		if !e.Pkt.HV.Valid(o.Header) {
			e.Faults.InvalidHeaderAccess.Add(1)
			return
		}
		w := o.Width
		off := o.BitOff
		if w > 64 {
			for rem, ro := w-64, off; rem > 0; {
				chunk := rem
				if chunk > 64 {
					chunk = 64
				}
				_ = e.Pkt.SetFieldBits(o.Header, ro, chunk, 0)
				ro += chunk
				rem -= chunk
			}
			off += w - 64
			w = 64
		}
		if err := e.Pkt.SetFieldBits(o.Header, off, w, v); err != nil {
			e.Faults.BadTemplate.Add(1)
		}
	default:
		e.Faults.BadTemplate.Add(1)
	}
}

// operandBytes reads a field operand's raw bytes for wide compares, key
// building and hashing. ok is false for invalid headers.
func (e *Env) operandBytes(o *template.Operand, dst []byte) ([]byte, bool) {
	n := (o.Width + 7) / 8
	if cap(dst) < n {
		dst = make([]byte, n)
	}
	dst = dst[:n]
	switch o.Kind {
	case template.OpdMeta:
		if err := pkt.GetBytes(e.Pkt.Meta, o.BitOff, o.Width, dst); err != nil {
			e.Faults.BadTemplate.Add(1)
			return dst, false
		}
		return dst, true
	case template.OpdHeader:
		loc, ok := e.Pkt.HV.Loc(o.Header)
		if !ok {
			e.Faults.InvalidHeaderAccess.Add(1)
			return dst, false
		}
		if err := pkt.GetBytes(e.Pkt.Data, loc.Off*8+o.BitOff, o.Width, dst); err != nil {
			e.Faults.BadTemplate.Add(1)
			return dst, false
		}
		return dst, true
	default:
		v := e.ReadOperand(o)
		for i := n - 1; i >= 0; i-- {
			dst[i] = byte(v)
			v >>= 8
		}
		return dst, true
	}
}

// EvalExpr evaluates a compiled expression.
func (e *Env) EvalExpr(x *template.Expr) uint64 {
	if x == nil {
		e.Faults.BadTemplate.Add(1)
		return 0
	}
	switch x.Kind {
	case template.ExprOperand:
		return e.ReadOperand(x.Operand)
	case template.ExprBin:
		a := e.EvalExpr(x.A)
		b := e.EvalExpr(x.B)
		switch x.Op {
		case template.OpAdd:
			return a + b
		case template.OpSub:
			return a - b
		case template.OpMul:
			return a * b
		case template.OpDiv:
			if b == 0 {
				return 0
			}
			return a / b
		case template.OpMod:
			if b == 0 {
				return 0
			}
			return a % b
		case template.OpAnd:
			return a & b
		case template.OpOr:
			return a | b
		case template.OpXor:
			return a ^ b
		case template.OpShl:
			if b >= 64 {
				return 0
			}
			return a << b
		case template.OpShr:
			if b >= 64 {
				return 0
			}
			return a >> b
		}
		e.Faults.BadTemplate.Add(1)
		return 0
	case template.ExprHash:
		h := uint64(fnvOffset64)
		for _, a := range x.Args {
			h = fnvMix(h, e.EvalExpr(a))
		}
		return finalizeHash(h)
	case template.ExprRegRead:
		idx := e.EvalExpr(x.Index)
		v, ok := e.Regs.Read(x.Reg, idx)
		if !ok {
			e.Faults.RegisterFault.Add(1)
		}
		return v
	}
	e.Faults.BadTemplate.Add(1)
	return 0
}

// EvalCond evaluates a compiled boolean.
func (e *Env) EvalCond(c *template.Cond) bool {
	if c == nil {
		e.Faults.BadTemplate.Add(1)
		return false
	}
	switch c.Kind {
	case template.CondBool:
		return c.Val
	case template.CondValid:
		return e.Pkt.HV.Valid(c.Header)
	case template.CondNot:
		return !e.EvalCond(c.X)
	case template.CondAnd:
		return e.EvalCond(c.X) && e.EvalCond(c.Y)
	case template.CondOr:
		return e.EvalCond(c.X) || e.EvalCond(c.Y)
	case template.CondCmp:
		a := e.EvalExpr(c.A)
		b := e.EvalExpr(c.B)
		switch c.Cmp {
		case template.CmpEq:
			return a == b
		case template.CmpNe:
			return a != b
		case template.CmpLt:
			return a < b
		case template.CmpGt:
			return a > b
		case template.CmpLe:
			return a <= b
		case template.CmpGe:
			return a >= b
		}
	}
	e.Faults.BadTemplate.Add(1)
	return false
}

// markDrop is the one drop site shared by both executor tiers: it
// sets the Drop flag and istd.drop bit as before, and stamps the
// structured loss attribution — the reason (a stage drop action is an
// intentional, ACL-style drop) and the stage (the TSP this Env is
// currently executing, stamped by the slot running it). Both ride the
// packet to the switch's verdict accounting, which files the loss under
// ipsa_drop_total{reason,stage}.
//
// An admission-stamped parse failure wins over the program drop: designs
// route unparseable frames into a catch-all drop action (base_l2l3's fib
// and dmac defaults), and attributing those to the stage would let a
// garbage-frame storm masquerade as intentional ACL policy, hiding it
// from the unexpected-loss health detector.
func (e *Env) markDrop() {
	e.Pkt.Drop = true
	if e.Pkt.DropReason != verdict.ReasonParse {
		e.Pkt.DropReason = verdict.ReasonACL
		e.Pkt.DropStage = int32(e.TSPIndex)
	}
	_ = e.Pkt.SetMetaBits(template.IstdDropOff, 1, 1)
}

// ExecInstrs runs a compiled action body.
func (e *Env) ExecInstrs(body []template.Instr) {
	for i := range body {
		in := &body[i]
		switch in.Op {
		case template.IAssign:
			e.execAssign(in)
		case template.IRegWrite:
			idx := e.EvalExpr(in.Index)
			v := e.EvalExpr(in.Value)
			if !e.Regs.Write(in.Reg, idx, v) {
				e.Faults.RegisterFault.Add(1)
			}
		case template.IDrop:
			e.markDrop()
		case template.IToCPU:
			e.Pkt.ToCPU = true
			_ = e.Pkt.SetMetaBits(template.IstdToCPUOff, 1, 1)
		case template.ISRHAdvance:
			e.srhAdvance()
		case template.ISRHPop:
			e.srhPop()
		case template.IIf:
			if e.EvalCond(in.Cond) {
				e.ExecInstrs(in.Then)
			} else {
				e.ExecInstrs(in.Else)
			}
		default:
			e.Faults.BadTemplate.Add(1)
		}
	}
}

// execAssign handles both narrow numeric assignment and wide (>64-bit)
// field-to-field copies such as ipv6 addresses.
func (e *Env) execAssign(in *template.Instr) {
	if in.Dst.Width > 64 && in.Src != nil && in.Src.Kind == template.ExprOperand &&
		in.Src.Operand.Width == in.Dst.Width {
		raw, ok := e.operandBytes(in.Src.Operand, nil)
		if !ok {
			return
		}
		switch in.Dst.Kind {
		case template.OpdMeta:
			if err := pkt.SetBytes(e.Pkt.Meta, in.Dst.BitOff, in.Dst.Width, raw); err != nil {
				e.Faults.BadTemplate.Add(1)
			}
		case template.OpdHeader:
			loc, okl := e.Pkt.HV.Loc(in.Dst.Header)
			if !okl {
				e.Faults.InvalidHeaderAccess.Add(1)
				return
			}
			if err := pkt.SetBytes(e.Pkt.Data, loc.Off*8+in.Dst.BitOff, in.Dst.Width, raw); err != nil {
				e.Faults.BadTemplate.Add(1)
			}
		default:
			e.Faults.BadTemplate.Add(1)
		}
		return
	}
	e.WriteOperand(&in.Dst, e.EvalExpr(in.Src))
}

// srhAdvance implements the SRv6 End behaviour: SL -= 1 and
// ipv6.dst_addr = segment_list[SL] (RFC 8754 Sec. 4.3.1).
func (e *Env) srhAdvance() {
	srhLoc, ok := e.Pkt.HV.Loc(e.SRHID)
	if !ok || !e.Pkt.HV.Valid(e.IPv6ID) {
		e.Faults.InvalidHeaderAccess.Add(1)
		return
	}
	sl, err := pkt.GetBits(e.Pkt.Data, srhLoc.Off*8+3*8, 8)
	if err != nil || sl == 0 {
		e.Faults.BadTemplate.Add(1)
		return
	}
	sl--
	if err := pkt.SetBits(e.Pkt.Data, srhLoc.Off*8+3*8, 8, sl); err != nil {
		e.Faults.BadTemplate.Add(1)
		return
	}
	segOff := srhLoc.Off + pkt.SRHFixedLen + int(sl)*pkt.SegmentLength
	if segOff+pkt.SegmentLength > len(e.Pkt.Data) || segOff+pkt.SegmentLength > srhLoc.Off+srhLoc.Len {
		e.Faults.BadTemplate.Add(1)
		return
	}
	v6Loc, _ := e.Pkt.HV.Loc(e.IPv6ID)
	// dst_addr is the last 16 bytes of the 40-byte IPv6 header.
	copy(e.Pkt.Data[v6Loc.Off+24:v6Loc.Off+40], e.Pkt.Data[segOff:segOff+pkt.SegmentLength])
}

// srhPop removes the SRH: ipv6.next_hdr = srh.next_hdr, payload_len is
// reduced, the SRH bytes are excised and the header vector is fixed up.
func (e *Env) srhPop() {
	srhLoc, ok := e.Pkt.HV.Loc(e.SRHID)
	if !ok || !e.Pkt.HV.Valid(e.IPv6ID) {
		e.Faults.InvalidHeaderAccess.Add(1)
		return
	}
	v6Loc, _ := e.Pkt.HV.Loc(e.IPv6ID)
	nh := e.Pkt.Data[srhLoc.Off]
	e.Pkt.Data[v6Loc.Off+6] = nh
	plOff := v6Loc.Off + 4
	pl := uint16(e.Pkt.Data[plOff])<<8 | uint16(e.Pkt.Data[plOff+1])
	pl -= uint16(srhLoc.Len)
	e.Pkt.Data[plOff] = byte(pl >> 8)
	e.Pkt.Data[plOff+1] = byte(pl)
	if err := e.Pkt.RemoveBytes(srhLoc.Off, srhLoc.Len); err != nil {
		e.Faults.BadTemplate.Add(1)
		return
	}
	e.Pkt.HV.Invalidate(e.SRHID)
}
