package tsp

// exec.go is the per-packet switch-loop executor for programs produced by
// compile.go. Semantics — including fault-counter side effects — mirror
// interp.go exactly; when changing either, change both, and let the
// differential fuzz (internal/ipbm) catch drift.

import (
	"ipsa/internal/pkt"
	"ipsa/internal/template"
)

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// exec runs one compiled program. The caller must have sized e.stack via
// ensureStack(prog.maxStack).
func (e *Env) exec(code []instr, prog *stageProg, backend TableBackend, out *matchOutcome) {
	if len(code) == 0 {
		return
	}
	stack := e.stack
	sp := 0
	for pc := 0; pc < len(code); pc++ {
		in := &code[pc]
		switch in.op {
		case opPushConst:
			stack[sp] = in.val
			sp++
		case opPushParam:
			idx := int(in.a)
			if idx >= 0 && idx < len(e.Params) {
				stack[sp] = e.Params[idx]
			} else {
				e.Faults.BadTemplate.Add(1)
				stack[sp] = 0
			}
			sp++
		case opLoadMeta:
			v, err := e.Pkt.MetaBits(int(in.a), int(in.b))
			if err != nil {
				e.Faults.BadTemplate.Add(1)
				v = 0
			}
			stack[sp] = v
			sp++
		case opLoadHdr:
			var v uint64
			if !e.Pkt.HV.Valid(in.hdr) {
				e.Faults.InvalidHeaderAccess.Add(1)
			} else {
				var err error
				v, err = e.Pkt.FieldBits(in.hdr, int(in.a), int(in.b))
				if err != nil {
					e.Faults.BadTemplate.Add(1)
					v = 0
				}
			}
			stack[sp] = v
			sp++
		case opAdd:
			sp--
			stack[sp-1] += stack[sp]
		case opSub:
			sp--
			stack[sp-1] -= stack[sp]
		case opMul:
			sp--
			stack[sp-1] *= stack[sp]
		case opDiv:
			sp--
			if stack[sp] == 0 {
				stack[sp-1] = 0
			} else {
				stack[sp-1] /= stack[sp]
			}
		case opMod:
			sp--
			if stack[sp] == 0 {
				stack[sp-1] = 0
			} else {
				stack[sp-1] %= stack[sp]
			}
		case opAndB:
			sp--
			stack[sp-1] &= stack[sp]
		case opOrB:
			sp--
			stack[sp-1] |= stack[sp]
		case opXor:
			sp--
			stack[sp-1] ^= stack[sp]
		case opShl:
			sp--
			if stack[sp] >= 64 {
				stack[sp-1] = 0
			} else {
				stack[sp-1] <<= stack[sp]
			}
		case opShr:
			sp--
			if stack[sp] >= 64 {
				stack[sp-1] = 0
			} else {
				stack[sp-1] >>= stack[sp]
			}
		case opHash:
			base := sp - int(in.a)
			h := uint64(fnvOffset64)
			for i := base; i < sp; i++ {
				h = fnvMix(h, stack[i])
			}
			sp = base
			stack[sp] = finalizeHash(h)
			sp++
		case opRegRead:
			v, ok := e.Regs.Read(in.reg, stack[sp-1])
			if !ok {
				e.Faults.RegisterFault.Add(1)
			}
			stack[sp-1] = v
		case opCmpEq:
			sp--
			stack[sp-1] = b2u(stack[sp-1] == stack[sp])
		case opCmpNe:
			sp--
			stack[sp-1] = b2u(stack[sp-1] != stack[sp])
		case opCmpLt:
			sp--
			stack[sp-1] = b2u(stack[sp-1] < stack[sp])
		case opCmpGt:
			sp--
			stack[sp-1] = b2u(stack[sp-1] > stack[sp])
		case opCmpLe:
			sp--
			stack[sp-1] = b2u(stack[sp-1] <= stack[sp])
		case opCmpGe:
			sp--
			stack[sp-1] = b2u(stack[sp-1] >= stack[sp])
		case opValid:
			stack[sp] = b2u(e.Pkt.HV.Valid(in.hdr))
			sp++
		case opBoolNot:
			stack[sp-1] = b2u(stack[sp-1] == 0)
		case opJmp:
			pc = int(in.a) - 1
		case opJz:
			sp--
			if stack[sp] == 0 {
				pc = int(in.a) - 1
			}
		case opJnz:
			sp--
			if stack[sp] != 0 {
				pc = int(in.a) - 1
			}
		case opPop:
			sp -= int(in.a)
		case opFaultZero:
			e.Faults.BadTemplate.Add(1)
			stack[sp] = 0
			sp++
		case opFault:
			e.Faults.BadTemplate.Add(1)
		case opStoreMeta:
			sp--
			if err := e.Pkt.SetMetaBits(int(in.a), int(in.b), stack[sp]); err != nil {
				e.Faults.BadTemplate.Add(1)
			}
		case opStoreMetaWide:
			sp--
			e.storeMetaWide(int(in.a), int(in.b), stack[sp])
		case opStoreHdr:
			sp--
			if !e.Pkt.HV.Valid(in.hdr) {
				e.Faults.InvalidHeaderAccess.Add(1)
				break
			}
			if err := e.Pkt.SetFieldBits(in.hdr, int(in.a), int(in.b), stack[sp]); err != nil {
				e.Faults.BadTemplate.Add(1)
			}
		case opStoreHdrWide:
			sp--
			e.storeHdrWide(in.hdr, int(in.a), int(in.b), stack[sp])
		case opDrop:
			e.markDrop()
		case opToCPU:
			e.Pkt.ToCPU = true
			_ = e.Pkt.SetMetaBits(template.IstdToCPUOff, 1, 1)
		case opSRHAdvance:
			e.srhAdvance()
		case opSRHPop:
			e.srhPop()
		case opRegWrite:
			sp -= 2
			if !e.Regs.Write(in.reg, stack[sp], stack[sp+1]) {
				e.Faults.RegisterFault.Add(1)
			}
		case opApply:
			if out.applied {
				// One table application per stage per packet; extra
				// applies are template bugs.
				e.Faults.BadTemplate.Add(1)
				break
			}
			if in.a < 0 {
				e.Faults.BadTemplate.Add(1)
				break
			}
			bt := &prog.bound[in.a]
			e.applyTableWith(prog.tables[in.a], bt.rt, bt.rs, prog.keyPlans[in.a], backend, out)
		case opAssignTree:
			e.execAssign(in.tree)
		case opIntStamp:
			e.intStamp(uint16(in.a))
		}
	}
}

// storeMetaWide mirrors WriteOperand's >64-bit metadata path: zero the
// high part, store the low 64 bits.
func (e *Env) storeMetaWide(off, w int, v uint64) {
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
	if err := e.Pkt.SetMetaBits(off, 64, v); err != nil {
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
		chunk := rem
		if chunk > 64 {
			chunk = 64
		}
		_ = e.Pkt.SetFieldBits(hdr, ro, chunk, 0)
		ro += chunk
		rem -= chunk
	}
	off += w - 64
	if err := e.Pkt.SetFieldBits(hdr, off, 64, v); err != nil {
		e.Faults.BadTemplate.Add(1)
	}
}
