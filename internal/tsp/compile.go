package tsp

// compile.go lowers a stage template (the tree IR in internal/template)
// into a flat instruction program at config-apply time. The tree
// interpreter in interp.go dispatches on string kinds and re-derives
// operand offsets/widths per packet; the compiled form pre-resolves all of
// that once, so the per-packet cost is a small integer-opcode switch loop
// over a contiguous []instr (see exec.go). The interpreter is kept as the
// reference oracle (ExecInterp) and the two are held bit-for-bit
// equivalent — packet bytes, metadata, verdicts and fault counters — by
// the differential fuzz test in internal/ipbm.

import (
	"fmt"

	"ipsa/internal/match"
	"ipsa/internal/pkt"
	"ipsa/internal/template"
)

// ExecMode selects the per-packet executor implementation.
type ExecMode int

// Executor modes. The zero value is the fused second-stage compiler, so a
// zero-valued Options/BuildOpts picks the fastest tier.
const (
	// ExecFused lowers stage templates through the flat program into
	// fused native Go closures (see fuse.go): the per-stage instruction
	// stream is specialized away at build time. The default.
	ExecFused ExecMode = iota
	// ExecCompiled lowers stage templates to flat programs at bind time
	// and runs them with the switch-loop executor; kept as the mid-tier
	// differential oracle for the fused closures.
	ExecCompiled
	// ExecInterp tree-walks the template IR per packet; kept as the
	// reference oracle for differential testing.
	ExecInterp
)

func (m ExecMode) String() string {
	switch m {
	case ExecInterp:
		return "interp"
	case ExecCompiled:
		return "compiled"
	}
	return "fused"
}

// ParseExecMode maps the CLI flag spelling to an ExecMode.
func ParseExecMode(s string) (ExecMode, error) {
	switch s {
	case "fused", "":
		return ExecFused, nil
	case "compiled":
		return ExecCompiled, nil
	case "interp":
		return ExecInterp, nil
	}
	return ExecFused, fmt.Errorf("tsp: unknown exec mode %q (want fused|compiled|interp)", s)
}

// opcode is a compiled instruction's operation, an integer so the executor
// dispatch is a jump table rather than string comparisons.
type opcode uint8

const (
	opNop opcode = iota

	// Pushes (one slot each).
	opPushConst // push val
	opPushParam // push Params[a], BadTemplate+0 when out of range
	opLoadMeta  // push meta bits [a, a+b)
	opLoadHdr   // push header hdr bits [a, a+b); InvalidHeaderAccess+0 when invalid

	// Binary arithmetic: pop b, pop a, push a OP b.
	opAdd
	opSub
	opMul
	opDiv // b==0 -> 0 (hardware-style saturation, no fault)
	opMod
	opAndB
	opOrB
	opXor
	opShl // shift >= 64 -> 0
	opShr

	opHash    // pop a args, push finalized FNV-1a
	opRegRead // pop index, push Regs[reg][index]; RegisterFault on bad index

	// Comparisons: pop b, pop a, push bool.
	opCmpEq
	opCmpNe
	opCmpLt
	opCmpGt
	opCmpLe
	opCmpGe

	opValid   // push HV.Valid(hdr)
	opBoolNot // logical negation of top of stack

	// Control flow: jump targets are absolute pcs in field a.
	opJmp
	opJz  // pop; jump when zero
	opJnz // pop; jump when non-zero

	opPop       // pop a slots
	opFaultZero // BadTemplate fault, push 0 (nil/unknown expr or cond)
	opFault     // BadTemplate fault only (unknown statement)

	// Stores: pop value, write to the pre-resolved destination.
	opStoreMeta
	opStoreMetaWide // >64-bit destination: zero high part, store low 64
	opStoreHdr
	opStoreHdrWide

	// Statements.
	opDrop
	opToCPU
	opSRHAdvance
	opSRHPop
	opRegWrite // pop value, pop index, write Regs[reg]
	opApply    // apply table prog.tables[a] (a == -1: unknown table)

	// opAssignTree escapes to the interpreter's execAssign for the rare
	// wide (>64-bit) field-to-field copy, which is byte-granular and
	// already allocation-free; parity is by construction.
	opAssignTree

	// opIntStamp appends one INT hop record (a = the stage's wire ID).
	// Emitted only into stageProg.post, and only when the stage was built
	// with BuildOpts.Int — never into match or arm programs.
	opIntStamp
)

// instr is one compiled instruction. Operands are pre-resolved: a/b carry
// clamped bit offsets and widths (or jump targets/counts), hdr the header
// instance, val an immediate, reg a register name, tree the original IR
// node for opAssignTree.
type instr struct {
	op   opcode
	a, b int32
	hdr  pkt.HeaderID
	val  uint64
	reg  string
	tree *template.Instr
}

// compiledArm is one executor arm's lowered body, parallel to
// template.Stage.Arms so arm selection can share indices with the
// interpreter path.
type compiledArm struct {
	action string
	code   []instr
}

// stageProg is a stage template lowered to flat programs: one for the
// matcher and one per arm, plus the pre-resolved table list opApply
// indexes into.
type stageProg struct {
	match    []instr
	arms     []compiledArm
	tables   []*template.Table
	maxStack int
	// post is the stage epilogue, run after the selected arm (even when
	// no arm matched) unless the packet was dropped. Nil in the default
	// build; NewStageRuntimeOpts emits the INT stamping op here, so the
	// disabled cost is one nil check per stage per packet.
	post []instr
	// bound holds the bind-time handles parallel to tables, filled in place
	// by StageRuntime.Bind (fused closures capture their slot's address).
	bound []boundTable
	// keyPlans holds pre-resolved key-construction plans parallel to
	// tables; nil slots (selectors, inconsistent layouts) fall back to
	// the generic BuildKey.
	keyPlans []*keyPlan
	// Arm dispatch, precomputed from the template's arm list: armTags[i]
	// selects arms[armAt[i]] on a hit with that tag (last declaration
	// wins, like the interpreter's scan); defaultArm is the last default
	// arm's index, or -1.
	armTags    []uint64
	armAt      []int
	defaultArm int
}

// boundTable is what Bind resolved one table to. Every field is nil until
// Bind, and stays nil where the backend hands out no such handle; the
// applies then take the backend's name-keyed lookups.
type boundTable struct {
	rt ResolvedTable    // plain table: direct byte-keyed handle
	rs ResolvedSelector // selector: direct group/member handle
	// The fused tier's word path, for keys and groups of at most 64 bits:
	// the engine's own probe (nil = miss), the table its batched hit/miss
	// counts go to, and the selector's member pick by group word.
	probe  func(word uint64) *match.Result
	stats  WordTable
	member func(group, hash uint64) *match.Result
}

// Key-plan step kinds.
const (
	keyMeta uint8 = iota
	keyHdr
	keyValue
)

// keyStep is one pre-resolved field of a table key: where the bits come
// from and where in the key they land, decided at compile time so the
// per-packet build is copies only.
type keyStep struct {
	kind    uint8
	op      *template.Operand // keyValue only, read via ReadOperand
	hdr     pkt.HeaderID      // keyHdr only
	bitOff  int               // source bit offset (meta/header)
	width   int
	dstOff  int  // bit offset in the key
	aligned bool // src, dst and width all byte-aligned: plain copy
}

// keyPlan is a table's compiled key layout. For selector tables (sel
// true) the steps are instead the fields hashed for member choice —
// Keys[0], the group, keeps the generic byte path — and every hashed
// field fits a register (width <= 64).
type keyPlan struct {
	nBytes int
	steps  []keyStep
	sel    bool
}

// compileKeyPlan lowers a table's key description; nil when the declared
// KeyWidth can't hold the fields (the generic builder's error path
// handles that) or a selector hashes a field wider than a register.
func compileKeyPlan(t *template.Table) *keyPlan {
	if t.IsSelector {
		p := &keyPlan{sel: true}
		for i := 1; i < len(t.Keys); i++ {
			o := &t.Keys[i].Operand
			if o.Width <= 0 || o.Width > 64 || o.BitOff < 0 {
				return nil
			}
			s := keyStep{op: o, bitOff: o.BitOff, width: o.Width}
			switch o.Kind {
			case template.OpdMeta:
				s.kind = keyMeta
			case template.OpdHeader:
				s.kind = keyHdr
				s.hdr = o.Header
			default:
				s.kind = keyValue
			}
			p.steps = append(p.steps, s)
		}
		return p
	}
	p := &keyPlan{nBytes: (t.KeyWidth + 7) / 8}
	bit := 0
	for i := range t.Keys {
		o := &t.Keys[i].Operand
		if o.Width <= 0 || o.BitOff < 0 || bit+o.Width > p.nBytes*8 {
			return nil
		}
		s := keyStep{op: o, bitOff: o.BitOff, width: o.Width, dstOff: bit,
			aligned: o.BitOff%8 == 0 && o.Width%8 == 0 && bit%8 == 0}
		switch o.Kind {
		case template.OpdMeta:
			s.kind = keyMeta
		case template.OpdHeader:
			s.kind = keyHdr
			s.hdr = o.Header
		default:
			s.kind = keyValue
		}
		p.steps = append(p.steps, s)
		bit += o.Width
	}
	return p
}

// compiler tracks emitted code and the worst-case operand stack depth so
// the executor can pre-size Env.stack and skip bounds checks.
type compiler struct {
	sr       *StageRuntime
	code     []instr
	tables   []*template.Table
	tblIdx   map[string]int32
	depth    int
	maxDepth int
}

// compileStage lowers every program of a bound stage.
func compileStage(sr *StageRuntime) *stageProg {
	mc := &compiler{sr: sr, tblIdx: make(map[string]int32)}
	mc.matchStmts(sr.tmpl.Match)
	prog := &stageProg{match: mc.code, tables: mc.tables, bound: make([]boundTable, len(mc.tables))}
	prog.keyPlans = make([]*keyPlan, len(mc.tables))
	for i, t := range mc.tables {
		prog.keyPlans[i] = compileKeyPlan(t)
	}
	maxStack := mc.maxDepth
	bodies := make(map[string][]instr)
	depths := make(map[string]int)
	for i := range sr.tmpl.Arms {
		name := sr.tmpl.Arms[i].Action
		if _, done := bodies[name]; !done {
			ac := &compiler{sr: sr}
			if act := sr.actions[name]; act != nil {
				ac.instrs(act.Body)
			}
			bodies[name] = ac.code
			depths[name] = ac.maxDepth
		}
		if depths[name] > maxStack {
			maxStack = depths[name]
		}
		prog.arms = append(prog.arms, compiledArm{action: name, code: bodies[name]})
	}
	// Headroom so conservative depth accounting can never underrun.
	prog.maxStack = maxStack + 4
	prog.defaultArm = -1
	for i := range sr.tmpl.Arms {
		a := &sr.tmpl.Arms[i]
		if a.Default {
			prog.defaultArm = i
			continue
		}
		prog.armTags = append(prog.armTags, a.Tag)
		prog.armAt = append(prog.armAt, i)
	}
	return prog
}

func (c *compiler) emit(in instr) int32 {
	c.code = append(c.code, in)
	return int32(len(c.code) - 1)
}

func (c *compiler) push(n int) {
	c.depth += n
	if c.depth > c.maxDepth {
		c.maxDepth = c.depth
	}
}

func (c *compiler) pop(n int) { c.depth -= n }

func (c *compiler) here() int32 { return int32(len(c.code)) }

// patchJump points the jump at pc to the current end of code.
func (c *compiler) patchJump(pc int32) { c.code[pc].a = c.here() }

// clamp64 mirrors ReadOperand's wide-field truncation: reads wider than 64
// bits take the low 64 bits.
func clamp64(off, w int) (int32, int32) {
	if w > 64 {
		off += w - 64
		w = 64
	}
	return int32(off), int32(w)
}

// operand compiles a read of o, pushing one value. Nil and unknown kinds
// fault at runtime like the interpreter (templates are data, not trusted
// code, so malformed nodes must stay observable per packet).
func (c *compiler) operand(o *template.Operand) {
	if o == nil {
		c.emit(instr{op: opFaultZero})
		c.push(1)
		return
	}
	switch o.Kind {
	case template.OpdConst:
		c.emit(instr{op: opPushConst, val: o.Const})
	case template.OpdParam:
		c.emit(instr{op: opPushParam, a: int32(o.ParamIdx)})
	case template.OpdMeta:
		off, w := clamp64(o.BitOff, o.Width)
		c.emit(instr{op: opLoadMeta, a: off, b: w})
	case template.OpdHeader:
		off, w := clamp64(o.BitOff, o.Width)
		c.emit(instr{op: opLoadHdr, hdr: o.Header, a: off, b: w})
	default:
		c.emit(instr{op: opFaultZero})
	}
	c.push(1)
}

var binOps = map[template.ArithOp]opcode{
	template.OpAdd: opAdd,
	template.OpSub: opSub,
	template.OpMul: opMul,
	template.OpDiv: opDiv,
	template.OpMod: opMod,
	template.OpAnd: opAndB,
	template.OpOr:  opOrB,
	template.OpXor: opXor,
	template.OpShl: opShl,
	template.OpShr: opShr,
}

var cmpOps = map[template.CmpOp]opcode{
	template.CmpEq: opCmpEq,
	template.CmpNe: opCmpNe,
	template.CmpLt: opCmpLt,
	template.CmpGt: opCmpGt,
	template.CmpLe: opCmpLe,
	template.CmpGe: opCmpGe,
}

// expr compiles a value expression, pushing one value.
func (c *compiler) expr(x *template.Expr) {
	if x == nil {
		c.emit(instr{op: opFaultZero})
		c.push(1)
		return
	}
	switch x.Kind {
	case template.ExprOperand:
		c.operand(x.Operand)
	case template.ExprBin:
		c.expr(x.A)
		c.expr(x.B)
		if op, ok := binOps[x.Op]; ok {
			c.emit(instr{op: op})
			c.pop(1)
		} else {
			// The interpreter evaluates both children (with their side
			// effects on fault counters) before noticing the bad operator.
			c.emit(instr{op: opPop, a: 2})
			c.pop(2)
			c.emit(instr{op: opFaultZero})
			c.push(1)
		}
	case template.ExprHash:
		for _, a := range x.Args {
			c.expr(a)
		}
		c.emit(instr{op: opHash, a: int32(len(x.Args))})
		c.pop(len(x.Args))
		c.push(1)
	case template.ExprRegRead:
		c.expr(x.Index)
		c.emit(instr{op: opRegRead, reg: x.Reg})
	default:
		c.emit(instr{op: opFaultZero})
		c.push(1)
	}
}

// cond compiles a boolean expression, pushing 0/1. And/or short-circuit
// via jumps, matching the interpreter's evaluation order exactly (the
// right side's fault side effects must only happen when it is evaluated).
func (c *compiler) cond(cd *template.Cond) {
	if cd == nil {
		c.emit(instr{op: opFaultZero})
		c.push(1)
		return
	}
	switch cd.Kind {
	case template.CondBool:
		var v uint64
		if cd.Val {
			v = 1
		}
		c.emit(instr{op: opPushConst, val: v})
		c.push(1)
	case template.CondValid:
		c.emit(instr{op: opValid, hdr: cd.Header})
		c.push(1)
	case template.CondNot:
		c.cond(cd.X)
		c.emit(instr{op: opBoolNot})
	case template.CondAnd:
		c.cond(cd.X)
		jFalse1 := c.emit(instr{op: opJz})
		c.pop(1)
		c.cond(cd.Y)
		jFalse2 := c.emit(instr{op: opJz})
		c.pop(1)
		c.emit(instr{op: opPushConst, val: 1})
		c.push(1)
		jEnd := c.emit(instr{op: opJmp})
		c.pop(1) // the false arm pushes its own result
		c.patchJump(jFalse1)
		c.patchJump(jFalse2)
		c.emit(instr{op: opPushConst, val: 0})
		c.push(1)
		c.patchJump(jEnd)
	case template.CondOr:
		c.cond(cd.X)
		jTrue1 := c.emit(instr{op: opJnz})
		c.pop(1)
		c.cond(cd.Y)
		jTrue2 := c.emit(instr{op: opJnz})
		c.pop(1)
		c.emit(instr{op: opPushConst, val: 0})
		c.push(1)
		jEnd := c.emit(instr{op: opJmp})
		c.pop(1)
		c.patchJump(jTrue1)
		c.patchJump(jTrue2)
		c.emit(instr{op: opPushConst, val: 1})
		c.push(1)
		c.patchJump(jEnd)
	case template.CondCmp:
		c.expr(cd.A)
		c.expr(cd.B)
		if op, ok := cmpOps[cd.Cmp]; ok {
			c.emit(instr{op: op})
			c.pop(1)
		} else {
			c.emit(instr{op: opPop, a: 2})
			c.pop(2)
			c.emit(instr{op: opFaultZero})
			c.push(1)
		}
	default:
		c.emit(instr{op: opFaultZero})
		c.push(1)
	}
}

// instrs compiles an action body.
func (c *compiler) instrs(body []template.Instr) {
	for i := range body {
		in := &body[i]
		switch in.Op {
		case template.IAssign:
			c.assign(in)
		case template.IRegWrite:
			c.expr(in.Index)
			c.expr(in.Value)
			c.emit(instr{op: opRegWrite, reg: in.Reg})
			c.pop(2)
		case template.IDrop:
			c.emit(instr{op: opDrop})
		case template.IToCPU:
			c.emit(instr{op: opToCPU})
		case template.ISRHAdvance:
			c.emit(instr{op: opSRHAdvance})
		case template.ISRHPop:
			c.emit(instr{op: opSRHPop})
		case template.IIf:
			c.cond(in.Cond)
			jElse := c.emit(instr{op: opJz})
			c.pop(1)
			c.instrs(in.Then)
			jEnd := c.emit(instr{op: opJmp})
			c.patchJump(jElse)
			c.instrs(in.Else)
			c.patchJump(jEnd)
		default:
			c.emit(instr{op: opFault})
		}
	}
}

// assign compiles one assignment. Wide field-to-field copies keep the
// interpreter's byte-granular path (opAssignTree); everything else
// evaluates the source then stores through a pre-resolved destination.
func (c *compiler) assign(in *template.Instr) {
	if in.Dst.Width > 64 && in.Src != nil && in.Src.Kind == template.ExprOperand &&
		in.Src.Operand != nil && in.Src.Operand.Width == in.Dst.Width {
		c.emit(instr{op: opAssignTree, tree: in})
		return
	}
	c.expr(in.Src)
	switch in.Dst.Kind {
	case template.OpdMeta:
		op := opStoreMeta
		if in.Dst.Width > 64 {
			op = opStoreMetaWide
		}
		c.emit(instr{op: op, a: int32(in.Dst.BitOff), b: int32(in.Dst.Width)})
	case template.OpdHeader:
		op := opStoreHdr
		if in.Dst.Width > 64 {
			op = opStoreHdrWide
		}
		c.emit(instr{op: op, hdr: in.Dst.Header, a: int32(in.Dst.BitOff), b: int32(in.Dst.Width)})
	default:
		c.emit(instr{op: opPop, a: 1})
		c.emit(instr{op: opFault})
	}
	c.pop(1)
}

// matchStmts compiles the matcher program. Table pointers are resolved
// now; opApply carries an index into stageProg.tables (-1 for tables the
// stage does not actually own, which fault at runtime like the
// interpreter).
func (c *compiler) matchStmts(stmts []template.MatchStmt) {
	for i := range stmts {
		st := &stmts[i]
		switch st.Kind {
		case template.MatchIf:
			c.cond(st.Cond)
			jElse := c.emit(instr{op: opJz})
			c.pop(1)
			c.matchStmts(st.Then)
			jEnd := c.emit(instr{op: opJmp})
			c.patchJump(jElse)
			c.matchStmts(st.Else)
			c.patchJump(jEnd)
		case template.MatchApply:
			idx := int32(-1)
			if t := c.sr.tables[st.Table]; t != nil {
				if j, ok := c.tblIdx[st.Table]; ok {
					idx = j
				} else {
					idx = int32(len(c.tables))
					c.tables = append(c.tables, t)
					c.tblIdx[st.Table] = idx
				}
			}
			c.emit(instr{op: opApply, a: idx})
		}
	}
}
