package tsp

// compile.go resolves, once per stage at config-apply time, what the fused
// tier (fuse.go) lowers a stage template against: the tables its matcher
// applies with their key plans and bind-time handles, and the arm
// dispatch arrays. The tree interpreter in interp.go re-derives all of it
// per packet and is kept as the reference oracle (ExecInterp); the two
// tiers are held bit-for-bit equivalent — packet bytes, metadata, verdicts
// and fault counters — by the differential tests in internal/ipbm.

import (
	"fmt"
	"slices"

	"ipsa/internal/match"
	"ipsa/internal/pkt"
	"ipsa/internal/template"
)

// ExecMode selects the per-packet executor implementation.
type ExecMode int

// Executor modes. The zero value is the fused tier, so a zero-valued
// Options/BuildOpts picks the fast one.
const (
	// ExecFused lowers stage templates to fused native Go closures at
	// bind time (see fuse.go). The default.
	ExecFused ExecMode = iota
	// ExecInterp tree-walks the template IR per packet; kept as the
	// reference oracle for differential testing.
	ExecInterp
)

func (m ExecMode) String() string {
	if m == ExecInterp {
		return "interp"
	}
	return "fused"
}

// ParseExecMode maps the CLI flag spelling to an ExecMode.
func ParseExecMode(s string) (ExecMode, error) {
	switch s {
	case "fused", "":
		return ExecFused, nil
	case "interp":
		return ExecInterp, nil
	}
	return ExecFused, fmt.Errorf("tsp: unknown exec mode %q (want fused|interp)", s)
}

// stageProg is what lowering a stage to the fused tier resolves once: the
// tables the matcher applies, in first-apply order, with their key plans
// and bind-time handles, and the arm dispatch arrays.
type stageProg struct {
	tables []*template.Table
	// bound holds the bind-time handles parallel to tables, filled in place
	// by StageRuntime.Bind (fused closures capture their slot's address).
	bound []boundTable
	// keyPlans holds pre-resolved key-construction plans parallel to
	// tables; nil slots (selectors, inconsistent layouts) fall back to
	// the generic BuildKey.
	keyPlans []*keyPlan
	// Arm dispatch, precomputed from the template's arm list: armTags[i]
	// selects arm armAt[i] on a hit with that tag (last declaration wins,
	// like the interpreter's scan); defaultArm is the last default arm's
	// index, or -1.
	armTags    []uint64
	armAt      []int
	defaultArm int
}

// boundTable is what Bind resolved one table to. Every field is nil until
// Bind, and stays nil where the resolver hands out no such handle: with
// no rt the apply builds its key and misses, with no word view it takes
// the byte funnel.
type boundTable struct {
	rt ResolvedTable // direct byte-keyed handle
	// The fused tier's word path, for keys and groups of at most 64 bits:
	// the engine's own probe (nil = miss) or the selector's member pick by
	// group word, and the table their batched hit/miss counts go to.
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

// compileStage resolves a bound stage's stageProg: the tables its matcher
// applies (tables the stage does not own are left out; their applies
// fault at run time), their key plans, and the arm dispatch arrays.
func compileStage(sr *StageRuntime) *stageProg {
	prog := &stageProg{defaultArm: -1}
	var walk func([]template.MatchStmt)
	walk = func(stmts []template.MatchStmt) {
		for i := range stmts {
			st := &stmts[i]
			switch st.Kind {
			case template.MatchIf:
				walk(st.Then)
				walk(st.Else)
			case template.MatchApply:
				if t := sr.tables[st.Table]; t != nil && !slices.Contains(prog.tables, t) {
					prog.tables = append(prog.tables, t)
				}
			}
		}
	}
	walk(sr.tmpl.Match)
	prog.bound = make([]boundTable, len(prog.tables))
	prog.keyPlans = make([]*keyPlan, len(prog.tables))
	for i, t := range prog.tables {
		prog.keyPlans[i] = compileKeyPlan(t)
	}
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
