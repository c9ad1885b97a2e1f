package backend

import (
	"fmt"
	"sort"

	"ipsa/internal/match"
	"ipsa/internal/rp4/ast"
	"ipsa/internal/rp4/sem"
	"ipsa/internal/rp4/token"
	"ipsa/internal/template"
)

// Lower compiles an analyzed design to the template form. Chains and TSP
// assignment are left empty; Compile fills them from the link graph and the
// layout optimizer.
func Lower(d *sem.Design) (*template.Config, error) {
	cfg := &template.Config{
		MetaBytes: d.MetaBytes(),
		Actions:   make(map[string]*template.Action),
		Tables:    make(map[string]*template.Table),
		Stages:    make(map[string]*template.Stage),
	}
	if err := lowerHeaders(d, cfg); err != nil {
		return nil, err
	}
	for _, r := range d.Prog.Registers {
		cfg.Registers = append(cfg.Registers, template.Register{Name: r.Name, Width: r.Width, Size: r.Size})
	}
	sort.Slice(cfg.Registers, func(i, j int) bool { return cfg.Registers[i].Name < cfg.Registers[j].Name })
	names := make([]string, 0, len(d.Actions))
	for n := range d.Actions {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a, err := lowerAction(d, d.Actions[n])
		if err != nil {
			return nil, err
		}
		cfg.Actions[n] = a
	}
	for _, n := range d.SortedTableNames() {
		t, err := lowerTable(d, d.Tables[n])
		if err != nil {
			return nil, err
		}
		cfg.Tables[n] = t
	}
	for name, si := range d.Stages {
		s, err := lowerStage(d, si)
		if err != nil {
			return nil, err
		}
		cfg.Stages[name] = s
	}
	return cfg, nil
}

func lowerHeaders(d *sem.Design, cfg *template.Config) error {
	for _, inst := range d.Instances {
		h := template.Header{
			Name:      inst.Name,
			ID:        inst.ID,
			WidthBits: inst.Width,
			Fields:    make(map[string][2]int, len(inst.Def.Fields)),
		}
		off := 0
		for _, f := range inst.Def.Fields {
			h.Fields[f.Name] = [2]int{off, f.Width}
			off += f.Width
		}
		if vl := inst.Def.VarLen; vl != nil {
			fld, foff := inst.Def.Field(vl.Field)
			if fld == nil {
				return fmt.Errorf("rp4bc: header %q varlen field %q missing", inst.Name, vl.Field)
			}
			h.VarLen = &template.VarLen{
				LenOff: foff, LenWidth: fld.Width,
				BaseBytes: vl.BaseBytes, UnitBytes: vl.UnitBytes,
			}
		}
		if p := inst.Def.Parser; p != nil {
			selOff, selWidth, err := selectorRange(inst.Def, p.SelectorFields)
			if err != nil {
				return err
			}
			h.SelOff, h.SelWidth = selOff, selWidth
			for _, tr := range p.Transitions {
				next, ok := d.InstanceByName[tr.Next]
				if !ok {
					return fmt.Errorf("rp4bc: header %q transition to unknown instance %q", inst.Name, tr.Next)
				}
				h.Transitions = append(h.Transitions, template.Transition{Tag: tr.Tag, Next: next.ID})
			}
		}
		cfg.Headers = append(cfg.Headers, h)
	}
	// The parse entry point is the first declared instance (ethernet in
	// every shipped design).
	if len(d.Instances) > 0 {
		cfg.FirstHdr = d.Instances[0].ID
	}
	return nil
}

// selectorRange validates that selector fields are contiguous and returns
// their concatenated bit range.
func selectorRange(h *ast.HeaderDef, fields []string) (off, width int, err error) {
	if len(fields) == 0 {
		return 0, 0, fmt.Errorf("rp4bc: header %q implicit parser has no selector fields", h.Name)
	}
	first, firstOff := h.Field(fields[0])
	if first == nil {
		return 0, 0, fmt.Errorf("rp4bc: header %q has no field %q", h.Name, fields[0])
	}
	off = firstOff
	width = first.Width
	for _, fn := range fields[1:] {
		f, fo := h.Field(fn)
		if f == nil {
			return 0, 0, fmt.Errorf("rp4bc: header %q has no field %q", h.Name, fn)
		}
		if fo != off+width {
			return 0, 0, fmt.Errorf("rp4bc: header %q selector fields %v are not contiguous", h.Name, fields)
		}
		width += f.Width
	}
	if width > 64 {
		return 0, 0, fmt.Errorf("rp4bc: header %q selector wider than 64 bits", h.Name)
	}
	return off, width, nil
}

func lowerAction(d *sem.Design, ai *sem.ActionInfo) (*template.Action, error) {
	a := &template.Action{Name: ai.Def.Name}
	params := make(map[string]int)
	for i, p := range ai.Def.Params {
		a.ParamWidths = append(a.ParamWidths, p.Width)
		params[p.Name] = i
	}
	body, err := lowerStmts(d, ai.Def.Body, params)
	if err != nil {
		return nil, fmt.Errorf("rp4bc: action %q: %w", ai.Def.Name, err)
	}
	a.Body = body
	return a, nil
}

func lowerStmts(d *sem.Design, body []ast.Stmt, params map[string]int) ([]template.Instr, error) {
	var out []template.Instr
	for _, s := range body {
		switch st := s.(type) {
		case *ast.EmptyStmt:
		case *ast.AssignStmt:
			dst, err := lowerFieldOperand(d, st.LHS, params)
			if err != nil {
				return nil, err
			}
			src, err := lowerExpr(d, st.RHS, params)
			if err != nil {
				return nil, err
			}
			out = append(out, template.Instr{Op: template.IAssign, Dst: dst, Src: src})
		case *ast.CallStmt:
			in, err := lowerCallStmt(d, st, params)
			if err != nil {
				return nil, err
			}
			out = append(out, in)
		case *ast.IfStmt:
			cond, err := lowerCond(d, st.Cond, params)
			if err != nil {
				return nil, err
			}
			then, err := lowerStmts(d, st.Then, params)
			if err != nil {
				return nil, err
			}
			els, err := lowerStmts(d, st.Else, params)
			if err != nil {
				return nil, err
			}
			out = append(out, template.Instr{Op: template.IIf, Cond: cond, Then: then, Else: els})
		default:
			return nil, fmt.Errorf("unsupported statement %T", s)
		}
	}
	return out, nil
}

func lowerCallStmt(d *sem.Design, st *ast.CallStmt, params map[string]int) (template.Instr, error) {
	if st.Recv == "" {
		switch st.Method {
		case "drop":
			return template.Instr{Op: template.IDrop}, nil
		case "to_cpu":
			return template.Instr{Op: template.IToCPU}, nil
		case "srh_advance":
			return template.Instr{Op: template.ISRHAdvance}, nil
		case "srh_pop":
			return template.Instr{Op: template.ISRHPop}, nil
		}
		return template.Instr{}, fmt.Errorf("unknown builtin %q", st.Method)
	}
	if st.Method == "write" {
		if _, ok := d.Registers[st.Recv]; !ok {
			return template.Instr{}, fmt.Errorf("unknown register %q", st.Recv)
		}
		idx, err := lowerExpr(d, st.Args[0], params)
		if err != nil {
			return template.Instr{}, err
		}
		val, err := lowerExpr(d, st.Args[1], params)
		if err != nil {
			return template.Instr{}, err
		}
		return template.Instr{Op: template.IRegWrite, Reg: st.Recv, Index: idx, Value: val}, nil
	}
	return template.Instr{}, fmt.Errorf("unsupported call %s.%s", st.Recv, st.Method)
}

func lowerFieldOperand(d *sem.Design, ref *ast.FieldRef, params map[string]int) (template.Operand, error) {
	if len(ref.Parts) == 1 {
		if idx, ok := params[ref.Parts[0]]; ok {
			return template.Operand{Kind: template.OpdParam, ParamIdx: idx}, nil
		}
		if cd, ok := d.Consts[ref.Parts[0]]; ok {
			return template.Operand{Kind: template.OpdConst, Const: cd.Value}, nil
		}
		return template.Operand{}, fmt.Errorf("%s: unknown name %q", ref.Pos, ref.Parts[0])
	}
	fi, err := d.ResolveField(ref)
	if err != nil {
		return template.Operand{}, err
	}
	switch fi.Space {
	case sem.SpaceHeader:
		return template.Operand{Kind: template.OpdHeader, Header: fi.Header, BitOff: fi.BitOff, Width: fi.Width}, nil
	default:
		return template.Operand{Kind: template.OpdMeta, BitOff: fi.BitOff, Width: fi.Width}, nil
	}
}

var arithOps = map[token.Type]template.ArithOp{
	token.Plus: template.OpAdd, token.Minus: template.OpSub,
	token.Star: template.OpMul, token.Slash: template.OpDiv,
	token.Percent: template.OpMod,
	token.Amp:     template.OpAnd, token.Pipe: template.OpOr,
	token.Caret: template.OpXor,
	token.Shl:   template.OpShl, token.Shr: template.OpShr,
}

var cmpOps = map[token.Type]template.CmpOp{
	token.Eq: template.CmpEq, token.Neq: template.CmpNe,
	token.LAngle: template.CmpLt, token.RAngle: template.CmpGt,
	token.Leq: template.CmpLe, token.Geq: template.CmpGe,
}

func lowerExpr(d *sem.Design, e ast.Expr, params map[string]int) (*template.Expr, error) {
	switch x := e.(type) {
	case *ast.NumberLit:
		return &template.Expr{Kind: template.ExprOperand, Operand: &template.Operand{Kind: template.OpdConst, Const: x.Val}}, nil
	case *ast.FieldRef:
		opd, err := lowerFieldOperand(d, x, params)
		if err != nil {
			return nil, err
		}
		return &template.Expr{Kind: template.ExprOperand, Operand: &opd}, nil
	case *ast.UnaryExpr:
		if x.Op != token.Minus {
			return nil, fmt.Errorf("%s: operator %s is not numeric", x.Pos, x.Op)
		}
		sub, err := lowerExpr(d, x.X, params)
		if err != nil {
			return nil, err
		}
		zero := &template.Expr{Kind: template.ExprOperand, Operand: &template.Operand{Kind: template.OpdConst}}
		return &template.Expr{Kind: template.ExprBin, Op: template.OpSub, A: zero, B: sub}, nil
	case *ast.BinaryExpr:
		op, ok := arithOps[x.Op]
		if !ok {
			return nil, fmt.Errorf("%s: operator %s is not numeric", x.Pos, x.Op)
		}
		a, err := lowerExpr(d, x.X, params)
		if err != nil {
			return nil, err
		}
		b, err := lowerExpr(d, x.Y, params)
		if err != nil {
			return nil, err
		}
		return &template.Expr{Kind: template.ExprBin, Op: op, A: a, B: b}, nil
	case *ast.CallExpr:
		switch {
		case x.Method == "read" && x.Recv != "":
			idx, err := lowerExpr(d, x.Args[0], params)
			if err != nil {
				return nil, err
			}
			return &template.Expr{Kind: template.ExprRegRead, Reg: x.Recv, Index: idx}, nil
		case x.Method == "hash" && x.Recv == "":
			var args []*template.Expr
			for _, a := range x.Args {
				la, err := lowerExpr(d, a, params)
				if err != nil {
					return nil, err
				}
				args = append(args, la)
			}
			return &template.Expr{Kind: template.ExprHash, Args: args}, nil
		}
		return nil, fmt.Errorf("%s: call %s is not a value", x.Pos, ast.ExprString(x))
	}
	return nil, fmt.Errorf("unsupported expression %T", e)
}

func lowerCond(d *sem.Design, e ast.Expr, params map[string]int) (*template.Cond, error) {
	switch x := e.(type) {
	case *ast.BoolLit:
		return &template.Cond{Kind: template.CondBool, Val: x.Val}, nil
	case *ast.CallExpr:
		if x.Method == "isValid" && x.Recv != "" {
			inst, ok := d.InstanceByName[x.Recv]
			if !ok {
				return nil, fmt.Errorf("%s: isValid on unknown header %q", x.Pos, x.Recv)
			}
			return &template.Cond{Kind: template.CondValid, Header: inst.ID}, nil
		}
		return nil, fmt.Errorf("%s: call %s is not boolean", x.Pos, ast.ExprString(x))
	case *ast.UnaryExpr:
		if x.Op != token.Not {
			return nil, fmt.Errorf("%s: operator %s is not boolean", x.Pos, x.Op)
		}
		sub, err := lowerCond(d, x.X, params)
		if err != nil {
			return nil, err
		}
		return &template.Cond{Kind: template.CondNot, X: sub}, nil
	case *ast.BinaryExpr:
		switch x.Op {
		case token.AndAnd, token.OrOr:
			a, err := lowerCond(d, x.X, params)
			if err != nil {
				return nil, err
			}
			b, err := lowerCond(d, x.Y, params)
			if err != nil {
				return nil, err
			}
			kind := template.CondAnd
			if x.Op == token.OrOr {
				kind = template.CondOr
			}
			return &template.Cond{Kind: kind, X: a, Y: b}, nil
		default:
			cmp, ok := cmpOps[x.Op]
			if !ok {
				return nil, fmt.Errorf("%s: operator %s is not boolean", x.Pos, x.Op)
			}
			a, err := lowerExpr(d, x.X, params)
			if err != nil {
				return nil, err
			}
			b, err := lowerExpr(d, x.Y, params)
			if err != nil {
				return nil, err
			}
			return &template.Cond{Kind: template.CondCmp, Cmp: cmp, A: a, B: b}, nil
		}
	}
	return nil, fmt.Errorf("expression %s is not boolean", ast.ExprString(e))
}

func lowerTable(d *sem.Design, ti *sem.TableInfo) (*template.Table, error) {
	t := &template.Table{
		Name:       ti.Def.Name,
		KeyWidth:   ti.KeyWidth,
		Size:       ti.Def.Size,
		IsSelector: ti.IsSelector,
	}
	// The engine kind: a selector (all keys hash) is the hash engine, whose
	// first key is the group and the rest feed the member hash; a table
	// with an lpm, ternary or range key takes that engine; the rest exact.
	kind := match.Exact
	for _, k := range ti.Keys {
		if k.Kind != match.Exact {
			kind = k.Kind
		}
	}
	t.Kind = kind.String()
	for _, k := range ti.Keys {
		opd := template.Operand{
			Kind: template.OpdMeta, BitOff: k.Field.BitOff, Width: k.Field.Width,
		}
		if k.Field.Space == sem.SpaceHeader {
			opd = template.Operand{
				Kind: template.OpdHeader, Header: k.Field.Header,
				BitOff: k.Field.BitOff, Width: k.Field.Width,
			}
		}
		t.Keys = append(t.Keys, template.KeySel{Name: k.Name, Operand: opd, Kind: k.Kind.String()})
	}
	return t, nil
}

func lowerStage(d *sem.Design, si *sem.StageInfo) (*template.Stage, error) {
	s := &template.Stage{
		Name: si.Def.Name,
		Func: d.FuncOfStage(si.Def.Name),
		Pipe: si.Pipe,
	}
	for _, hn := range si.Def.Parser {
		inst, ok := d.InstanceByName[hn]
		if !ok {
			return nil, fmt.Errorf("rp4bc: stage %q parses unknown instance %q", si.Def.Name, hn)
		}
		s.Parse = append(s.Parse, inst.ID)
	}
	mt, err := lowerMatcher(d, si.Def.Matcher)
	if err != nil {
		return nil, fmt.Errorf("rp4bc: stage %q: %w", si.Def.Name, err)
	}
	s.Match = mt
	hasDefault := false
	for _, arm := range si.Def.Exec {
		s.Arms = append(s.Arms, template.Arm{Default: arm.Default, Tag: arm.Tag, Action: arm.Action})
		if arm.Default {
			hasDefault = true
		}
	}
	if !hasDefault {
		s.Arms = append(s.Arms, template.Arm{Default: true, Action: sem.NoActionName})
	}
	s.Tables = append(s.Tables, si.Tables...)
	return s, nil
}

func lowerMatcher(d *sem.Design, body []ast.Stmt) ([]template.MatchStmt, error) {
	var out []template.MatchStmt
	for _, s := range body {
		switch st := s.(type) {
		case *ast.EmptyStmt:
		case *ast.CallStmt:
			if st.Method != "apply" {
				return nil, fmt.Errorf("matcher statement %s.%s is not an apply", st.Recv, st.Method)
			}
			out = append(out, template.MatchStmt{Kind: template.MatchApply, Table: st.Recv})
		case *ast.IfStmt:
			cond, err := lowerCond(d, st.Cond, nil)
			if err != nil {
				return nil, err
			}
			then, err := lowerMatcher(d, st.Then)
			if err != nil {
				return nil, err
			}
			els, err := lowerMatcher(d, st.Else)
			if err != nil {
				return nil, err
			}
			out = append(out, template.MatchStmt{Kind: template.MatchIf, Cond: cond, Then: then, Else: els})
		default:
			return nil, fmt.Errorf("unsupported matcher statement %T", s)
		}
	}
	return out, nil
}
