// Package ast defines the abstract syntax tree of rP4 programs (paper
// Fig. 2). The same statement/expression nodes are reused by the P4-subset
// front end, whose control blocks are decomposed into rP4 stages by rp4fc.
package ast

import (
	"fmt"
	"reflect"
	"strings"

	"ipsa/internal/rp4/token"
)

// Program is a complete rP4 compilation unit.
type Program struct {
	Consts    []*ConstDef
	Headers   []*HeaderDef
	Structs   []*StructDef
	Instances []*HeaderInstance // header_vector; empty means one instance per header type
	Registers []*RegisterDef
	Actions   []*ActionDef
	Tables    []*TableDef
	Ingress   *Pipe
	Egress    *Pipe
	// Floating holds top-level stages from incremental-update snippets
	// that have not yet been linked into a pipe.
	Floating []*StageDef
	Funcs    *UserFuncs
}

// Clone returns a deep copy of p that shares no node with it, so a caller
// can edit the copy and then keep or drop it whole.
func (p *Program) Clone() *Program {
	return deepCopy(reflect.ValueOf(p)).Interface().(*Program)
}

// deepCopy copies v through every pointer, interface and slice. The AST is
// a tree of exported fields with no maps, so that reaches every node.
func deepCopy(v reflect.Value) reflect.Value {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface, reflect.Slice:
		if v.IsNil() {
			return v
		}
	}
	switch v.Kind() {
	case reflect.Pointer:
		c := reflect.New(v.Type().Elem())
		c.Elem().Set(deepCopy(v.Elem()))
		return c
	case reflect.Interface:
		c := reflect.New(v.Type()).Elem()
		c.Set(deepCopy(v.Elem()))
		return c
	case reflect.Slice:
		c := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
		for i := 0; i < v.Len(); i++ {
			c.Index(i).Set(deepCopy(v.Index(i)))
		}
		return c
	case reflect.Struct:
		c := reflect.New(v.Type()).Elem()
		for i := 0; i < v.NumField(); i++ {
			c.Field(i).Set(deepCopy(v.Field(i)))
		}
		return c
	}
	return v
}

// Header returns the header definition with the given name.
func (p *Program) Header(name string) *HeaderDef {
	for _, h := range p.Headers {
		if h.Name == name {
			return h
		}
	}
	return nil
}

// Table returns the table definition with the given name.
func (p *Program) Table(name string) *TableDef {
	for _, t := range p.Tables {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// Action returns the action definition with the given name.
func (p *Program) Action(name string) *ActionDef {
	for _, a := range p.Actions {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Stage returns the stage with the given name from either pipe, along with
// the pipe it belongs to ("ingress" or "egress").
func (p *Program) Stage(name string) (*StageDef, string) {
	if p.Ingress != nil {
		for _, s := range p.Ingress.Stages {
			if s.Name == name {
				return s, "ingress"
			}
		}
	}
	if p.Egress != nil {
		for _, s := range p.Egress.Stages {
			if s.Name == name {
				return s, "egress"
			}
		}
	}
	for _, s := range p.Floating {
		if s.Name == name {
			return s, ""
		}
	}
	return nil, ""
}

// ConstDef declares a named constant: `const bit<N> NAME = value;`.
type ConstDef struct {
	Name  string
	Width int
	Value uint64
	Pos   token.Pos
}

// HeaderDef declares a header type with its fields and implicit parser
// (the per-header transition table that powers distributed parsing).
type HeaderDef struct {
	Name   string
	Fields []*FieldDef
	Parser *ImplicitParser // nil if the header is terminal
	VarLen *VarLenSpec     // nil for fixed-length headers
	Pos    token.Pos
}

// VarLenSpec declares a variable-length header:
// total bytes = BaseBytes + value(Field) * UnitBytes
// (`varlen (hdr_ext_len) 8 8;` for the SRH).
type VarLenSpec struct {
	Field     string
	BaseBytes int
	UnitBytes int
	Pos       token.Pos
}

// Width returns the header width in bits.
func (h *HeaderDef) Width() int {
	w := 0
	for _, f := range h.Fields {
		w += f.Width
	}
	return w
}

// Field returns the named field and its bit offset within the header.
func (h *HeaderDef) Field(name string) (*FieldDef, int) {
	off := 0
	for _, f := range h.Fields {
		if f.Name == name {
			return f, off
		}
		off += f.Width
	}
	return nil, 0
}

// FieldDef is one bit<N> field.
type FieldDef struct {
	Name  string
	Width int
	Pos   token.Pos
}

// ImplicitParser is the `implicit parser (fields) { tag: next; ... }`
// clause: given the value of the selector fields, which header follows.
type ImplicitParser struct {
	// SelectorFields are field names within the enclosing header whose
	// concatenated value selects the transition.
	SelectorFields []string
	Transitions    []*Transition
	Pos            token.Pos
}

// Transition maps one selector value to the next header.
type Transition struct {
	Tag  uint64
	Next string // header instance name
	Pos  token.Pos
}

// StructDef declares a struct; the optional Alias instantiates it (the
// paper's grammar allows `struct S {...} alias;`, used for metadata).
type StructDef struct {
	Name   string
	Fields []*FieldDef
	Alias  string
	Pos    token.Pos
}

// Width returns the struct width in bits.
func (s *StructDef) Width() int {
	w := 0
	for _, f := range s.Fields {
		w += f.Width
	}
	return w
}

// HeaderInstance names one header instance in the header vector.
type HeaderInstance struct {
	Type string
	Name string
	Pos  token.Pos
}

// RegisterDef declares a stateful register array:
// `register<bit<W>>(size) name;`.
type RegisterDef struct {
	Name  string
	Width int
	Size  int
	Pos   token.Pos
}

// ActionDef declares an action with typed parameters.
type ActionDef struct {
	Name   string
	Params []*Param
	Body   []Stmt
	Pos    token.Pos
}

// Param is one action parameter.
type Param struct {
	Name  string
	Width int
	Pos   token.Pos
}

// TableDef declares a match-action table.
type TableDef struct {
	Name          string
	Keys          []*TableKey
	Actions       []string
	Size          int
	DefaultAction string
	Pos           token.Pos
}

// String names the table for diagnostics.
func (t *TableDef) String() string { return "table " + t.Name }

// TableKey is one `expr : match_kind` key component.
type TableKey struct {
	Field *FieldRef
	Kind  string // exact | lpm | ternary | range | hash
	Pos   token.Pos
}

// Pipe is rP4_Ingress or rP4_Egress.
type Pipe struct {
	Name   string
	Stages []*StageDef
	Pos    token.Pos
}

// StageDef is one parse-match-action stage, the unit mapped onto a TSP.
type StageDef struct {
	Name    string
	Parser  []string // header instances this stage needs parsed
	Matcher []Stmt   // apply/if statements
	Exec    []*ExecutorArm
	Pos     token.Pos
}

// ExecutorArm maps a switch tag (the per-table action index of the matched
// entry) to the action to execute; Default handles table miss.
type ExecutorArm struct {
	Default bool
	Tag     uint64
	Action  string
	Pos     token.Pos
}

// UserFuncs groups stages into named functions and declares the pipeline
// entry points.
type UserFuncs struct {
	Funcs        []*FuncDef
	IngressEntry string
	EgressEntry  string
	Pos          token.Pos
}

// FuncDef names a loadable/offloadable function made of stages.
type FuncDef struct {
	Name   string
	Stages []string
	Pos    token.Pos
}

// Stmt is a statement node.
type Stmt interface {
	stmtNode()
	Position() token.Pos
}

// AssignStmt is `lhs = expr;`.
type AssignStmt struct {
	LHS *FieldRef
	RHS Expr
	Pos token.Pos
}

// CallStmt is a procedure call: `table.apply();`, `drop();`,
// `reg.write(i, v);`, `push_header(srh);` ...
type CallStmt struct {
	Recv   string // receiver instance name, "" for bare calls
	Method string
	Args   []Expr
	Pos    token.Pos
}

// IfStmt is `if (cond) {...} else {...}`; Else may hold another IfStmt for
// else-if chains.
type IfStmt struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
	Pos  token.Pos
}

// EmptyStmt is a lone `;` (the grammar's "else ;" arm).
type EmptyStmt struct {
	Pos token.Pos
}

func (*AssignStmt) stmtNode() {}
func (*CallStmt) stmtNode()   {}
func (*IfStmt) stmtNode()     {}
func (*EmptyStmt) stmtNode()  {}

// Position returns the statement's source position.
func (s *AssignStmt) Position() token.Pos { return s.Pos }

// Position returns the statement's source position.
func (s *CallStmt) Position() token.Pos { return s.Pos }

// Position returns the statement's source position.
func (s *IfStmt) Position() token.Pos { return s.Pos }

// Position returns the statement's source position.
func (s *EmptyStmt) Position() token.Pos { return s.Pos }

// Expr is an expression node.
type Expr interface {
	exprNode()
	Position() token.Pos
}

// NumberLit is an integer literal.
type NumberLit struct {
	Val uint64
	Pos token.Pos
}

// BoolLit is true/false.
type BoolLit struct {
	Val bool
	Pos token.Pos
}

// FieldRef references a field (`ethernet.dst_addr`, `meta.bd`), a bare
// action parameter or a bare local name.
type FieldRef struct {
	Parts []string
	Pos   token.Pos
}

// String joins the reference parts with dots.
func (f *FieldRef) String() string { return strings.Join(f.Parts, ".") }

// CallExpr is a value-returning call: `ipv4.isValid()`, `reg.read(i)`,
// `hash(a, b)`.
type CallExpr struct {
	Recv   string
	Method string
	Args   []Expr
	Pos    token.Pos
}

// UnaryExpr is `!x` or `-x`.
type UnaryExpr struct {
	Op  token.Type
	X   Expr
	Pos token.Pos
}

// BinaryExpr is a binary operation.
type BinaryExpr struct {
	Op   token.Type
	X, Y Expr
	Pos  token.Pos
}

func (*NumberLit) exprNode()  {}
func (*BoolLit) exprNode()    {}
func (*FieldRef) exprNode()   {}
func (*CallExpr) exprNode()   {}
func (*UnaryExpr) exprNode()  {}
func (*BinaryExpr) exprNode() {}

// Position returns the expression's source position.
func (e *NumberLit) Position() token.Pos { return e.Pos }

// Position returns the expression's source position.
func (e *BoolLit) Position() token.Pos { return e.Pos }

// Position returns the expression's source position.
func (e *FieldRef) Position() token.Pos { return e.Pos }

// Position returns the expression's source position.
func (e *CallExpr) Position() token.Pos { return e.Pos }

// Position returns the expression's source position.
func (e *UnaryExpr) Position() token.Pos { return e.Pos }

// Position returns the expression's source position.
func (e *BinaryExpr) Position() token.Pos { return e.Pos }

// ExprString renders an expression back to (approximately) source form for
// diagnostics and compiler dumps.
func ExprString(e Expr) string {
	switch x := e.(type) {
	case *NumberLit:
		return fmt.Sprintf("%d", x.Val)
	case *BoolLit:
		return fmt.Sprintf("%t", x.Val)
	case *FieldRef:
		return x.String()
	case *CallExpr:
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = ExprString(a)
		}
		recv := ""
		if x.Recv != "" {
			recv = x.Recv + "."
		}
		return fmt.Sprintf("%s%s(%s)", recv, x.Method, strings.Join(args, ", "))
	case *UnaryExpr:
		return fmt.Sprintf("%s%s", x.Op, ExprString(x.X))
	case *BinaryExpr:
		return fmt.Sprintf("(%s %s %s)", ExprString(x.X), x.Op, ExprString(x.Y))
	default:
		return fmt.Sprintf("<%T>", e)
	}
}
