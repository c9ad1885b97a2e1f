// Package template defines the compiled Templated Stage Processor form:
// the "template parameters, such as header field indicators, match type,
// table pointer, and action primitives" that programming a TSP means
// downloading (paper Sec. 2.2). rp4bc emits a Config as JSON; the switch's
// control channel installs it; the TSPs in internal/tsp interpret it.
package template

import (
	"encoding/json"
	"fmt"

	"ipsa/internal/match"
	"ipsa/internal/pkt"
)

// OperandKind says where an operand's value comes from.
type OperandKind string

// Operand kinds.
const (
	OpdHeader OperandKind = "header" // a field of a parsed header instance
	OpdMeta   OperandKind = "meta"   // a field of the metadata area
	OpdParam  OperandKind = "param"  // an action parameter (by index)
	OpdConst  OperandKind = "const"  // an immediate
)

// Operand selects a field or value.
type Operand struct {
	Kind     OperandKind  `json:"kind"`
	Header   pkt.HeaderID `json:"header,omitempty"`
	BitOff   int          `json:"bit_off,omitempty"`
	Width    int          `json:"width,omitempty"`
	ParamIdx int          `json:"param_idx,omitempty"`
	Const    uint64       `json:"const,omitempty"`
}

// ExprKind discriminates Expr nodes.
type ExprKind string

// Expression kinds.
const (
	ExprOperand ExprKind = "operand"
	ExprBin     ExprKind = "bin"
	ExprHash    ExprKind = "hash"
	ExprRegRead ExprKind = "reg_read"
)

// ArithOp is a binary arithmetic/bitwise operator.
type ArithOp string

// Arithmetic operators.
const (
	OpAdd ArithOp = "add"
	OpSub ArithOp = "sub"
	OpMul ArithOp = "mul"
	OpDiv ArithOp = "div"
	OpMod ArithOp = "mod"
	OpAnd ArithOp = "and"
	OpOr  ArithOp = "or"
	OpXor ArithOp = "xor"
	OpShl ArithOp = "shl"
	OpShr ArithOp = "shr"
)

// Expr is a compiled value expression.
type Expr struct {
	Kind    ExprKind `json:"kind"`
	Operand *Operand `json:"operand,omitempty"`
	Op      ArithOp  `json:"op,omitempty"`
	A       *Expr    `json:"a,omitempty"`
	B       *Expr    `json:"b,omitempty"`
	// Reg and Index serve reg_read; Args serves hash.
	Reg   string  `json:"reg,omitempty"`
	Index *Expr   `json:"index,omitempty"`
	Args  []*Expr `json:"args,omitempty"`
}

// CmpOp is a comparison operator.
type CmpOp string

// Comparison operators.
const (
	CmpEq CmpOp = "eq"
	CmpNe CmpOp = "ne"
	CmpLt CmpOp = "lt"
	CmpGt CmpOp = "gt"
	CmpLe CmpOp = "le"
	CmpGe CmpOp = "ge"
)

// CondKind discriminates Cond nodes.
type CondKind string

// Condition kinds.
const (
	CondValid CondKind = "valid"
	CondCmp   CondKind = "cmp"
	CondAnd   CondKind = "and"
	CondOr    CondKind = "or"
	CondNot   CondKind = "not"
	CondBool  CondKind = "bool"
)

// Cond is a compiled boolean expression.
type Cond struct {
	Kind   CondKind     `json:"kind"`
	Header pkt.HeaderID `json:"header,omitempty"` // valid
	Cmp    CmpOp        `json:"cmp,omitempty"`
	A      *Expr        `json:"a,omitempty"` // cmp operands
	B      *Expr        `json:"b,omitempty"`
	X      *Cond        `json:"x,omitempty"` // and/or/not children
	Y      *Cond        `json:"y,omitempty"`
	Val    bool         `json:"val,omitempty"`
}

// InstrOp is an executor instruction opcode.
type InstrOp string

// Instruction opcodes. srh_advance/srh_pop are the SRv6 endpoint action
// primitives; drop/to_cpu set intrinsic metadata.
const (
	IAssign     InstrOp = "assign"
	IRegWrite   InstrOp = "reg_write"
	IDrop       InstrOp = "drop"
	IToCPU      InstrOp = "to_cpu"
	ISRHAdvance InstrOp = "srh_advance"
	ISRHPop     InstrOp = "srh_pop"
	IIf         InstrOp = "if"
)

// Instr is one compiled action statement.
type Instr struct {
	Op    InstrOp `json:"op"`
	Dst   Operand `json:"dst,omitempty"`
	Src   *Expr   `json:"src,omitempty"`
	Reg   string  `json:"reg,omitempty"`
	Index *Expr   `json:"index,omitempty"`
	Value *Expr   `json:"value,omitempty"`
	Cond  *Cond   `json:"cond,omitempty"`
	Then  []Instr `json:"then,omitempty"`
	Else  []Instr `json:"else,omitempty"`
}

// Action is a compiled action.
type Action struct {
	Name        string  `json:"name"`
	ParamWidths []int   `json:"param_widths,omitempty"`
	Body        []Instr `json:"body,omitempty"`
}

// KeySel selects one key component from a packet.
type KeySel struct {
	Name    string  `json:"name"` // canonical "inst.field", for control APIs
	Operand Operand `json:"operand"`
	Kind    string  `json:"kind"` // exact|lpm|ternary|range|hash
}

// Table is a compiled table definition.
type Table struct {
	Name       string   `json:"name"`
	Kind       string   `json:"kind"` // engine kind: exact|lpm|ternary|range|hash
	Keys       []KeySel `json:"keys"`
	KeyWidth   int      `json:"key_width"`
	Size       int      `json:"size"`
	IsSelector bool     `json:"is_selector,omitempty"`
}

// MatchWidth is the width in bits of the key the table's engine matches:
// a selector's (kind hash) group, its first key, since the others only
// feed the member hash; every key otherwise. KeyWidth, the whole key, is
// what the table occupies in memory.
func (t *Table) MatchWidth() int {
	if t.Kind != match.Hash.String() {
		return t.KeyWidth
	}
	if len(t.Keys) == 0 {
		return 0
	}
	return t.Keys[0].Operand.Width
}

// NewEngine builds the match engine the table's kind names, keyed
// MatchWidth bits wide and holding at most Size entries.
func (t *Table) NewEngine() (match.Engine, error) {
	kind, err := match.ParseKind(t.Kind)
	if err != nil {
		return nil, err
	}
	return match.New(kind, t.MatchWidth(), t.Size)
}

// MatchKind says what a matcher node does.
type MatchKind string

// Matcher node kinds.
const (
	MatchApply MatchKind = "apply"
	MatchIf    MatchKind = "if"
)

// MatchStmt is one compiled matcher statement.
type MatchStmt struct {
	Kind  MatchKind   `json:"kind"`
	Table string      `json:"table,omitempty"`
	Cond  *Cond       `json:"cond,omitempty"`
	Then  []MatchStmt `json:"then,omitempty"`
	Else  []MatchStmt `json:"else,omitempty"`
}

// Arm maps a matched entry's tag to an action.
type Arm struct {
	Default bool   `json:"default,omitempty"`
	Tag     uint64 `json:"tag,omitempty"`
	Action  string `json:"action"`
}

// Stage is the template for one logical stage (one TSP download unit).
type Stage struct {
	Name   string         `json:"name"`
	Func   string         `json:"func,omitempty"` // owning user function
	Pipe   string         `json:"pipe"`           // ingress|egress
	Parse  []pkt.HeaderID `json:"parse,omitempty"`
	Match  []MatchStmt    `json:"match,omitempty"`
	Arms   []Arm          `json:"arms,omitempty"`
	Tables []string       `json:"tables,omitempty"`
}

// VarLen describes a variable-length header:
// total bytes = BaseBytes + value(LenOff/LenWidth) * UnitBytes.
type VarLen struct {
	LenOff    int `json:"len_off"` // bit offset of the length field
	LenWidth  int `json:"len_width"`
	BaseBytes int `json:"base_bytes"`
	UnitBytes int `json:"unit_bytes"`
}

// Transition is one implicit-parser edge.
type Transition struct {
	Tag  uint64       `json:"tag"`
	Next pkt.HeaderID `json:"next"`
}

// Header is a compiled header instance descriptor.
type Header struct {
	Name      string       `json:"name"`
	ID        pkt.HeaderID `json:"id"`
	WidthBits int          `json:"width_bits"` // fixed portion
	VarLen    *VarLen      `json:"var_len,omitempty"`
	// SelOff/SelWidth locate the implicit parser's selector field(s),
	// concatenated; zero SelWidth means terminal header.
	SelOff      int          `json:"sel_off,omitempty"`
	SelWidth    int          `json:"sel_width,omitempty"`
	Transitions []Transition `json:"transitions,omitempty"`
	// Fields maps field names to (bit offset, width) for control APIs.
	Fields map[string][2]int `json:"fields,omitempty"`
}

// Register is a compiled register array.
type Register struct {
	Name  string `json:"name"`
	Width int    `json:"width"`
	Size  int    `json:"size"`
}

// Config is the complete device configuration rp4bc emits: every header,
// register, action, table and stage template, plus the linear TSP mapping.
type Config struct {
	Headers   []Header           `json:"headers"`
	FirstHdr  pkt.HeaderID       `json:"first_hdr"` // parse entry point (ethernet)
	MetaBytes int                `json:"meta_bytes"`
	Registers []Register         `json:"registers,omitempty"`
	Actions   map[string]*Action `json:"actions"`
	Tables    map[string]*Table  `json:"tables"`
	Stages    map[string]*Stage  `json:"stages"`

	// IngressChain and EgressChain are the logical stage orders mapped
	// onto the elastic pipeline (output of the layout optimizer).
	IngressChain []string `json:"ingress_chain"`
	EgressChain  []string `json:"egress_chain"`

	// TSPAssignment maps stage name -> physical TSP index, the result of
	// stage merging + layout (several stages may share one TSP).
	TSPAssignment map[string]int `json:"tsp_assignment"`

	// Patch, when present, is rp4bc's incremental-update manifest — the
	// paper's "second output ... the new TSP templates and switch
	// configuration": the TSP templates and tables the update rewrites
	// and creates. It describes the compiler workspace's transition,
	// which after a rollback is not the device's, so ipbm never acts on
	// it: it diffs the configuration itself and only refuses a manifest
	// naming a TSP it lacks or a table the design lacks.
	Patch *PatchSpec `json:"patch,omitempty"`
}

// PatchSpec is the incremental-update manifest.
type PatchSpec struct {
	RewrittenTSPs []int    `json:"rewritten_tsps,omitempty"`
	NewTables     []string `json:"new_tables,omitempty"`
	RemovedTables []string `json:"removed_tables,omitempty"`
}

// Marshal renders the config as indented JSON.
func (c *Config) Marshal() ([]byte, error) {
	return json.MarshalIndent(c, "", "  ")
}

// Unmarshal parses a JSON config.
func Unmarshal(data []byte) (*Config, error) {
	var c Config
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("template: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// Validate performs structural checks a device would apply before
// accepting a downloaded configuration.
func (c *Config) Validate() error {
	ids := make(map[pkt.HeaderID]bool)
	for _, h := range c.Headers {
		if ids[h.ID] {
			return fmt.Errorf("template: duplicate header id %d", h.ID)
		}
		ids[h.ID] = true
		if h.WidthBits <= 0 {
			return fmt.Errorf("template: header %q has width %d", h.Name, h.WidthBits)
		}
		for _, tr := range h.Transitions {
			if !knownHeader(c.Headers, tr.Next) {
				return fmt.Errorf("template: header %q transitions to unknown id %d", h.Name, tr.Next)
			}
		}
	}
	if len(c.Headers) > 0 && !knownHeader(c.Headers, c.FirstHdr) {
		return fmt.Errorf("template: first header id %d unknown", c.FirstHdr)
	}
	for name, a := range c.Actions {
		if a == nil {
			return fmt.Errorf("template: action %q is null", name)
		}
	}
	for name, t := range c.Tables {
		if t == nil {
			return fmt.Errorf("template: table %q is null", name)
		}
		if t.Name != name {
			return fmt.Errorf("template: table map key %q != name %q", name, t.Name)
		}
		if len(t.Keys) == 0 {
			return fmt.Errorf("template: table %q has no keys", name)
		}
		if t.Size <= 0 {
			return fmt.Errorf("template: table %q has size %d", name, t.Size)
		}
		kind, err := match.ParseKind(t.Kind)
		if err == nil && t.IsSelector != (kind == match.Hash) {
			err = fmt.Errorf("is_selector %v with kind %s: a table is a selector exactly when its kind is hash", t.IsSelector, kind)
		}
		for _, w := range []int{t.KeyWidth, t.MatchWidth()} {
			if err == nil {
				err = match.CheckWidth(kind, w)
			}
		}
		if err != nil {
			return fmt.Errorf("template: table %q: %w", name, err)
		}
	}
	for name, s := range c.Stages {
		if s == nil {
			return fmt.Errorf("template: stage %q is null", name)
		}
		if s.Name != name {
			return fmt.Errorf("template: stage map key %q != name %q", name, s.Name)
		}
		for _, tn := range s.Tables {
			if _, ok := c.Tables[tn]; !ok {
				return fmt.Errorf("template: stage %q uses unknown table %q", name, tn)
			}
		}
		for _, arm := range s.Arms {
			if _, ok := c.Actions[arm.Action]; !ok {
				return fmt.Errorf("template: stage %q arm references unknown action %q", name, arm.Action)
			}
		}
	}
	for _, chain := range [][]string{c.IngressChain, c.EgressChain} {
		for _, sn := range chain {
			if _, ok := c.Stages[sn]; !ok {
				return fmt.Errorf("template: chain references unknown stage %q", sn)
			}
		}
	}
	return nil
}

func knownHeader(hs []Header, id pkt.HeaderID) bool {
	for _, h := range hs {
		if h.ID == id {
			return true
		}
	}
	return false
}

// HeaderByID returns the header descriptor with the given id.
func (c *Config) HeaderByID(id pkt.HeaderID) *Header {
	for i := range c.Headers {
		if c.Headers[i].ID == id {
			return &c.Headers[i]
		}
	}
	return nil
}

// HeaderByName returns the header descriptor with the given instance name.
func (c *Config) HeaderByName(name string) *Header {
	for i := range c.Headers {
		if c.Headers[i].Name == name {
			return &c.Headers[i]
		}
	}
	return nil
}

// Clone deep-copies the config via JSON round-trip; used when deriving an
// updated design from a base design.
func (c *Config) Clone() (*Config, error) {
	b, err := json.Marshal(c)
	if err != nil {
		return nil, err
	}
	var out Config
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
