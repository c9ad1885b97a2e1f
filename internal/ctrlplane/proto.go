package ctrlplane

import (
	"encoding/json"

	"ipsa/internal/telemetry"
	"ipsa/internal/template"
)

// The CCM protocol streams JSON objects over TCP; each Request gets
// exactly one Response, in order. Framing:
//
//   - Values come back to back; whitespace between them is allowed, not
//     required. Both ends write each value on one line, ending in a
//     newline, as json.Encoder does.
//   - Keys match exactly: "OP" is an unknown key, not "op". Unknown keys
//     are ignored.
//   - A request may take at most 16 MiB (maxRequestBytes) from its first
//     byte to its last; the server closes a connection whose request is
//     larger or does not decode.
//   - Once a request's first byte has arrived, the rest must arrive
//     within 10 s (requestTimeout) or the server closes the connection.
//     An idle connection between requests is never timed out.
//
// codec.go reads and writes the envelopes.

// Op names a control operation.
type Op string

// Control operations. Every argument-free read is the view op: it names
// one of the device's registered views (telemetry.Views).
const (
	OpApplyConfig  Op = "apply_config"
	OpInsertEntry  Op = "insert_entry"
	OpDeleteEntry  Op = "delete_entry"
	OpTableStats   Op = "table_stats"
	OpReadRegister Op = "read_register"
	OpView         Op = "view"
	OpIntEnable    Op = "int_enable"
	OpIntDisable   Op = "int_disable"
	OpPing         Op = "ping"
	// OpEdit carries a whole edit script: ops that insert, delete or
	// rewire individual TSP stages and tables instead of shipping a whole
	// configuration, published as one (hitless, on ipbm) reconfiguration
	// or rejected whole.
	OpEdit Op = "edit"
)

// Request is one control-channel message.
type Request struct {
	Op Op `json:"op"`
	// Config serves apply_config.
	Config *template.Config `json:"config,omitempty"`
	// Entry serves insert_entry.
	Entry *EntryReq `json:"entry,omitempty"`
	// Table/Handle serve delete_entry and table_stats.
	Table  string `json:"table,omitempty"`
	Handle int    `json:"handle,omitempty"`
	// Register/Index serve read_register.
	Register string `json:"register,omitempty"`
	Index    uint64 `json:"index,omitempty"`
	// View names the view a view op reads; Max and WindowNanos are its
	// telemetry.Query (0 selects the view's defaults).
	View        string `json:"view,omitempty"`
	Max         int    `json:"max,omitempty"`
	WindowNanos int64  `json:"window_nanos,omitempty"`
	// Edits serves edit, applied in order.
	Edits []EditOp `json:"edits,omitempty"`
}

// Response answers a Request.
type Response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`

	Handle int         `json:"handle,omitempty"`
	Stats  *TableStats `json:"stats,omitempty"`
	Value  uint64      `json:"value,omitempty"`
	Apply  *ApplyStats `json:"apply,omitempty"`
	// View is a view op's payload, the JSON the view encodes to.
	View json.RawMessage `json:"view,omitempty"`
}

// TableStatus summarizes one installed logical table (the tables view).
type TableStatus struct {
	Name     string `json:"name"`
	Kind     string `json:"kind"`
	KeyWidth int    `json:"key_width"`
	Size     int    `json:"size"`
	Entries  int    `json:"entries"`
	Selector bool   `json:"selector,omitempty"`
}

// TableStats carries a table's hit/miss counters.
type TableStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// PortStats carries one port's packet counters in a device snapshot.
type PortStats struct {
	Port     int    `json:"port"`
	Sent     uint64 `json:"sent"`
	Received uint64 `json:"received"`
	RxDrops  uint64 `json:"rx_drops,omitempty"`
	TxDrops  uint64 `json:"tx_drops,omitempty"`
}

// DeviceStats snapshots the data plane's counters (the stats view).
// Ports is optional so older devices (and their JSON) stay
// wire-compatible.
type DeviceStats struct {
	// Processed counts packets that finished forwarded, to_cpu or
	// no_port; Dropped those a stage dropped. A frame admission flagged
	// as a parse failure counts in neither.
	Processed       uint64      `json:"processed"`
	Dropped         uint64      `json:"dropped"`
	ToCPU           uint64      `json:"to_cpu"`
	ActiveTSPs      int         `json:"active_tsps"`
	StallNanos      int64       `json:"stall_nanos"`
	TemplateLoads   uint64      `json:"template_loads"`
	InvalidAccesses uint64      `json:"invalid_accesses"`
	Ports           []PortStats `json:"ports,omitempty"`
}

// ApplyStats reports what a configuration download changed, the numbers
// behind the loading-time comparison of Table 1.
type ApplyStats struct {
	TSPsWritten     int   `json:"tsps_written"`
	TablesCreated   int   `json:"tables_created"`
	TablesDropped   int   `json:"tables_dropped"`
	SelectorMoved   bool  `json:"selector_moved"`
	EntriesMigrated int   `json:"entries_migrated"`
	LoadNanos       int64 `json:"load_nanos"`
	Full            bool  `json:"full"` // full install vs incremental patch

	// Hitless-apply fields: set when the device published the new program
	// as an epoch in its versioned store instead of draining. Epoch is the
	// published version id; StagesRecompiled/StagesReused split the stage
	// set by whether structural hashing let the compiler reuse the
	// previous epoch's compiled stage.
	Hitless          bool   `json:"hitless,omitempty"`
	Epoch            uint64 `json:"epoch,omitempty"`
	StagesRecompiled int    `json:"stages_recompiled,omitempty"`
	StagesReused     int    `json:"stages_reused,omitempty"`
}

// EditOp is one step of an edit script. Kind selects the mutation:
//
//	set_stage    — create or replace stage Stage with Spec, merging any
//	               Actions it needs; a new stage is wired into the
//	               ingress (Egress=false) or egress chain at Position
//	               (append when Position < 0) and assigned to TSP.
//	delete_stage — remove stage Stage from the config, its chain and
//	               its TSP assignment.
//	set_table    — create or replace table Table with TableSpec.
//	delete_table — drop table Table (stages referencing it must be
//	               rewritten or deleted in the same script, or commit
//	               fails validation).
type EditOp struct {
	Kind      string                      `json:"kind"`
	Stage     string                      `json:"stage,omitempty"`
	Spec      *template.Stage             `json:"spec,omitempty"`
	Actions   map[string]*template.Action `json:"actions,omitempty"`
	TSP       int                         `json:"tsp,omitempty"`
	Egress    bool                        `json:"egress,omitempty"`
	Position  int                         `json:"position,omitempty"`
	Table     string                      `json:"table,omitempty"`
	TableSpec *template.Table             `json:"table_spec,omitempty"`
}

// Device is the behaviour a control server exposes; ipbm implements it.
// Everything it can be asked to read without arguments is a view in
// Views; a device without edit scripts or INT answers those ops with an
// error.
type Device interface {
	ApplyConfig(cfg *template.Config) (*ApplyStats, error)
	InsertEntry(req EntryReq) (handle int, err error)
	DeleteEntry(table string, handle int) error
	TableStats(table string) (*TableStats, error)
	ReadRegister(name string, index uint64) (uint64, error)
	SetInt(enabled bool) error
	// Edit applies an edit script as one reconfiguration, or none of it.
	Edit(ops []EditOp) (*ApplyStats, error)

	Views() *telemetry.Views
}
