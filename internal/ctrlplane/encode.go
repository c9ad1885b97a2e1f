// Package ctrlplane implements the control side of IPSA: the table-entry
// encoding shared by controller and device (so inserted entries and
// data-plane lookups agree bit for bit), the JSON control-channel protocol
// the CCM speaks, and the client the controller CLI and examples use.
package ctrlplane

import (
	"fmt"

	"ipsa/internal/match"
	"ipsa/internal/pkt"
	"ipsa/internal/template"
)

// FieldValue carries one key component of a table entry.
type FieldValue struct {
	// Value holds fields up to 64 bits; Bytes overrides it for wider
	// fields (e.g. IPv6 addresses) and must then be exactly
	// ceil(width/8) bytes.
	Value uint64 `json:"value,omitempty"`
	Bytes []byte `json:"bytes,omitempty"`
	// Mask is the per-field ternary mask (same encoding rules as the
	// value; nil means exact/full mask).
	Mask *FieldMask `json:"mask,omitempty"`
}

// FieldMask is a ternary mask for one key field.
type FieldMask struct {
	Value uint64 `json:"value,omitempty"`
	Bytes []byte `json:"bytes,omitempty"`
}

// EntryReq asks the device to install one table entry. On a selector
// (ECMP) table an entry is a member: Keys is one field, the group, and the
// handle the device returns deletes that member alone.
type EntryReq struct {
	Table string       `json:"table"`
	Keys  []FieldValue `json:"keys"`
	// PrefixLen applies to LPM tables (bits of the single key).
	PrefixLen int `json:"prefix_len,omitempty"`
	// High applies to range tables: the inclusive upper bound fields.
	High []FieldValue `json:"high,omitempty"`
	// Priority orders ternary/range entries.
	Priority int `json:"priority,omitempty"`
	// Tag selects the executor arm (the per-stage action switch tag).
	Tag int `json:"tag"`
	// Params are the action data bound to the entry.
	Params []uint64 `json:"params,omitempty"`
}

// fieldBytes renders a FieldValue right-aligned into width bits.
func fieldBytes(fv FieldValue, width int) ([]byte, error) {
	n := (width + 7) / 8
	if fv.Bytes != nil {
		if len(fv.Bytes) != n {
			return nil, fmt.Errorf("ctrlplane: field of %d bytes, want %d for %d-bit field", len(fv.Bytes), n, width)
		}
		return fv.Bytes, nil
	}
	if width > 64 {
		return nil, fmt.Errorf("ctrlplane: %d-bit field needs explicit bytes", width)
	}
	out := make([]byte, n)
	v := fv.Value
	for i := n - 1; i >= 0; i-- {
		out[i] = byte(v)
		v >>= 8
	}
	return out, nil
}

func maskBytes(m *FieldMask, width int) ([]byte, error) {
	if m == nil {
		// Full mask.
		n := (width + 7) / 8
		out := make([]byte, n)
		for i := range out {
			out[i] = 0xff
		}
		// Clear pad bits beyond width.
		if width%8 != 0 {
			out[0] &= 0xff >> uint(8-width%8)
		}
		return out, nil
	}
	return fieldBytes(FieldValue{Value: m.Value, Bytes: m.Bytes}, width)
}

// EncodeKey concatenates key field values into the table's key layout —
// the same packing tsp.BuildKey uses on the data path.
func EncodeKey(t *template.Table, keys []FieldValue) ([]byte, error) {
	if len(keys) != len(t.Keys) {
		return nil, fmt.Errorf("ctrlplane: table %q takes %d key fields, got %d", t.Name, len(t.Keys), len(keys))
	}
	out := make([]byte, (t.KeyWidth+7)/8)
	bit := 0
	for i, ks := range t.Keys {
		raw, err := fieldBytes(keys[i], ks.Operand.Width)
		if err != nil {
			return nil, fmt.Errorf("ctrlplane: table %q key %q: %w", t.Name, ks.Name, err)
		}
		if err := pkt.SetBytes(out, bit, ks.Operand.Width, raw); err != nil {
			return nil, err
		}
		bit += ks.Operand.Width
	}
	return out, nil
}

// EncodeEntry translates an EntryReq into the engine-level entry for the
// table's match kind.
func EncodeEntry(t *template.Table, req EntryReq) (match.Entry, error) {
	e := match.Entry{ActionID: req.Tag, Params: req.Params, Priority: req.Priority}
	kind, err := match.ParseKind(t.Kind)
	if err != nil {
		return e, err
	}
	if kind == match.Hash {
		if len(req.Keys) != 1 {
			return e, fmt.Errorf("ctrlplane: selector table %q takes one key field, the group, got %d", t.Name, len(req.Keys))
		}
		e.Key, err = EncodeGroupKey(t, req.Keys[0])
		return e, err
	}
	if e.Key, err = EncodeKey(t, req.Keys); err != nil {
		return e, err
	}
	switch kind {
	case match.LPM:
		if req.PrefixLen < 0 || req.PrefixLen > t.KeyWidth {
			return e, fmt.Errorf("ctrlplane: prefix length %d out of range [0,%d]", req.PrefixLen, t.KeyWidth)
		}
		e.PrefixLen = req.PrefixLen
	case match.Ternary:
		mask := make([]byte, (t.KeyWidth+7)/8)
		bit := 0
		for i, ks := range t.Keys {
			var m *FieldMask
			if i < len(req.Keys) {
				m = req.Keys[i].Mask
			}
			raw, err := maskBytes(m, ks.Operand.Width)
			if err != nil {
				return e, err
			}
			if err := pkt.SetBytes(mask, bit, ks.Operand.Width, raw); err != nil {
				return e, err
			}
			bit += ks.Operand.Width
		}
		e.Mask = mask
	case match.Range:
		if len(req.High) != len(t.Keys) {
			return e, fmt.Errorf("ctrlplane: range entry needs %d high fields", len(t.Keys))
		}
		high, err := EncodeKey(t, req.High)
		if err != nil {
			return e, err
		}
		e.High = high
	}
	return e, nil
}

// EncodeGroupKey renders a selector table's group key (its first key
// field).
func EncodeGroupKey(t *template.Table, g FieldValue) ([]byte, error) {
	if !t.IsSelector || len(t.Keys) == 0 {
		return nil, fmt.Errorf("ctrlplane: table %q is not a selector", t.Name)
	}
	return fieldBytes(g, t.Keys[0].Operand.Width)
}
