package ipbm

// edit.go is the edit-script layer of partial reconfiguration: instead
// of shipping a whole configuration, the controller sends one edit
// request whose per-stage and per-table mutations are applied, in
// order, to a private clone of the running config and published as one
// reconfiguration — or, if any op or the validation of the result
// fails, rejected whole with the device untouched. The device holds no
// state between requests. A commit is an epoch publish where structural
// hashing reuses every compiled stage the script didn't touch, so a
// one-table patch recompiles one stage, not the pipeline.

import (
	"fmt"
	"time"

	"ipsa/internal/ctrlplane"
	"ipsa/internal/template"
)

// Edit applies ops to a clone of the running configuration, validates
// the result and publishes it as one epoch (an edit_commit event).
func (s *Switch) Edit(ops []ctrlplane.EditOp) (*ctrlplane.ApplyStats, error) {
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	running := s.Config()
	if running == nil {
		return nil, fmt.Errorf("ipbm: no configuration installed to edit")
	}
	cfg, err := running.Clone()
	if err != nil {
		return nil, fmt.Errorf("ipbm: clone running config: %w", err)
	}
	// The running config's patch manifest describes the update that
	// installed it, not this edit, and may name tables the edit drops.
	cfg.Patch = nil
	// Ops write into these maps, and an empty running design round-trips
	// them as null.
	cfg.Actions, cfg.Tables = orEmpty(cfg.Actions), orEmpty(cfg.Tables)
	cfg.Stages, cfg.TSPAssignment = orEmpty(cfg.Stages), orEmpty(cfg.TSPAssignment)
	for i, op := range ops {
		if err := applyEdit(cfg, op); err != nil {
			return nil, fmt.Errorf("ipbm: edit op %d: %w", i, err)
		}
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("ipbm: edit script does not validate: %w", err)
	}
	return s.commit(cfg, s.intOn, start, "edit_commit", fmt.Sprintf("%d ops", len(ops)))
}

func orEmpty[V any](m map[string]V) map[string]V {
	if m == nil {
		return map[string]V{}
	}
	return m
}

// applyEdit applies one edit op to cfg. Structural errors (unknown
// stage, missing spec) fail the op; semantic validation happens once
// every op has applied.
func applyEdit(cfg *template.Config, op ctrlplane.EditOp) error {
	switch op.Kind {
	case "set_stage":
		if op.Stage == "" || op.Spec == nil {
			return fmt.Errorf("set_stage needs a stage name and spec")
		}
		for name, act := range op.Actions {
			cfg.Actions[name] = act
		}
		_, existed := cfg.Stages[op.Stage]
		cfg.Stages[op.Stage] = op.Spec
		if !existed {
			chain := &cfg.IngressChain
			if op.Egress {
				chain = &cfg.EgressChain
			}
			pos := op.Position
			if pos < 0 || pos > len(*chain) {
				pos = len(*chain)
			}
			*chain = append(*chain, "")
			copy((*chain)[pos+1:], (*chain)[pos:])
			(*chain)[pos] = op.Stage
			cfg.TSPAssignment[op.Stage] = op.TSP
		}
	case "delete_stage":
		if _, ok := cfg.Stages[op.Stage]; !ok {
			return fmt.Errorf("delete_stage: no stage %q", op.Stage)
		}
		delete(cfg.Stages, op.Stage)
		delete(cfg.TSPAssignment, op.Stage)
		cfg.IngressChain = removeString(cfg.IngressChain, op.Stage)
		cfg.EgressChain = removeString(cfg.EgressChain, op.Stage)
	case "set_table":
		if op.Table == "" || op.TableSpec == nil {
			return fmt.Errorf("set_table needs a table name and spec")
		}
		cfg.Tables[op.Table] = op.TableSpec
	case "delete_table":
		if _, ok := cfg.Tables[op.Table]; !ok {
			return fmt.Errorf("delete_table: no table %q", op.Table)
		}
		delete(cfg.Tables, op.Table)
	default:
		return fmt.Errorf("unknown edit op %q", op.Kind)
	}
	return nil
}

func removeString(ss []string, drop string) []string {
	out := ss[:0]
	for _, s := range ss {
		if s != drop {
			out = append(out, s)
		}
	}
	return out
}
