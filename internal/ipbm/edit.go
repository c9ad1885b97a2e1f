package ipbm

// edit.go is the edit-script layer of partial reconfiguration: instead
// of shipping a whole configuration, the controller opens a transaction
// (EditBegin), applies per-stage and per-table mutations against a
// private clone of the running config, and commits — publishing the
// accumulated script as one reconfiguration. A commit is an epoch
// publish where structural hashing reuses every compiled stage the
// script didn't touch, so a one-table patch recompiles one stage, not
// the pipeline.

import (
	"encoding/json"
	"fmt"
	"time"

	"ipsa/internal/ctrlplane"
	"ipsa/internal/telemetry"
	"ipsa/internal/template"
)

// editSession is an open edit transaction: a deep clone of the running
// configuration that ops mutate until commit or abort.
type editSession struct {
	pending *template.Config
	ops     int
}

// cloneConfig deep-copies a configuration through its serialized form,
// so edit ops can never alias the installed config. It uses compact
// JSON and skips validation — the source is the running config, which
// validated when it was applied; EditCommit validates the mutated clone.
func cloneConfig(cfg *template.Config) (*template.Config, error) {
	b, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	var c template.Config
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, err
	}
	return &c, nil
}

// EditBegin opens an edit transaction against the running
// configuration. Only one transaction may be open at a time.
func (s *Switch) EditBegin() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.edit != nil {
		return fmt.Errorf("ipbm: edit transaction already open (%d ops pending)", s.edit.ops)
	}
	d := s.dp.Design()
	if d == nil {
		return fmt.Errorf("ipbm: no configuration installed to edit")
	}
	pending, err := cloneConfig(d.Cfg)
	if err != nil {
		return fmt.Errorf("ipbm: clone running config: %w", err)
	}
	// A commit is always a semantic diff of the edited config, never a
	// replay of the old patch manifest.
	pending.Patch = nil
	// Ops write into these maps, and an empty running design round-trips
	// them as null.
	pending.Actions, pending.Tables = orEmpty(pending.Actions), orEmpty(pending.Tables)
	pending.Stages, pending.TSPAssignment = orEmpty(pending.Stages), orEmpty(pending.TSPAssignment)
	s.edit = &editSession{pending: pending}
	return nil
}

func orEmpty[V any](m map[string]V) map[string]V {
	if m == nil {
		return map[string]V{}
	}
	return m
}

// EditApply applies one edit op to the open transaction's pending
// configuration. Structural errors (unknown stage, missing spec) fail
// the op and leave the transaction open; semantic validation happens at
// commit.
func (s *Switch) EditApply(op ctrlplane.EditOp) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.edit == nil {
		return fmt.Errorf("ipbm: no edit transaction open")
	}
	cfg := s.edit.pending
	switch op.Kind {
	case "set_stage":
		if op.Stage == "" || op.Spec == nil {
			return fmt.Errorf("ipbm: set_stage needs a stage name and spec")
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
			return fmt.Errorf("ipbm: delete_stage: no stage %q", op.Stage)
		}
		delete(cfg.Stages, op.Stage)
		delete(cfg.TSPAssignment, op.Stage)
		cfg.IngressChain = removeString(cfg.IngressChain, op.Stage)
		cfg.EgressChain = removeString(cfg.EgressChain, op.Stage)
	case "set_table":
		if op.Table == "" || op.TableSpec == nil {
			return fmt.Errorf("ipbm: set_table needs a table name and spec")
		}
		cfg.Tables[op.Table] = op.TableSpec
	case "delete_table":
		if _, ok := cfg.Tables[op.Table]; !ok {
			return fmt.Errorf("ipbm: delete_table: no table %q", op.Table)
		}
		delete(cfg.Tables, op.Table)
	default:
		return fmt.Errorf("ipbm: unknown edit op %q", op.Kind)
	}
	s.edit.ops++
	return nil
}

// EditCommit validates the pending configuration and publishes it as
// one reconfiguration (one epoch of the program store). On failure the
// transaction stays open so the caller can add corrective ops or abort.
func (s *Switch) EditCommit() (*ctrlplane.EditStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.edit == nil {
		return nil, fmt.Errorf("ipbm: no edit transaction open")
	}
	cfg, ops := s.edit.pending, s.edit.ops
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("ipbm: edit script does not validate: %w", err)
	}
	stats, err := s.applyHitless(cfg, time.Now())
	if err != nil {
		return nil, err
	}
	s.edit = nil
	s.tel.Events.Append(telemetry.Event{
		Kind:             "edit_commit",
		ConfigHash:       configHash(cfg),
		Detail:           fmt.Sprintf("%d ops", ops),
		TSPsWritten:      stats.TSPsWritten,
		TablesCreated:    stats.TablesCreated,
		TablesDropped:    stats.TablesDropped,
		Hitless:          stats.Hitless,
		Epoch:            stats.Epoch,
		StagesRecompiled: stats.StagesRecompiled,
		StagesReused:     stats.StagesReused,
	})
	return &ctrlplane.EditStats{Ops: ops, Apply: stats}, nil
}

// EditAbort discards the open transaction.
func (s *Switch) EditAbort() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.edit == nil {
		return fmt.Errorf("ipbm: no edit transaction open")
	}
	ops := s.edit.ops
	s.edit = nil
	s.tel.Events.Append(telemetry.Event{
		Kind:   "edit_abort",
		Detail: fmt.Sprintf("%d ops discarded", ops),
	})
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
