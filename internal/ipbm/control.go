package ipbm

import (
	"fmt"

	"ipsa/internal/ctrlplane"
	"ipsa/internal/flowstat"
	"ipsa/internal/telemetry"
	"ipsa/internal/verdict"
)

// The ctrlplane.Device implementation: what the CCM exposes to the
// controller.

// InsertEntry installs one table entry using the shared key encoding.
// The published version's handle view holds exactly its config's tables.
func (s *Switch) InsertEntry(req ctrlplane.EntryReq) (int, error) {
	v := s.epochs.current()
	if v == nil {
		return 0, errNoConfig
	}
	t, ok := v.design.Cfg.Tables[req.Table]
	if !ok {
		return 0, fmt.Errorf("ipbm: unknown table %q", req.Table)
	}
	entry, err := ctrlplane.EncodeEntry(t, req)
	if err != nil {
		return 0, err
	}
	return v.view[req.Table].Engine().Insert(entry)
}

// DeleteEntry removes an entry by handle.
func (s *Switch) DeleteEntry(table string, handle int) error {
	mt := s.table(table)
	if mt == nil {
		return fmt.Errorf("ipbm: unknown table %q", table)
	}
	return mt.Engine().Delete(handle)
}

// ListTables reports installed logical tables.
func (s *Switch) ListTables() []ctrlplane.TableStatus {
	var out []ctrlplane.TableStatus
	v := s.epochs.current()
	if v == nil {
		return out
	}
	for _, name := range sortedKeys(v.design.Cfg.Tables) {
		t := v.design.Cfg.Tables[name]
		out = append(out, ctrlplane.TableStatus{
			Name: name, Kind: t.Kind, KeyWidth: t.KeyWidth,
			Size: t.Size, Selector: t.IsSelector, Entries: v.view[name].Engine().Len(),
		})
	}
	return out
}

// TableStats reads a table's hit/miss counters.
func (s *Switch) TableStats(table string) (*ctrlplane.TableStats, error) {
	mt := s.table(table)
	if mt == nil {
		return nil, fmt.Errorf("ipbm: unknown table %q", table)
	}
	h, m := mt.Stats()
	return &ctrlplane.TableStats{Hits: h, Misses: m}, nil
}

// ReadRegister reads one register cell.
func (s *Switch) ReadRegister(name string, index uint64) (uint64, error) {
	v, ok := s.regs.Read(name, index)
	if !ok {
		return 0, fmt.Errorf("ipbm: register %q[%d] unreadable", name, index)
	}
	return v, nil
}

// Stats snapshots the device counters. Processed and Dropped read the
// verdict ledger: processed is every packet that finished forwarded,
// to_cpu or no_port, dropped every packet a stage dropped.
func (s *Switch) Stats() *ctrlplane.DeviceStats {
	vs := s.tel.VerdictSnapshot()
	var ports []ctrlplane.PortStats
	for i := 0; i < s.ports.Len(); i++ {
		p, err := s.ports.Port(i)
		if err != nil {
			continue
		}
		ps := p.DetailedStats()
		ports = append(ports, ctrlplane.PortStats{
			Port: i, Sent: ps.Sent, Received: ps.Received,
			RxDrops: ps.RxDrops, TxDrops: ps.TxDrops,
		})
	}
	return &ctrlplane.DeviceStats{
		Processed:       vs[verdict.Forwarded] + vs[verdict.ToCPU] + vs[verdict.NoPort],
		Dropped:         vs[verdict.Dropped],
		ToCPU:           s.punted.Load(),
		ActiveTSPs:      s.activeTSPs(),
		StallNanos:      int64(s.pl.StallTime()),
		TemplateLoads:   s.tel.tspsWritten.Value(),
		InvalidAccesses: s.dp.Faults().InvalidHeaderAccess.Load(),
		Ports:           ports,
	}
}

// Flows exposes the flow accounting engine (nil with FlowDisable).
func (s *Switch) Flows() *flowstat.Set { return s.flows }

// Views is the switch's one introspection surface: every argument-free
// read the CCM view op and the metrics endpoint's /v/<name> serve.
func (s *Switch) Views() *telemetry.Views { return s.views }

// newViews registers each subsystem's views once.
func (s *Switch) newViews() *telemetry.Views {
	v := telemetry.NewViews()
	v.Add("metrics", func(telemetry.Query) any { return s.tel.Reg.Gather() })
	v.Add("traces", func(q telemetry.Query) any { return s.tel.Tracer.Dump(q.Max) })
	v.Add("events", func(q telemetry.Query) any { return s.tel.Events.Dump(q.Max) })
	v.Add("drops", func(q telemetry.Query) any { return s.tel.Drops.Dump(q.Max) })
	v.Add("int", func(q telemetry.Query) any { return s.intReports(q.Max) })
	v.Add("stats", func(telemetry.Query) any { return s.Stats() })
	v.Add("tables", func(telemetry.Query) any { return s.ListTables() })
	s.health.AddViews(v)
	s.flows.AddViews(v)
	return v
}
