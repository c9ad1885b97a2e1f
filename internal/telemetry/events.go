package telemetry

import (
	"sync"
	"time"
)

// Event is one structured audit record of an in-situ reconfiguration:
// what was applied, how long the pipeline was held, and what the data
// plane was doing while the swap happened. The event log is what turns
// "hitless update" from an assertion into a measurement — DrainNanos and
// VerdictDeltas show exactly what traffic experienced during the apply.
type Event struct {
	Seq       uint64 `json:"seq"`
	TimeNanos int64  `json:"time_nanos"` // wall clock (UnixNano)
	// Kind is the reconfiguration flavor: apply_full, apply_diff,
	// int_enable, int_disable, edit_commit.
	Kind string `json:"kind"`
	// ConfigHash identifies the applied configuration (truncated SHA-256
	// of its serialized form); empty for events with no config payload.
	ConfigHash string `json:"config_hash,omitempty"`
	// TSPsWritten counts the TSPs whose programs were rewritten in situ.
	TSPsWritten int `json:"tsps_written,omitempty"`
	// TablesCreated/TablesDropped count storage-module changes.
	TablesCreated int `json:"tables_created,omitempty"`
	TablesDropped int `json:"tables_dropped,omitempty"`
	// DrainNanos is how long the pipeline was exclusively held (packets
	// blocked) for the swap. Hitless epoch commits never block packets and
	// record 0 here with Hitless set instead of a misleading hold time.
	DrainNanos int64 `json:"drain_nanos,omitempty"`
	// Hitless marks a reconfiguration that published a new program version
	// without draining the pipeline (epoch-versioned store).
	Hitless bool `json:"hitless,omitempty"`
	// Epoch is the program-store epoch the reconfiguration published (0
	// for drain-and-swap events, which have no versioned store).
	Epoch uint64 `json:"epoch,omitempty"`
	// StagesRecompiled/StagesReused report how much of the pipeline's
	// compiled program the structural-hash cache salvaged across epochs.
	StagesRecompiled int `json:"stages_recompiled,omitempty"`
	StagesReused     int `json:"stages_reused,omitempty"`
	// InFlight is the TM occupancy (packets parked between the ingress
	// and egress halves) at the moment of the swap.
	InFlight int `json:"in_flight,omitempty"`
	// VerdictDeltas is the change in the switch's per-verdict packet
	// counters over the apply's critical section — the direct evidence of
	// (or against) hitlessness. Only non-zero verdicts appear.
	VerdictDeltas map[string]uint64 `json:"verdict_deltas,omitempty"`
	// Detail carries kind-specific context (e.g. the patch manifest
	// summary or an error note).
	Detail string `json:"detail,omitempty"`
}

// EventLog is a bounded ring of audit events, newest overwrite oldest,
// mirroring the Tracer's flight-recorder shape. Appends happen on the
// control path only, so a mutex is fine.
type EventLog struct {
	mu   sync.Mutex
	ring []Event
	pos  int
	full bool
	seq  uint64
}

// NewEventLog builds a ring holding size events (minimum 16).
func NewEventLog(size int) *EventLog {
	if size < 16 {
		size = 16
	}
	return &EventLog{ring: make([]Event, size)}
}

// Append records ev, stamping Seq and (when unset) TimeNanos.
func (l *EventLog) Append(ev Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	ev.Seq = l.seq
	if ev.TimeNanos == 0 {
		ev.TimeNanos = time.Now().UnixNano()
	}
	l.ring[l.pos] = ev
	l.pos = (l.pos + 1) % len(l.ring)
	if l.pos == 0 {
		l.full = true
	}
}

// Len reports how many events the ring currently holds.
func (l *EventLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.full {
		return len(l.ring)
	}
	return l.pos
}

// LastSeq reports the sequence number of the newest event (0 when none).
// Allocation-free; the health monitor polls it every check to notice new
// reconfigurations without dumping the ring.
func (l *EventLog) LastSeq() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Last returns the newest event, if any.
func (l *EventLog) Last() (Event, bool) {
	if l == nil {
		return Event{}, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seq == 0 {
		return Event{}, false
	}
	idx := (l.pos - 1 + len(l.ring)) % len(l.ring)
	return l.ring[idx], true
}

// Dump returns up to max events, newest first (0 = all retained).
func (l *EventLog) Dump(max int) []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.pos
	if l.full {
		n = len(l.ring)
	}
	if max > 0 && max < n {
		n = max
	}
	out := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		idx := (l.pos - 1 - i + len(l.ring)) % len(l.ring)
		out = append(out, l.ring[idx])
	}
	return out
}
