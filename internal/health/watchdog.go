package health

import (
	"time"

	"ipsa/internal/telemetry"
)

// Lane is one monitored execution lane: a shard worker. Progress is a
// monotonic heartbeat the lane stamps as it does work; Pending is how much
// work is queued for it (its rx rings plus TM occupancy). A lane is flagged stalled when its heartbeat is
// frozen across stallRounds consecutive checks while Pending stays
// positive — the TM-empty guard, since an idle lane's frozen heartbeat
// is just an idle lane.
type Lane struct {
	Name     string
	Progress func() uint64
	Pending  func() int
	// Series optionally names a ring column whose windowed rate is this
	// lane's throughput (e.g. ipsa_shard_rx_frames_total{shard=i}).
	Series       string
	SeriesLabels []telemetry.Label

	last    uint64
	primed  bool
	rounds  int
	stalled bool
}

// LaneStatus is the exported view of one lane.
type LaneStatus struct {
	Name      string  `json:"name"`
	State     string  `json:"state"` // "ok" or "stalled"
	Heartbeat uint64  `json:"heartbeat"`
	Pending   int     `json:"pending"`
	RatePPS   float64 `json:"rate_pps,omitempty"`
}

// op is one tracked reconfiguration: the retirement of a superseded
// program version. If check doesn't report completion before the
// deadline, the monitor reports the reconfiguration as wedged — turning a
// silent hang into a degraded event with the op's age attached.
type op struct {
	kind       string
	configHash string
	start      int64
	deadline   int64 // nanos allowed before the op counts as wedged
	// check is polled each health tick; returning true completes the op.
	// The epoch store uses it to watch a retired version's in-flight
	// count drain to zero.
	check   func() bool
	flagged bool // wedged event already emitted
}

// OpStatus is the exported view of one in-flight reconfiguration.
type OpStatus struct {
	Kind       string `json:"kind"`
	ConfigHash string `json:"config_hash,omitempty"`
	AgeNanos   int64  `json:"age_nanos"`
	Wedged     bool   `json:"wedged"`
}

// BeginOpWatch records the start of a reconfiguration whose completion
// is observed rather than signalled: check is polled each health tick and
// the op completes once it returns true. The program store uses it to
// track a retired program version until its in-flight packet count drains
// to zero. A nil *Health is safe.
func (h *Health) BeginOpWatch(kind, configHash string, check func() bool) {
	if h == nil {
		return
	}
	o := &op{kind: kind, configHash: configHash, start: h.now(),
		deadline: reconfigDeadline.Nanoseconds(), check: check}
	h.mu.Lock()
	h.ops = append(h.ops, o)
	h.mu.Unlock()
}

// AddLane registers a lane with the watchdog. Called by the forwarding
// driver at start-up (RunSharded registers one lane per shard).
func (h *Health) AddLane(l Lane) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	ln := l
	h.lanes = append(h.lanes, &ln)
}

// checkLanesLocked advances every lane's stall detector and returns how
// many are currently stalled.
func (h *Health) checkLanesLocked() (stalled int) {
	for _, l := range h.lanes {
		prog := l.Progress()
		pending := 0
		if l.Pending != nil {
			pending = l.Pending()
		}
		if !l.primed {
			l.primed, l.last = true, prog
			continue
		}
		if prog == l.last && pending > 0 {
			l.rounds++
		} else {
			l.rounds = 0
		}
		l.last = prog
		was := l.stalled
		l.stalled = l.rounds >= stallRounds
		if l.stalled != was {
			if l.stalled {
				h.log.Warn("lane stalled: heartbeat frozen with work queued",
					"lane", l.Name, "heartbeat", prog, "pending", pending,
					"rounds", l.rounds)
			} else {
				h.log.Info("lane recovered", "lane", l.Name, "heartbeat", prog)
			}
		}
		if l.stalled {
			stalled++
		}
	}
	return stalled
}

// checkOpsLocked prunes completed reconfigurations and returns how many
// are wedged (past their deadline), emitting a degraded event the first
// time each one crosses it.
func (h *Health) checkOpsLocked(now int64) (wedged int) {
	kept := h.ops[:0]
	for _, o := range h.ops {
		if o.check() {
			continue
		}
		kept = append(kept, o)
		age := now - o.start
		if o.deadline > 0 && age > o.deadline {
			wedged++
			if !o.flagged {
				o.flagged = true
				h.log.Warn("reconfiguration wedged: swap or epoch retirement past deadline",
					"kind", o.kind, "config_hash", o.configHash,
					"age", time.Duration(age), "deadline", time.Duration(o.deadline))
				h.events.Append(telemetry.Event{
					Kind:       "health_degraded",
					ConfigHash: o.configHash,
					Detail: "reconfiguration wedged: " + o.kind + " held " +
						time.Duration(age).String() + " (deadline " +
						time.Duration(o.deadline).String() + ")",
				})
			}
		}
	}
	h.ops = kept
	return wedged
}
