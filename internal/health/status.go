package health

import (
	"time"

	"ipsa/internal/telemetry"
	"ipsa/internal/verdict"
)

// Status is the health view's payload: the aggregate
// verdict plus the windowed rates an operator asks for first. rp4ctl top
// renders it directly.
type Status struct {
	State       string `json:"state"`
	Reason      string `json:"reason,omitempty"`
	SinceNanos  int64  `json:"since_nanos"`
	UptimeNanos int64  `json:"uptime_nanos"`
	WindowNanos int64  `json:"window_nanos"`
	Samples     int    `json:"samples"`

	PPS          float64 `json:"pps"`
	DropPPS      float64 `json:"drop_pps"`
	DropFraction float64 `json:"drop_fraction"`
	TMDepth      int     `json:"tm_depth"`

	// DropCauses breaks the loss rate down by verdict (dropped, tm_drop,
	// no_port, ...) over the window.
	DropCauses map[string]float64 `json:"drop_causes,omitempty"`
	// Latency is the windowed switch-wide per-TSP latency distribution
	// (sampled), when latency histograms are registered.
	Latency *HistWindow `json:"latency,omitempty"`

	Lanes []LaneStatus `json:"lanes,omitempty"`
	Ops   []OpStatus   `json:"ops,omitempty"`

	// LastEvent is the newest audit-ring entry (reconfigurations and
	// health transitions).
	LastEvent *telemetry.Event `json:"last_event,omitempty"`
}

// dropVerdicts are the verdict label values that count as loss.
var dropVerdicts = map[string]bool{
	verdict.StrDropped:    true,
	verdict.StrTMDrop:     true,
	verdict.StrNoPort:     true,
	verdict.StrParseError: true,
}

// Status assembles the exported view over the given window (<= 0 uses
// the default rate window). Query path: allocates freely.
func (h *Health) Status(window time.Duration) *Status {
	if h == nil {
		return &Status{State: StateHealthy.String()}
	}
	if window <= 0 {
		window = rateWindow
	}
	now := h.now()

	h.mu.Lock()
	st := &Status{
		State:       h.state.String(),
		Reason:      h.reason,
		SinceNanos:  h.stateSince,
		UptimeNanos: now - h.startNanos,
		WindowNanos: window.Nanoseconds(),
	}
	st.PPS, st.DropPPS, st.DropFraction = h.dropFractionLocked(now, window)
	lanes := make([]*Lane, len(h.lanes))
	copy(lanes, h.lanes)
	laneStalled := make([]bool, len(lanes))
	laneBeat := make([]uint64, len(lanes))
	lanePending := make([]int, len(lanes))
	for i, l := range lanes {
		laneStalled[i] = l.stalled
		laneBeat[i] = l.Progress()
		if l.Pending != nil {
			lanePending[i] = l.Pending()
		}
	}
	for _, o := range h.ops {
		age := now - o.start
		st.Ops = append(st.Ops, OpStatus{
			Kind: o.kind, ConfigHash: o.configHash, AgeNanos: age,
			Wedged: o.deadline > 0 && age > o.deadline,
		})
	}
	h.mu.Unlock()

	st.Samples = h.ring.Samples()
	if h.o.TMDepth != nil {
		st.TMDepth = h.o.TMDepth()
	}
	for i, l := range lanes {
		ls := LaneStatus{Name: l.Name, State: "ok", Heartbeat: laneBeat[i], Pending: lanePending[i]}
		if laneStalled[i] {
			ls.State = "stalled"
		}
		if l.Series != "" {
			if r, ok := h.ring.RateOf(l.Series, window, l.SeriesLabels...); ok {
				ls.RatePPS = r.PerSec
			}
		}
		st.Lanes = append(st.Lanes, ls)
	}
	// Drop-cause breakdown from the per-verdict counter family.
	for _, r := range h.ring.Rates(window) {
		if r.Name != h.o.VerdictSeries {
			continue
		}
		for _, l := range r.Labels {
			if l.Key == "verdict" && dropVerdicts[l.Value] && r.PerSec > 0 {
				if st.DropCauses == nil {
					st.DropCauses = make(map[string]float64)
				}
				st.DropCauses[l.Value] += r.PerSec
			}
		}
	}
	if hw, ok := h.ring.HistWindowSum(latencySeries, window); ok {
		st.Latency = &hw
	}
	if ev, ok := h.events.Last(); ok {
		st.LastEvent = &ev
	}
	return st
}
