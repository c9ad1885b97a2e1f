package health

import (
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ipsa/internal/telemetry"
)

// State is the switch's aggregate health verdict, exported as the
// ipsa_health_state gauge (0 healthy, 1 degraded, 2 stalled).
type State int32

const (
	StateHealthy State = iota
	StateDegraded
	StateStalled
)

func (s State) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateDegraded:
		return "degraded"
	case StateStalled:
		return "stalled"
	}
	return "unknown"
}

// The monitor's fixed tuning.
const (
	// rateWindow is the default rate window.
	rateWindow = 10 * time.Second
	// ringSize is the number of retained samples: two minutes of history
	// at the default cadence.
	ringSize = 120
	// stallRounds is how many consecutive no-progress-while-pending checks
	// flag a lane stalled.
	stallRounds = 3
	// reconfigDeadline bounds a tracked reconfiguration (a retired program
	// version still holding packets) before it is reported wedged.
	reconfigDeadline = 2 * time.Second
	// dropSpikeFraction and dropSpikeFactor parameterize the post-apply
	// anomaly check: the windowed drop fraction must exceed both the
	// absolute floor and baseline*factor to count as a spike.
	dropSpikeFraction = 0.05
	dropSpikeFactor   = 2
	// spikeChecks is how many checks after a reconfiguration the
	// verdict-delta anomaly detector stays armed.
	spikeChecks = 5
	// latencySeries is the histogram family folded into the windowed
	// latency quantiles; a registry without it has no latency breakdown.
	latencySeries = "ipsa_tsp_latency_seconds"
)

// Options configures a Health instance.
type Options struct {
	Registry *telemetry.Registry // required
	Events   *telemetry.EventLog // optional: audit ring for transitions
	Log      *slog.Logger        // optional: defaults to slog.Default()

	// Interval is the sampler/monitor cadence (default 1s). Negative
	// disables the background ticker entirely — tests drive Check()
	// manually with synthetic clocks.
	Interval time.Duration
	// Packets and Drops feed the switch-level throughput history:
	// cumulative packets seen and packets lost. Feeders should count
	// only unexpected losses (congestion, misrouting, parse failures) —
	// not intentional policy drops — so the drop-spike detector flags
	// faults, not firewalls. Optional; without them PPS and the spike
	// check are disabled.
	Packets func() uint64
	Drops   func() uint64
	// TMDepth reports current traffic-manager occupancy across shards.
	TMDepth func() int
	// Ready gates /readyz — typically "a configuration is installed".
	Ready func() bool
	// VerdictSeries names the per-verdict counter family used for the
	// drop-cause breakdown (default ipsa_packets_total, label "verdict").
	VerdictSeries string

	// Now overrides the clock (UnixNano) for tests.
	Now func() int64
}

// histSample is one point of the switch-level throughput history.
type histSample struct {
	t       int64
	packets uint64
	drops   uint64
}

const histSlots = 128

// Health assembles the ring, the watchdog lanes, the reconfiguration
// deadline tracker and the state machine into one monitor.
type Health struct {
	o      Options
	ring   *Ring
	log    *slog.Logger
	events *telemetry.EventLog
	gauge  *telemetry.Gauge

	startNanos int64

	mu         sync.Mutex
	lanes      []*Lane
	ops        []*op
	state      State
	stateSince int64
	reason     string

	hist    [histSlots]histSample
	histPos int
	histN   int

	lastEventSeq uint64
	spikeLeft    int
	spikeBase    float64
	spikeKind    string
	spikeActive  bool

	running atomic.Bool
	stopCh  chan struct{}
}

// New builds a Health over o.Registry. Call Start to begin sampling.
func New(o Options) *Health {
	if o.Interval == 0 {
		o.Interval = time.Second
	}
	if o.VerdictSeries == "" {
		o.VerdictSeries = "ipsa_packets_total"
	}
	if o.Log == nil {
		o.Log = slog.Default()
	}
	h := &Health{
		o:      o,
		ring:   NewRing(o.Registry, ringSize),
		log:    o.Log,
		events: o.Events,
		stopCh: make(chan struct{}),
	}
	h.startNanos = h.now()
	h.stateSince = h.startNanos
	if o.Registry != nil {
		h.gauge = o.Registry.Gauge("ipsa_health_state")
		h.gauge.Set(int64(StateHealthy))
	}
	return h
}

func (h *Health) now() int64 {
	if h.o.Now != nil {
		return h.o.Now()
	}
	return time.Now().UnixNano()
}

// AddColumn tracks an explicitly wired series in the ring.
func (h *Health) AddColumn(c Column) {
	if h == nil {
		return
	}
	h.ring.AddColumn(c)
}

// State reports the current aggregate verdict.
func (h *Health) State() State {
	if h == nil {
		return StateHealthy
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state
}

// Ready reports whether the switch is ready to serve (a configuration is
// installed). Separate from liveness: a stalled switch is alive but not
// well.
func (h *Health) Ready() bool {
	if h == nil {
		return false
	}
	if h.o.Ready == nil {
		return true
	}
	return h.o.Ready()
}

// Start launches the sampler/monitor goroutine. Idempotent; a negative
// Interval (manual mode, tests) makes it a no-op.
func (h *Health) Start() {
	if h == nil || h.o.Interval < 0 {
		return
	}
	if !h.running.CompareAndSwap(false, true) {
		return
	}
	go h.loop()
}

// Stop halts the background goroutine. Idempotent.
func (h *Health) Stop() {
	if h == nil {
		return
	}
	if h.running.CompareAndSwap(true, false) {
		close(h.stopCh)
	}
}

func (h *Health) loop() {
	t := time.NewTicker(h.o.Interval)
	defer t.Stop()
	for {
		select {
		case <-h.stopCh:
			return
		case <-t.C:
			h.Check(h.now())
		}
	}
}

// Check runs one sampler+monitor pass at the given timestamp: tick the
// ring, advance the lane stall detectors, age the reconfiguration
// deadline tracker, run the post-apply drop-spike check, and move the
// state machine. Safe to call concurrently with the ticker (tests drive
// it directly with synthetic clocks).
func (h *Health) Check(now int64) {
	h.ring.Tick(now)

	h.mu.Lock()
	defer h.mu.Unlock()

	// Switch-level throughput history for PPS and the spike check.
	if h.o.Packets != nil {
		s := histSample{t: now, packets: h.o.Packets()}
		if h.o.Drops != nil {
			s.drops = h.o.Drops()
		}
		h.hist[h.histPos] = s
		h.histPos = (h.histPos + 1) % histSlots
		if h.histN < histSlots {
			h.histN++
		}
	}

	stalledLanes := h.checkLanesLocked()
	wedgedOps := h.checkOpsLocked(now)
	h.checkSpikeLocked()

	target := StateHealthy
	var why string
	if stalledLanes > 0 {
		if stalledLanes == len(h.lanes) {
			target = StateStalled
		} else {
			target = StateDegraded
		}
		why = appendReason(why, itoa(stalledLanes)+"/"+itoa(len(h.lanes))+" lanes stalled")
	}
	if wedgedOps > 0 {
		if target < StateDegraded {
			target = StateDegraded
		}
		why = appendReason(why, itoa(wedgedOps)+" reconfiguration(s) wedged")
	}
	if h.spikeActive {
		if target < StateDegraded {
			target = StateDegraded
		}
		why = appendReason(why, "drop-rate spike after "+h.spikeKind)
	}
	h.transitionLocked(now, target, why)
}

func appendReason(sum, r string) string {
	if sum == "" {
		return r
	}
	return sum + "; " + r
}

func itoa(n int) string {
	// strconv.Itoa without the import churn for two call sites would be
	// silly — but this also keeps the healthy path allocation-quiet,
	// since reasons are only built when something is wrong.
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	neg := n < 0
	if neg {
		n = -n
	}
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// dropFractionLocked computes the windowed drop fraction and rates from
// the throughput history.
func (h *Health) dropFractionLocked(now int64, window time.Duration) (pps, dropPPS, frac float64) {
	if h.histN < 2 {
		return 0, 0, 0
	}
	newest := h.hist[(h.histPos-1+histSlots)%histSlots]
	cutoff := now - window.Nanoseconds()
	oldest := newest
	for i := 1; i < h.histN; i++ {
		s := h.hist[((h.histPos-1-i)%histSlots+histSlots)%histSlots]
		if s.t < cutoff {
			break
		}
		oldest = s
	}
	dt := float64(newest.t-oldest.t) / float64(time.Second)
	if dt <= 0 {
		return 0, 0, 0
	}
	dp := float64(newest.packets - oldest.packets)
	dd := float64(newest.drops - oldest.drops)
	pps = dp / dt
	dropPPS = dd / dt
	if dp > 0 {
		frac = dd / dp
	}
	return pps, dropPPS, frac
}

// checkSpikeLocked arms on a fresh reconfiguration event and, while
// armed, compares the windowed drop fraction against the pre-apply
// baseline. A spike marks the switch degraded and drops a verdict into
// the event ring; recovery clears once the fraction is back under the
// floor.
func (h *Health) checkSpikeLocked() {
	if h.events == nil || h.o.Packets == nil {
		return
	}
	now := h.hist[(h.histPos-1+histSlots)%histSlots].t
	_, _, frac := h.dropFractionLocked(now, rateWindow)
	if seq := h.events.LastSeq(); seq != h.lastEventSeq {
		if ev, ok := h.events.Last(); ok && isReconfigKind(ev.Kind) {
			h.spikeLeft = spikeChecks
			h.spikeBase = frac
			h.spikeKind = ev.Kind
		}
		h.lastEventSeq = seq
	}
	if h.spikeLeft > 0 {
		h.spikeLeft--
		if frac > dropSpikeFraction && frac > h.spikeBase*dropSpikeFactor {
			if !h.spikeActive {
				h.spikeActive = true
				h.log.Warn("drop-rate spike after reconfiguration",
					"kind", h.spikeKind, "drop_fraction", frac,
					"baseline", h.spikeBase)
				h.events.Append(telemetry.Event{
					Kind: "health_degraded",
					Detail: "drop-rate spike after " + h.spikeKind +
						": windowed drop fraction exceeded baseline",
				})
			}
			h.spikeLeft = spikeChecks // keep armed while spiking
		}
	} else if h.spikeActive && frac <= dropSpikeFraction {
		h.spikeActive = false
	}
}

func isReconfigKind(kind string) bool {
	return strings.HasPrefix(kind, "apply") || strings.HasPrefix(kind, "int_") ||
		strings.HasPrefix(kind, "edit")
}

// transitionLocked moves the state machine, logging and recording each
// transition in the audit ring and the ipsa_health_state gauge.
func (h *Health) transitionLocked(now int64, target State, why string) {
	if target == h.state {
		if why != "" {
			h.reason = why
		}
		return
	}
	prev := h.state
	h.state = target
	h.stateSince = now
	h.reason = why
	if h.gauge != nil {
		h.gauge.Set(int64(target))
	}
	kind := "health_recovered"
	switch target {
	case StateDegraded:
		kind = "health_degraded"
	case StateStalled:
		kind = "health_stalled"
	}
	detail := prev.String() + " -> " + target.String()
	if why != "" {
		detail += ": " + why
	}
	switch target {
	case StateHealthy:
		h.log.Info("health state transition", "from", prev.String(), "to", target.String())
	default:
		h.log.Warn("health state transition", "from", prev.String(), "to", target.String(), "reason", why)
	}
	h.events.Append(telemetry.Event{Kind: kind, Detail: detail})
}
