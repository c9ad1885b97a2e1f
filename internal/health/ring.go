// Package health is the switch's self-diagnosis layer: a fixed-size
// time-series ring over the telemetry registry serving windowed rates, a
// watchdog monitor over per-shard/per-pipeline heartbeats and
// reconfiguration deadlines, a healthy→degraded→stalled state machine
// exported as ipsa_health_state, the health and rates views that rp4ctl
// health and top render, and the /healthz and /readyz probes.
package health

import (
	"slices"
	"sort"
	"sync"
	"time"

	"ipsa/internal/telemetry"
)

// Column is one explicitly wired series: state that is not a registered
// handle (collector-backed values like TM depth sums or pipeline totals)
// but that the ring should still track. Read must be safe from the
// sampler goroutine and allocation-free — it runs on every tick.
type Column struct {
	Name   string
	Labels []telemetry.Label
	Kind   string // "counter" or "gauge"
	Read   func() float64
}

// ringCol is one tracked scalar series with its per-slot sample buffer.
type ringCol struct {
	key    string
	name   string
	labels []telemetry.Label
	kind   string
	read   func() float64
	vals   []float64
	valid  int // samples written so far, capped at capacity
}

// ringHist is one histogram family, every series registered under one
// name: the sum of their bucket snapshots per slot, so queries can compute
// quantiles of the family's windowed delta, not of all time. The family's
// only reader (HistWindowSum) sums its series anyway, so summing at tick
// time keeps one snapshot per slot rather than one per series. When the
// family gains or loses a series its window restarts (valid = 0): no delta
// spans two different sets of series.
type ringHist struct {
	name  string
	hs    []*telemetry.Histogram // the family's series, in registry order
	vals  [][telemetry.HistBuckets]uint64
	valid int
}

// Ring snapshots every registered counter/gauge (and any explicitly
// added column) into a fixed-size circular buffer on each Tick. The tick
// path is allocation-free in steady state: the column list is rebuilt
// only when the registry's generation moves (a series was registered or
// unregistered), and each sample lands in a preallocated slot.
type Ring struct {
	reg      *telemetry.Registry
	capacity int

	mu    sync.Mutex
	times []int64 // UnixNano per slot
	pos   int     // next slot to write
	n     int     // slots filled, capped at capacity

	auto    []ringCol // discovered from the registry, rebuilt on gen change
	extra   []ringCol // wired via AddColumn, never rebuilt
	hists   []ringHist
	gen     uint64
	tracked bool
}

// NewRing builds a ring of capacity slots over reg (which may be nil for
// a ring fed only by explicit columns).
func NewRing(reg *telemetry.Registry, capacity int) *Ring {
	if capacity < 8 {
		capacity = 8
	}
	return &Ring{reg: reg, capacity: capacity, times: make([]int64, capacity)}
}

// Capacity reports the number of slots.
func (r *Ring) Capacity() int { return r.capacity }

// Samples reports how many slots currently hold data.
func (r *Ring) Samples() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// AddColumn tracks an explicitly wired series alongside the
// registry-discovered ones.
func (r *Ring) AddColumn(c Column) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := telemetry.SeriesKey(c.Name, c.Labels)
	for i := range r.extra {
		if r.extra[i].key == key {
			r.extra[i].read = c.Read
			return
		}
	}
	r.extra = append(r.extra, ringCol{
		key: key, name: c.Name, labels: append([]telemetry.Label(nil), c.Labels...),
		kind: c.Kind, read: c.Read, vals: make([]float64, r.capacity),
	})
}

// rebuildLocked re-enumerates the registry, preserving the sample
// buffers of series that survived (matched by key) so rates keep their
// history across a rebuild. New series start with an empty buffer.
func (r *Ring) rebuildLocked() {
	old := make(map[string]*ringCol, len(r.auto))
	for i := range r.auto {
		old[r.auto[i].key] = &r.auto[i]
	}
	scalars := r.reg.Scalars()
	next := make([]ringCol, 0, len(scalars))
	for i := range scalars {
		h := &scalars[i]
		if prev, ok := old[h.Key]; ok {
			prev.read = h.Read
			next = append(next, *prev)
			continue
		}
		next = append(next, ringCol{
			key: h.Key, name: h.Name, labels: h.Labels, kind: h.Kind,
			read: h.Read, vals: make([]float64, r.capacity),
		})
	}
	r.auto = next

	oldH := make(map[string]*ringHist, len(r.hists))
	for i := range r.hists {
		oldH[r.hists[i].name] = &r.hists[i]
	}
	var nextH []ringHist
	family := make(map[string]int) // name -> index in nextH
	for _, h := range r.reg.HistogramHandles() {
		i, ok := family[h.Name]
		if !ok {
			i = len(nextH)
			family[h.Name] = i
			nextH = append(nextH, ringHist{name: h.Name})
		}
		nextH[i].hs = append(nextH[i].hs, h.Hist)
	}
	for i := range nextH {
		hh := &nextH[i]
		prev, ok := oldH[hh.name]
		if !ok {
			hh.vals = make([][telemetry.HistBuckets]uint64, r.capacity)
			continue
		}
		hh.vals = prev.vals
		if slices.Equal(prev.hs, hh.hs) {
			hh.valid = prev.valid
		}
	}
	r.hists = nextH
}

// Tick samples every tracked series into the next slot. Zero-alloc in
// steady state; allocates only when the registry gained or lost series
// since the previous tick.
func (r *Ring) Tick(nowNanos int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.reg != nil {
		if g := r.reg.Generation(); !r.tracked || g != r.gen {
			r.rebuildLocked()
			r.gen, r.tracked = g, true
		}
	}
	slot := r.pos
	r.times[slot] = nowNanos
	for i := range r.auto {
		c := &r.auto[i]
		c.vals[slot] = c.read()
		if c.valid < r.capacity {
			c.valid++
		}
	}
	for i := range r.extra {
		c := &r.extra[i]
		c.vals[slot] = c.read()
		if c.valid < r.capacity {
			c.valid++
		}
	}
	for i := range r.hists {
		hh := &r.hists[i]
		sum := &hh.vals[slot]
		*sum = [telemetry.HistBuckets]uint64{}
		for _, h := range hh.hs {
			snap := h.Snapshot()
			for b := range sum {
				sum[b] += snap[b]
			}
		}
		if hh.valid < r.capacity {
			hh.valid++
		}
	}
	r.pos = (r.pos + 1) % r.capacity
	if r.n < r.capacity {
		r.n++
	}
}

// Rate is one windowed reading of a tracked series: the newest sample,
// the delta across the window, and the per-second rate. For gauges Last
// is the current level and PerSec its slope.
type Rate struct {
	Name   string            `json:"name"`
	Labels []telemetry.Label `json:"labels,omitempty"`
	Kind   string            `json:"kind"`
	Last   float64           `json:"last"`
	Delta  float64           `json:"delta"`
	PerSec float64           `json:"per_sec"`
}

// slotBack returns the slot index i samples behind the newest.
func (r *Ring) slotBack(i int) int {
	return ((r.pos-1-i)%r.capacity + r.capacity) % r.capacity
}

// windowSpanLocked picks the oldest retained sample within window of the
// newest one, honoring how many samples a column has (valid). It returns
// offsets-from-newest and the elapsed nanoseconds between them; ok is
// false when fewer than two usable samples exist.
func (r *Ring) windowSpanLocked(window time.Duration, valid int) (newest, oldest int, dtNanos int64, ok bool) {
	if valid > r.n {
		valid = r.n
	}
	if valid < 2 {
		return 0, 0, 0, false
	}
	tNew := r.times[r.slotBack(0)]
	cutoff := tNew - window.Nanoseconds()
	oldest = 1
	for i := 2; i < valid; i++ {
		if r.times[r.slotBack(i)] < cutoff {
			break
		}
		oldest = i
	}
	dtNanos = tNew - r.times[r.slotBack(oldest)]
	if dtNanos <= 0 {
		return 0, 0, 0, false
	}
	return 0, oldest, dtNanos, true
}

// rateOfColLocked computes the windowed rate for one column.
func (r *Ring) rateOfColLocked(c *ringCol, window time.Duration) (Rate, bool) {
	rate := Rate{Name: c.name, Labels: c.labels, Kind: c.kind}
	newest, oldest, dt, ok := r.windowSpanLocked(window, c.valid)
	if !ok {
		return rate, false
	}
	last := c.vals[r.slotBack(newest)]
	first := c.vals[r.slotBack(oldest)]
	delta := last - first
	// Counter-reset handling (a series unregistered and re-registered
	// restarts at zero): treat the newest value as the whole delta.
	if c.kind == "counter" && delta < 0 {
		delta = last
	}
	rate.Last = last
	rate.Delta = delta
	rate.PerSec = delta / (float64(dt) / float64(time.Second))
	return rate, true
}

// Rates returns the windowed rate of every tracked scalar series, sorted
// by name then labels. Query-path only; allocates.
func (r *Ring) Rates(window time.Duration) []Rate {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Rate, 0, len(r.auto)+len(r.extra))
	for i := range r.auto {
		if rate, ok := r.rateOfColLocked(&r.auto[i], window); ok {
			out = append(out, rate)
		}
	}
	for i := range r.extra {
		if rate, ok := r.rateOfColLocked(&r.extra[i], window); ok {
			out = append(out, rate)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return labelsLess(out[i].Labels, out[j].Labels)
	})
	return out
}

func labelsLess(a, b []telemetry.Label) bool {
	return telemetry.SeriesKey("", a) < telemetry.SeriesKey("", b)
}

// RateOf returns the windowed rate of one series by name and labels.
func (r *Ring) RateOf(name string, window time.Duration, labels ...telemetry.Label) (Rate, bool) {
	key := telemetry.SeriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.auto {
		if r.auto[i].key == key {
			return r.rateOfColLocked(&r.auto[i], window)
		}
	}
	for i := range r.extra {
		if r.extra[i].key == key {
			return r.rateOfColLocked(&r.extra[i], window)
		}
	}
	return Rate{Name: name, Labels: labels}, false
}

// HistWindow is the windowed view of a histogram: observations and
// bucket-interpolated quantiles over the window's delta, not all time.
type HistWindow struct {
	Name   string            `json:"name"`
	Labels []telemetry.Label `json:"labels,omitempty"`
	Count  uint64            `json:"count"`
	P50    float64           `json:"p50_nanos"`
	P90    float64           `json:"p90_nanos"`
	P99    float64           `json:"p99_nanos"`
}

func histDelta(newSnap, oldSnap *[telemetry.HistBuckets]uint64, delta []uint64) (total uint64) {
	for i := 0; i < telemetry.HistBuckets; i++ {
		d := int64(newSnap[i]) - int64(oldSnap[i])
		if d < 0 {
			d = 0
		}
		delta[i] = uint64(d)
		total += uint64(d)
	}
	return total
}

// HistWindowSum sums the windowed bucket deltas of every histogram
// series named name (e.g. per-TSP latency samples folded into one
// switch-wide distribution) and returns its quantiles. ok is false when
// no series produced observations in the window.
func (r *Ring) HistWindowSum(name string, window time.Duration) (HistWindow, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	hw := HistWindow{Name: name}
	for i := range r.hists {
		hh := &r.hists[i]
		if hh.name != name {
			continue
		}
		newest, oldest, _, ok := r.windowSpanLocked(window, hh.valid)
		if !ok {
			return hw, false
		}
		delta := make([]uint64, telemetry.HistBuckets)
		total := histDelta(&hh.vals[r.slotBack(newest)], &hh.vals[r.slotBack(oldest)], delta)
		if total == 0 {
			return hw, false
		}
		hw.Count = total
		hw.P50 = telemetry.WindowQuantile(delta, total, 0.5)
		hw.P90 = telemetry.WindowQuantile(delta, total, 0.9)
		hw.P99 = telemetry.WindowQuantile(delta, total, 0.99)
		return hw, true
	}
	return hw, false
}
