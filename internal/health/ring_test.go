package health

import (
	"reflect"
	"testing"
	"time"

	"ipsa/internal/telemetry"
)

const tick = int64(time.Second)

// TestRingRateCorrectness drives the ring with a synthetic clock and a
// counter advancing a known amount per tick, and checks the windowed
// rate comes out exact.
func TestRingRateCorrectness(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("pkts_total")
	r := NewRing(reg, 16)

	now := int64(1e9)
	for i := 0; i < 10; i++ {
		c.Add(100)
		r.Tick(now)
		now += tick
	}
	rate, ok := r.RateOf("pkts_total", 5*time.Second)
	if !ok {
		t.Fatal("no rate for pkts_total")
	}
	// 5 ticks back inside the window: delta 500 over 5s.
	if rate.PerSec != 100 {
		t.Fatalf("PerSec = %v, want 100", rate.PerSec)
	}
	if rate.Last != 1000 {
		t.Fatalf("Last = %v, want 1000", rate.Last)
	}
	if rate.Delta != 500 {
		t.Fatalf("Delta = %v, want 500", rate.Delta)
	}

	// A wider window than retained history clamps to the oldest sample.
	rate, ok = r.RateOf("pkts_total", time.Hour)
	if !ok || rate.Delta != 900 {
		t.Fatalf("full-window Delta = %v (ok=%v), want 900", rate.Delta, ok)
	}
}

// TestRingWraparound overfills a small ring and checks both the sample
// cap and that rates survive the wrap.
func TestRingWraparound(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("pkts_total")
	r := NewRing(reg, 8)

	now := int64(1e9)
	for i := 0; i < 30; i++ {
		c.Add(10)
		r.Tick(now)
		now += tick
	}
	if got := r.Samples(); got != 8 {
		t.Fatalf("Samples = %d, want 8 (capacity)", got)
	}
	rate, ok := r.RateOf("pkts_total", 4*time.Second)
	if !ok || rate.PerSec != 10 {
		t.Fatalf("post-wrap PerSec = %v (ok=%v), want 10", rate.PerSec, ok)
	}
	// Only capacity-1 intervals of history remain.
	rate, _ = r.RateOf("pkts_total", time.Hour)
	if rate.Delta != 70 {
		t.Fatalf("post-wrap full Delta = %v, want 70", rate.Delta)
	}
}

// TestRingTickZeroAlloc locks in the sampler hot path: once the column
// set is built, a tick over registered counters, gauges, striped
// counters and histograms must not allocate.
func TestRingTickZeroAlloc(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("pkts_total")
	g := reg.Gauge("depth")
	sc := reg.StripedCounter("sharded_total", 4).Cell(1)
	h := reg.Histogram("lat_seconds")
	r := NewRing(reg, 32)
	r.AddColumn(Column{Name: "extra", Kind: "gauge", Read: func() float64 { return 1 }})

	now := int64(1e9)
	r.Tick(now) // prime: builds the column set
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		g.Set(3)
		sc.Inc()
		h.ObserveNanos(1500)
		now += tick
		r.Tick(now)
	})
	if allocs != 0 {
		t.Fatalf("Tick allocates %v per run, want 0", allocs)
	}
}

// TestRingMidStreamSeries registers a series after the ring has been
// ticking and checks it gets tracked with its own (shorter) history.
func TestRingMidStreamSeries(t *testing.T) {
	reg := telemetry.NewRegistry()
	a := reg.Counter("a_total")
	r := NewRing(reg, 16)

	now := int64(1e9)
	for i := 0; i < 5; i++ {
		a.Add(1)
		r.Tick(now)
		now += tick
	}
	b := reg.Counter("b_total") // generation bump → rebuild on next tick
	for i := 0; i < 3; i++ {
		a.Add(1)
		b.Add(2)
		r.Tick(now)
		now += tick
	}
	rb, ok := r.RateOf("b_total", time.Hour)
	if !ok {
		t.Fatal("b_total not tracked after mid-stream registration")
	}
	// b has 3 valid samples: delta across the last two intervals only.
	if rb.Delta != 4 {
		t.Fatalf("b Delta = %v, want 4", rb.Delta)
	}
	ra, _ := r.RateOf("a_total", time.Hour)
	if ra.Delta != 7 {
		t.Fatalf("a Delta = %v, want 7 (history preserved across rebuild)", ra.Delta)
	}
}

// TestRingCounterReset checks the Prometheus-style reset rule: a counter
// that goes backwards reports its new value as the whole delta.
func TestRingCounterReset(t *testing.T) {
	v := 1000.0
	r := NewRing(nil, 8)
	r.AddColumn(Column{Name: "resets_total", Kind: "counter", Read: func() float64 { return v }})

	now := int64(1e9)
	r.Tick(now)
	now += tick
	v = 30 // restarted process
	r.Tick(now)
	rate, ok := r.RateOf("resets_total", time.Hour)
	if !ok || rate.Delta != 30 {
		t.Fatalf("post-reset Delta = %v (ok=%v), want 30", rate.Delta, ok)
	}
}

// TestRingHistFamily: a family of N series, summed into one snapshot per
// tick, gives the HistWindow the per-series computation does (each
// series' windowed bucket deltas, summed); and a series that joins the
// family mid-run, with observations of its own already, restarts the
// family's window, so no retained bucket ever goes backwards and no
// window counts the newcomer's history.
func TestRingHistFamily(t *testing.T) {
	const n, ticks = 16, 40
	reg := telemetry.NewRegistry()
	var hs []*telemetry.Histogram
	for i := 0; i < n; i++ {
		hs = append(hs, reg.Histogram("lat_seconds", telemetry.L("tsp", string(rune('a'+i)))))
	}
	r := NewRing(reg, 32)
	// perSeries keeps each series' own snapshot per tick, the old ring's
	// layout, as the reference.
	perSeries := make([][][telemetry.HistBuckets]uint64, 0, ticks)
	now := int64(1e9)
	for k := 0; k < ticks; k++ {
		for i, h := range hs {
			for j := 0; j <= (i*7+k*3)%11; j++ {
				h.ObserveNanos(int64(1) << uint((i+j+k)%20))
			}
		}
		r.Tick(now)
		now += tick
		snaps := make([][telemetry.HistBuckets]uint64, n)
		for i, h := range hs {
			snaps[i] = h.Snapshot()
		}
		perSeries = append(perSeries, snaps)
	}
	for _, w := range []int{1, 5, 17, 31} {
		got, ok := r.HistWindowSum("lat_seconds", time.Duration(w)*time.Second)
		newest, oldest := perSeries[ticks-1], perSeries[ticks-1-w]
		sum := make([]uint64, telemetry.HistBuckets)
		var total uint64
		for i := 0; i < n; i++ {
			for b := range sum {
				d := newest[i][b] - oldest[i][b]
				sum[b] += d
				total += d
			}
		}
		want := HistWindow{Name: "lat_seconds", Count: total,
			P50: telemetry.WindowQuantile(sum, total, 0.5),
			P90: telemetry.WindowQuantile(sum, total, 0.9),
			P99: telemetry.WindowQuantile(sum, total, 0.99)}
		if !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("%ds window: %+v (ok=%v), per-series %+v", w, got, ok, want)
		}
	}

	// A newcomer with 5000 observations of its own joins the family.
	late := reg.Histogram("lat_seconds", telemetry.L("tsp", "late"))
	for i := 0; i < 5000; i++ {
		late.ObserveNanos(1 << 30)
	}
	for k := 0; k < 4; k++ {
		for _, h := range append(hs, late) {
			h.ObserveNanos(1000)
		}
		r.Tick(now)
		now += tick
		hh := &r.hists[0]
		for back := 1; back < hh.valid; back++ {
			newer, older := &hh.vals[r.slotBack(back-1)], &hh.vals[r.slotBack(back)]
			for b := range newer {
				if newer[b] < older[b] {
					t.Fatalf("tick %d after the join: bucket %d went from %d to %d", k, b, older[b], newer[b])
				}
			}
		}
		got, ok := r.HistWindowSum("lat_seconds", time.Hour)
		switch {
		case k == 0 && ok:
			t.Errorf("window spans the join: %+v", got)
		case k > 0 && (!ok || got.Count != uint64(k*(n+1))):
			t.Errorf("tick %d after the join: %+v (ok=%v), want %d observations of 1µs", k, got, ok, k*(n+1))
		}
	}
}

// TestRingHistWindow checks that histogram quantiles are computed from
// the window's bucket deltas, not the all-time distribution.
func TestRingHistWindow(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("lat_seconds", telemetry.L("tsp", "0"))
	h2 := reg.Histogram("lat_seconds", telemetry.L("tsp", "1"))
	r := NewRing(reg, 16)

	now := int64(1e9)
	// Old observations: slow (1ms) — should not pollute the window.
	for i := 0; i < 1000; i++ {
		h.ObserveNanos(1_000_000)
	}
	r.Tick(now)
	now += tick
	// Windowed observations: fast (1µs), spread over both series.
	for i := 0; i < 500; i++ {
		h.ObserveNanos(1000)
		h2.ObserveNanos(1000)
	}
	r.Tick(now)

	hw, ok := r.HistWindowSum("lat_seconds", time.Second)
	if !ok {
		t.Fatal("no histogram window")
	}
	if hw.Count != 1000 {
		t.Fatalf("window Count = %d, want 1000 (both series summed)", hw.Count)
	}
	if hw.P99 >= 1_000_000 {
		t.Fatalf("P99 = %v includes pre-window observations", hw.P99)
	}
}
