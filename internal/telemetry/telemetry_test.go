package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pkts_total", L("port", "1"))
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	// Get-or-create returns the same handle for the same series.
	if r.Counter("pkts_total", L("port", "1")) != c {
		t.Fatal("same series returned a different handle")
	}
	if r.Counter("pkts_total", L("port", "2")) == c {
		t.Fatal("different labels shared a handle")
	}
	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 {
		t.Fatalf("gauge = %d", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.ObserveNanos(0)    // bucket 0
	h.ObserveNanos(1)    // bucket 1 [1,2)
	h.ObserveNanos(1023) // bucket 10 [512,1024)
	h.ObserveNanos(1024) // bucket 11 [1024,2048)
	h.ObserveNanos(1 << 62)
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	snap := h.Snapshot()
	for i, want := range map[int]uint64{0: 1, 1: 1, 10: 1, 11: 1, HistBuckets - 1: 1} {
		if snap[i] != want {
			t.Errorf("bucket %d = %d, want %d", i, snap[i], want)
		}
	}
	if got := h.SumNanos(); got != 1+1023+1024+(1<<62) {
		t.Errorf("sum = %d", got)
	}
}

func TestSampler(t *testing.T) {
	s := NewSampler(0)
	for i := 0; i < 100; i++ {
		if s.Hit() {
			t.Fatal("disabled sampler fired")
		}
	}
	s.SetInterval(4)
	hits := 0
	for i := 0; i < 100; i++ {
		if s.Hit() {
			hits++
		}
	}
	if hits != 25 {
		t.Fatalf("1-in-4 sampler hit %d/100", hits)
	}
}

func TestGatherAndCollectors(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Add(2)
	r.Gauge("a_gauge").Set(-1)
	r.AddCollector(func(emit func(MetricPoint)) {
		emit(MetricPoint{Name: "c_from_collector", Kind: "gauge", Value: 9})
	})
	pts := r.Gather()
	if len(pts) != 3 {
		t.Fatalf("gathered %d points", len(pts))
	}
	// Sorted by name.
	names := []string{pts[0].Name, pts[1].Name, pts[2].Name}
	if names[0] != "a_gauge" || names[1] != "b_total" || names[2] != "c_from_collector" {
		t.Fatalf("order: %v", names)
	}
}

func TestUnregister(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", L("table", "t1"))
	r.Counter("x_total", L("table", "t2"))
	r.Unregister("x_total", L("table", "t1"))
	pts := r.Gather()
	if len(pts) != 1 || pts[0].Labels[0].Value != "t2" {
		t.Fatalf("after unregister: %+v", pts)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("ipsa_rx_total", L("port", "0")).Add(3)
	r.Counter("ipsa_rx_total", L("port", "1")).Add(5)
	r.Histogram("ipsa_tsp_latency_ns", L("tsp", "0")).ObserveNanos(1500)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE ipsa_rx_total counter",
		`ipsa_rx_total{port="0"} 3`,
		`ipsa_rx_total{port="1"} 5`,
		"# TYPE ipsa_tsp_latency_ns histogram",
		`ipsa_tsp_latency_ns_bucket{tsp="0",le="+Inf"} 1`,
		`ipsa_tsp_latency_ns_count{tsp="0"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// One TYPE line per family even with several series.
	if strings.Count(out, "# TYPE ipsa_rx_total") != 1 {
		t.Errorf("duplicate TYPE lines:\n%s", out)
	}
}

func TestTracerRing(t *testing.T) {
	tr := NewTracer(4, 1) // sample everything
	for i := 0; i < 6; i++ {
		rec := tr.Sample()
		if rec == nil {
			t.Fatal("sample-every-packet returned nil")
		}
		rec.InPort = i
		rec.AddStage(StageEvent{Stage: fmt.Sprintf("s%d", i)})
		tr.Commit(rec)
	}
	if tr.Len() != 4 {
		t.Fatalf("ring holds %d", tr.Len())
	}
	dump := tr.Dump(0)
	if len(dump) != 4 {
		t.Fatalf("dump = %d records", len(dump))
	}
	// Newest first: in-ports 5,4,3,2.
	for i, want := range []int{5, 4, 3, 2} {
		if dump[i].InPort != want {
			t.Fatalf("dump[%d].InPort = %d, want %d", i, dump[i].InPort, want)
		}
	}
	if got := tr.Dump(2); len(got) != 2 || got[0].InPort != 5 {
		t.Fatalf("bounded dump: %+v", got)
	}
	// Disabled tracer never samples.
	tr.SetInterval(0)
	if tr.Sample() != nil {
		t.Fatal("disabled tracer sampled")
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(64, 2)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if rec := tr.Sample(); rec != nil {
					rec.AddStage(StageEvent{Stage: "s"})
					tr.Commit(rec)
				}
			}
		}()
	}
	wg.Wait()
	if tr.Len() != 64 {
		t.Fatalf("ring holds %d", tr.Len())
	}
}

func TestHTTPServe(t *testing.T) {
	r := NewRegistry()
	r.Counter("up_total").Inc()
	tr := NewTracer(8, 1)
	rec := tr.Sample()
	tr.Commit(rec)
	ev := NewEventLog(16)
	ev.Append(Event{Kind: "apply_full", ConfigHash: "abc123"})
	views := NewViews()
	views.Add("traces", func(q Query) any { return tr.Dump(q.Max) })
	views.Add("events", func(q Query) any { return ev.Dump(q.Max) })
	mux := NewServeMux(r)
	views.Register(mux)
	s, err := ServeMux("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "up_total 1") {
		t.Fatalf("scrape: %s", body)
	}
	resp, err = http.Get("http://" + s.Addr() + "/v/traces")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"seq"`) {
		t.Fatalf("traces: %s", body)
	}
	resp, err = http.Get("http://" + s.Addr() + "/v/events?max=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"apply_full"`) || !strings.Contains(string(body), "abc123") {
		t.Fatalf("events: %s", body)
	}
	// pprof is mounted on the same mux.
	resp, err = http.Get("http://" + s.Addr() + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline status %d", resp.StatusCode)
	}
}

// Regression: Unregister followed by re-registering the same series key
// must yield a fresh series — Gather must not resurrect the old points,
// and observations through a stale pre-unregister handle must not leak
// into the new series.
func TestUnregisterReuseNoResurrection(t *testing.T) {
	r := NewRegistry()
	key := []Label{L("tsp", "3")}
	old := r.Histogram("lat_seconds", key...)
	old.ObserveNanos(1000)
	old.ObserveNanos(2000)
	r.Unregister("lat_seconds", key...)
	if pts := r.Gather(); len(pts) != 0 {
		t.Fatalf("after unregister, gather = %+v", pts)
	}

	fresh := r.Histogram("lat_seconds", key...)
	if fresh == old {
		t.Fatal("re-registering returned the unregistered handle")
	}
	old.ObserveNanos(9999) // stale handle writes must stay detached
	pts := r.Gather()
	if len(pts) != 1 {
		t.Fatalf("gather = %d points, want 1", len(pts))
	}
	if pts[0].Count != 0 {
		t.Fatalf("resurrected stale points: count = %d", pts[0].Count)
	}

	// Cycle again and check the export order holds exactly one slot.
	r.Unregister("lat_seconds", key...)
	r.Unregister("lat_seconds", key...) // double-unregister is a no-op
	r.Histogram("lat_seconds", key...).ObserveNanos(500)
	pts = r.Gather()
	if len(pts) != 1 || pts[0].Count != 1 {
		t.Fatalf("after cycle: %+v", pts)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	// 100 observations uniformly inside [1024, 2048): all in one bucket,
	// so the interpolated p50 sits near the bucket middle.
	for i := 0; i < 100; i++ {
		h.ObserveNanos(1024 + int64(i*10))
	}
	p50 := h.Quantile(0.5)
	if p50 < 1024 || p50 >= 2048 {
		t.Fatalf("p50 = %g outside the only occupied bucket", p50)
	}
	// Quantiles are monotone in q.
	if !(h.Quantile(0.9) >= p50 && h.Quantile(0.99) >= h.Quantile(0.9)) {
		t.Fatalf("quantiles not monotone: p50=%g p90=%g p99=%g",
			p50, h.Quantile(0.9), h.Quantile(0.99))
	}
	// Skewed distribution: 99 fast, 1 slow — p50 stays in the fast
	// bucket, p99 must not.
	var h2 Histogram
	for i := 0; i < 99; i++ {
		h2.ObserveNanos(100)
	}
	h2.ObserveNanos(1 << 20)
	if p := h2.Quantile(0.5); p >= 256 {
		t.Fatalf("p50 = %g, want fast-bucket value", p)
	}
	if p := h2.Quantile(0.995); p < 1<<19 {
		t.Fatalf("p99.5 = %g, want slow-bucket value", p)
	}
}

func TestGatherExportsQuantiles(t *testing.T) {
	r := NewRegistry()
	r.Histogram("lat_seconds").ObserveNanos(1500)
	pts := r.Gather()
	if len(pts) != 1 || len(pts[0].Quantiles) != 3 {
		t.Fatalf("quantiles missing: %+v", pts)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"lat_seconds_p50", "lat_seconds_p90", "lat_seconds_p99"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("missing %s in:\n%s", want, b.String())
		}
	}
}

func TestEventLog(t *testing.T) {
	l := NewEventLog(16)
	for i := 0; i < 20; i++ {
		l.Append(Event{Kind: "apply_full", TSPsWritten: i})
	}
	if l.Len() != 16 {
		t.Fatalf("ring holds %d", l.Len())
	}
	dump := l.Dump(0)
	if len(dump) != 16 {
		t.Fatalf("dump = %d", len(dump))
	}
	// Newest first, sequence numbers strictly decreasing.
	if dump[0].Seq != 20 || dump[0].TSPsWritten != 19 {
		t.Fatalf("head = %+v", dump[0])
	}
	for i := 1; i < len(dump); i++ {
		if dump[i].Seq != dump[i-1].Seq-1 {
			t.Fatalf("sequence gap at %d: %+v", i, dump[i])
		}
	}
	if dump[0].TimeNanos == 0 {
		t.Fatal("TimeNanos not stamped")
	}
	if got := l.Dump(3); len(got) != 3 || got[0].Seq != 20 {
		t.Fatalf("bounded dump: %+v", got)
	}
	// Nil log is inert.
	var nilLog *EventLog
	nilLog.Append(Event{})
	if nilLog.Len() != 0 || nilLog.Dump(0) != nil {
		t.Fatal("nil EventLog not inert")
	}
}

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	for i := 0; i < b.N; i++ {
		h.ObserveNanos(int64(i))
	}
}

func BenchmarkSamplerMiss(b *testing.B) {
	s := NewSampler(1 << 20)
	for i := 0; i < b.N; i++ {
		s.Hit()
	}
}
