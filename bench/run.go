package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"ipsa/internal/ctrlplane"
	"ipsa/internal/ipbm"
	"ipsa/internal/tsp"
)

// value is one reported metric, with the median, the quartiles and the
// count of the sample it was taken over.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Med   float64 `json:"median,omitempty"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// runResult is one run of one workload, traced or not.
type runResult struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Trace     bool             `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Problems  []string         `json:"problems,omitempty"`
	Metrics   map[string]value `json:"metrics"`
}

func (r *runResult) set(name string, d dist) {
	r.Metrics[name] = value{Value: d.Val, Unit: unitOf(name), Med: d.Med, Q1: d.Q1, Q3: d.Q3, N: d.N}
}

func (r *runResult) setv(name string, v float64) { r.set(name, dist{Val: v, N: 1}) }

func (r *runResult) fail(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func unitOf(name string) string {
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}

// runOpts is one invocation's shape. The smoke test shrinks the
// windows and the tables; the driver and a plain run use the defaults.
type runOpts struct {
	w       workloadSpec
	seed    int64
	measure time.Duration // measured phase of the untraced run
	warm    time.Duration
	window  time.Duration
	// setupBudget bounds how long set-up is repeated for a steady
	// setup_s median (at least three repeats whatever they cost).
	setupBudget time.Duration
	// fill is the size the standalone exact engine is held at for
	// match.insert_ns_at_4096 (the smoke test shrinks it).
	fill int
}

func defaultOpts(w workloadSpec, seed int64, seconds int) runOpts {
	return runOpts{w: w, seed: seed, measure: time.Duration(seconds) * time.Second,
		warm: warmupSeconds * time.Second, window: windowMs * time.Millisecond,
		setupBudget: 1500 * time.Millisecond, fill: 4096}
}

// counters is what the switch itself says happened to frames.
type counters struct {
	finished  uint64 // ipsa_packets_total over every verdict
	drops     uint64 // ipsa_drop_total over every reason (tx_fail included)
	tmDrops   uint64
	txDrops   uint64
	evictions uint64
	bursts    uint64
	watermark float64
	stall     time.Duration
}

func readCounters(sw *ipbm.Switch) counters {
	var c counters
	for _, pt := range sw.Telemetry().Reg.Gather() {
		switch pt.Name {
		case "ipsa_packets_total":
			c.finished += uint64(pt.Value)
		case "ipsa_drop_total":
			c.drops += uint64(pt.Value)
		case "ipsa_flow_evictions_total":
			c.evictions += uint64(pt.Value)
		case "ipsa_tm_microburst_total":
			c.bursts += uint64(pt.Value)
		case "ipsa_tm_watermark":
			c.watermark = math.Max(c.watermark, pt.Value)
		}
	}
	_, c.tmDrops = sw.TMStats()
	for i := 0; i < sw.Ports().Len(); i++ {
		if p, err := sw.Ports().Port(i); err == nil {
			c.txDrops += p.DetailedStats().TxDrops
		}
	}
	c.stall = sw.Pipeline().StallTime()
	return c
}

// conserve holds the packet-conservation invariant over one phase and
// fails the run, not just reports, when it does not hold: every frame
// handed to the switch left it with the oracle's bytes, and the switch's
// own counters agree that it finished that many and dropped none.
func (r *runResult) conserve(p *phase, before, after counters) {
	r.Attempted += p.injected
	r.Failed += p.injected - p.good
	if p.bad > 0 {
		r.fail("%d frames left the switch with wrong bytes, at a wrong port, or twice", p.bad)
	}
	drops := after.drops - before.drops
	if p.injected != p.good+p.bad+drops {
		r.fail("conservation: injected %d != delivered %d + attributed drops %d", p.injected, p.good+p.bad, drops)
	}
	if drops > 0 || after.tmDrops != before.tmDrops || after.txDrops != before.txDrops {
		r.fail("the switch dropped frames: ipsa_drop_total +%d, TM tail drops +%d, port tx drops +%d",
			drops, after.tmDrops-before.tmDrops, after.txDrops-before.txDrops)
	}
	if got := after.finished - before.finished; got != p.injected {
		r.fail("conservation: ipsa_packets_total advanced by %d for %d frames", got, p.injected)
	}
	if after.stall != before.stall {
		r.fail("pipeline stalled for %v: reconfiguration was not hitless", after.stall-before.stall)
	}
}

// traffic phases ----------------------------------------------------------

// driver runs a workload's traffic phases on one bed.
type driver struct {
	b    *bed
	rtc  *rtcRun
	port *portRun
}

// startDriver readies the workload's driver; root is the span its
// sampled calls hang under on a traced phase.
func startDriver(b *bed, e *egress, shards int, window time.Duration, root int32) (*driver, error) {
	d := &driver{b: b}
	if b.w.driver == driverRTC {
		d.rtc = newRTCRun(b, e, window, root)
		return d, nil
	}
	if err := b.sw.RunSharded(shards, ipbm.DefaultBatch); err != nil {
		return nil, err
	}
	var err error
	d.port, err = newPortRun(b, e, window, root)
	return d, err
}

// run drives one phase of dur; tc, when set, samples spans from it.
func (d *driver) run(dur time.Duration, tc *tracer) (*phase, error) {
	if d.rtc != nil {
		d.rtc.tc = tc
		return d.rtc.run(dur)
	}
	d.port.tc = tc
	pps := 0
	if d.b.w.driver == driverOpen {
		pps = stormPPS
	}
	return d.port.run(dur, pps)
}

// measured runs one phase with, on the storm workload, the control
// plane updating the switch beside it.
func (d *driver) measured(ctl *controller, dur time.Duration, tc *tracer) (*phase, error) {
	if !d.b.w.storm {
		return d.run(dur, tc)
	}
	stop := make(chan struct{})
	stormErr := make(chan error, 1)
	go func() { stormErr <- ctl.storm(stop) }()
	p, err := d.run(dur, tc)
	close(stop)
	if serr := <-stormErr; err == nil {
		err = serr
	}
	return p, err
}

// the untraced run ---------------------------------------------------------

// runUntraced measures the end-to-end metrics of one workload.
func runUntraced(o runOpts) (*runResult, error) {
	res := &runResult{Workload: o.w.Name, Seed: o.seed, Correct: true, Metrics: map[string]value{}}
	tr, err := newTraffic(&o.w, o.seed)
	if err != nil {
		return nil, err
	}

	// Set-up, repeated; the last bed is the one measured.
	var b *bed
	var setups []float64
	for spent := time.Duration(0); len(setups) < 3 || (spent < o.setupBudget && len(setups) < 100); {
		if b != nil {
			b.close()
		}
		runtime.GC()
		if b, err = newBed(&o.w, tsp.ExecFused, nil); err != nil {
			return nil, err
		}
		spent += b.setup
		setups = append(setups, b.setup.Seconds())
	}
	defer b.close()
	res.set("setup_s", quietest(setups, false))

	used, err := oracleCheck(b, tr)
	if err != nil {
		return nil, err
	}
	e, err := newEgress(b.sw, tr, used)
	if err != nil {
		return nil, err
	}
	ctl, err := newController(b, nil, nil)
	if err != nil {
		return nil, err
	}
	d, err := startDriver(b, e, 2, o.window, 0)
	if err != nil {
		return nil, err
	}
	if _, err := d.run(o.warm, nil); err != nil {
		return nil, err
	}
	before := readCounters(b.sw)
	p, err := d.measured(ctl, o.measure, nil)
	if err != nil {
		return nil, err
	}
	res.conserve(p, before, readCounters(b.sw))

	pps, _ := o.traffic(p)
	res.set("fwd_pps", pps)
	allocs := float64(p.mallocs) / float64(p.injected)
	if !o.w.storm && allocs >= 0.01 {
		res.fail("allocs_per_pkt = %.4f with no control plane running: the hot path allocates", allocs)
	}
	if o.w.storm && ctl.updates < int(o.measure/(stormPeriodMs*time.Millisecond))*8/10 {
		res.fail("only %d in-situ updates completed in %v at a %d ms cadence", ctl.updates, o.measure, stormPeriodMs)
	}
	res.setv("heap_mb", heapMB())
	return res, nil
}

// longWindow is how many windows make up the 1 s window whose median
// and quartiles are printed beside every windowed value.
const longWindow = 1000 / windowMs

// traffic is fwd_pps and fwd_lat_p50_us of one phase, each in its
// quietest window: the highest rate, the lowest p50. An open loop's
// windows are pinned at the offered rate, bar the catch-up after a stall
// (which is what its quietest window would be), so its fwd_pps is every
// frame over the whole phase, the landing of the last ones included:
// below the offered rate by as much as the switch fell behind. The median
// and quartiles over the phase's 1 s windows, what the issue asked for
// and what the metrics read with the neighbours' share of the run left
// in, ride along.
func (o runOpts) traffic(p *phase) (pps, p50 dist) {
	w, long := p.stats(1), p.stats(longWindow)
	pps, p50 = summarize(long.pps), summarize(long.p50)
	pps.Val = quietest(w.pps, true).Val
	if o.w.driver == driverOpen {
		pps.Val = float64(p.good+p.bad) / p.elapsed.Seconds()
	}
	p50.Val = quietest(w.p50, false).Val
	return
}

// outDir is bench/out in the checkout: trace files and the default
// result file go there.
func outDir() (string, error) {
	root, err := repoRoot()
	return filepath.Join(root, "bench", "out"), err
}

// heapMB is the live heap after a forced collection (twice, so pooled
// objects that survived one cycle in a victim cache are gone too).
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// the traced run -----------------------------------------------------------

// runTraced produces the per-layer numbers of one workload: layer
// probes on the quiet switch, then a traffic phase run once without and
// once with spans (their difference is the tracing overhead), with the
// CCM-side calls timed by a decorator around the switch.
func runTraced(o runOpts) (*runResult, error) {
	res := &runResult{Workload: o.w.Name, Seed: o.seed, Trace: true, Correct: true, Metrics: map[string]value{}}
	tr, err := newTraffic(&o.w, o.seed)
	if err != nil {
		return nil, err
	}
	tc := newTracer()
	t0 := time.Now()
	root := tc.id()
	dev := &timedDevice{tr: tc}
	b, err := newBed(&o.w, tsp.ExecFused, func(sw *ipbm.Switch) ctrlplane.Device {
		dev.Switch = sw
		return dev
	})
	if err != nil {
		return nil, err
	}
	defer b.close()
	tc.add(root, root, "setup", "harness", t0, time.Now(), 1)
	if b.bulkOps > 0 && !o.w.storm {
		res.setv("table_ops_per_s", b.bulkOps) // the bulk load into the growing table
	}

	t1 := time.Now()
	used, err := oracleCheck(b, tr)
	if err != nil {
		return nil, err
	}
	tc.add(root, root, "oracle_check", "harness", t1, time.Now(), 1024)
	e, err := newEgress(b.sw, tr, used)
	if err != nil {
		return nil, err
	}

	t2 := time.Now()
	probes := tc.id()
	pr := &prober{tc: tc, root: probes, out: map[string]dist{}}
	if err := layerProbes(pr, b, tr, e, o.fill); err != nil {
		return nil, err
	}
	tc.put(probes, root, probes, "layer_probes", "harness", t2, time.Now(), len(pr.out))
	for name, d := range pr.out {
		res.set(name, d)
	}

	ctl, err := newController(b, tc, dev)
	if err != nil {
		return nil, err
	}

	// Traffic: a third of the run untraced, half of it traced.
	traffic := tc.id()
	t3 := time.Now()
	d, err := startDriver(b, e, 2, o.window, traffic)
	if err != nil {
		return nil, err
	}
	if _, err := d.run(o.warm/2, nil); err != nil {
		return nil, err
	}
	plain, err := d.measured(ctl, o.measure*3/10, nil)
	if err != nil {
		return nil, err
	}
	lookupsBefore, hitsBefore := tableCounts(b)
	before := readCounters(b.sw)
	p, err := d.measured(ctl, o.measure/2, tc)
	if err != nil {
		return nil, err
	}
	after := readCounters(b.sw)
	lookupsAfter, hitsAfter := tableCounts(b)
	tc.put(traffic, root, traffic, "traffic", "harness", t3, time.Now(), int(p.injected))
	res.conserve(p, before, after)

	plainPPS, _ := o.traffic(plain)
	tracedPPS, p50 := o.traffic(p)
	res.setv("trace.overhead_frac", 1-tracedPPS.Val/plainPPS.Val)
	res.set("fwd_lat_p50_us", p50)
	res.set("fwd_lat_p99_us", summarize(p.stats(longWindow).p99))
	res.setv("loss_frac", float64(p.injected-p.good)/float64(p.injected))
	res.setv("allocs_per_pkt", float64(p.mallocs)/float64(p.injected))
	res.setv("update_stall_us", float64((after.stall - before.stall).Microseconds()))
	res.setv("gen.inject_retries", float64(p.retries))
	if p.late.n > 0 {
		res.set("gen.late_p99_us", dist{Val: p.late.quantile(0.99) / 1e3, N: int(p.late.n)})
	}
	res.setv("netio.tx_drops", float64(after.txDrops-before.txDrops))
	res.setv("netio.bytes_per_s", float64(p.bytes)/p.elapsed.Seconds())
	res.setv("pipeline.tm_depth_max", after.watermark)
	res.setv("pipeline.tm_tail_drops", float64(after.tmDrops-before.tmDrops))
	res.setv("pipeline.microbursts", float64(after.bursts-before.bursts))
	res.setv("flowstat.live_flows", float64(b.sw.Flows().ActiveFlows()))
	res.setv("flowstat.evictions_per_pkt", float64(after.evictions-before.evictions)/float64(p.injected))
	var lookups uint64
	for kind, n := range lookupsAfter {
		lookups += n - lookupsBefore[kind]
	}
	if lookups > 0 {
		res.setv("match.hit_ratio", float64(hitsAfter-hitsBefore)/float64(lookups))
	}

	// The control plane, as the CCM client and the decorated switch saw
	// it, on the workload that runs one.
	if o.w.storm {
		res.setv("updates_done", float64(ctl.updates))
		res.set("update_ms_p50", summarize(ctl.updateMs))
		res.set("update_ms_p90", describe(sortedCopy(ctl.updateMs), 0.9))
		res.set("table_ops_per_s", summarize(ctl.churnRate))
		res.set("compiler.incr_compile_ms", summarize(ctl.compileMs))
		commit := summarize(dev.commitMs)
		res.set("ipbm.commit_ms", commit)
		res.set("ctrlplane.apply_rpc_ms", dist{Val: median(ctl.rpcMs) - commit.Val, N: len(ctl.rpcMs)})
		if st := ctl.lastApply; st != nil {
			res.setv("ipbm.stages_recompiled", float64(st.StagesRecompiled))
			res.setv("ipbm.stages_reused", float64(st.StagesReused))
		}
	}
	_, retired, reclaimed := b.sw.EpochStats()
	res.setv("ipbm.epochs_retired", float64(retired))
	res.setv("ipbm.epochs_reclaimed", float64(reclaimed))

	// Driver overhead: what a frame costs through the driver beyond
	// ForwardBatch itself (the harness's own copy and verify included).
	// The run-to-completion loop is one goroutine already; the port
	// workloads get a second, identically set up switch run closed-loop
	// at one shard on one P.
	onePPS := plainPPS.Val
	if o.w.driver != driverRTC {
		if onePPS, err = oneShardPPS(o, tr, used); err != nil {
			return nil, err
		}
	}
	res.setv("ipbm.driver_overhead_ns", 1e9/onePPS-pr.out["ipbm.forward_batch_ns"].Val)

	tc.put(root, 0, root, "run."+o.w.Name, "harness", t0, time.Now(), 1)
	out, err := outDir()
	if err != nil {
		return nil, err
	}
	if _, err := tc.write(out, o.w.Name, o.seed); err != nil {
		return nil, err
	}
	return res, nil
}

func oneShardPPS(o runOpts, tr *traffic, used []int) (float64, error) {
	// One P serialises harness, reader and worker, so 1e9/pps is the CPU
	// time one frame takes through all of them.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	w := o.w
	w.driver, w.storm = driverClosed, false
	b, err := newBed(&w, tsp.ExecFused, nil)
	if err != nil {
		return 0, err
	}
	defer b.close()
	e, err := newEgress(b.sw, tr, used)
	if err != nil {
		return 0, err
	}
	d, err := startDriver(b, e, 1, o.window, 0)
	if err != nil {
		return 0, err
	}
	if _, err := d.run(o.warm/2, nil); err != nil {
		return 0, err
	}
	p, err := d.run(o.measure*2/10, nil)
	if err != nil {
		return 0, err
	}
	return quietest(p.stats(1).pps, true).Val, nil
}
