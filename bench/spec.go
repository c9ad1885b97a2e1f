package main

import (
	"ipsa/internal/trafficgen"
)

// The benchmark's fixed shape. BENCHMARK.json at the repo root is
// generated from this file (`-manifest`), and bench_test.go fails when
// the two disagree.
const (
	// runSeconds is the measured phase the driver asks for. The issue
	// asked for 30 s; the driver makes 4 + 22 x 4 runs inside 3420 s, so
	// a run (set-up repeats, oracle, warm-up, measurement) has ~35 s.
	runSeconds = 20
	// warmupSeconds run before the first window so pools, TM rings, flow
	// lanes and match snapshots are in steady state.
	warmupSeconds = 1
	// windowMs is the trial every rate and latency metric is computed on.
	// It holds two update cycles of reconfig_storm and about two of the
	// collections its control plane causes (one every ~55 ms), so no
	// window is fast for having missed the program's own periodic work;
	// the closed-loop workloads have none (their runs fail if the hot path
	// allocates). stats.go: quietest says which window a metric reports.
	windowMs = 100

	// stormPPS is reconfig_storm's fixed offered rate. ports_sharded
	// measures ~650 kpps on the 2-core reference box; the open loop
	// offers well under half of that so the switch, not the generator,
	// decides latency, and a stall shows as delay instead of back-pressure.
	stormPPS = 100000
	// stormPeriod is the cadence of in-situ updates in reconfig_storm.
	stormPeriodMs = 50
	// churnOps entries are inserted into, then deleted from, ipv4_host in
	// one churn round. An insert at 4096 entries costs ~0.3 ms (the exact
	// engine republishes its whole snapshot), so a round is ~17 ms.
	churnOps = 32
	// aclEntries populate the freshly loaded ACL table on every update.
	aclEntries = 4

	// closedWindow bounds frames in flight in the closed-loop port
	// workload: deep enough to keep both shards busy, far below every
	// queue's depth so nothing is ever tail-dropped by harness pressure.
	closedWindow = 64
	// slotRing is the frame-identity space of the port workloads: a TCP
	// sequence number names one in-flight frame.
	slotRing = 1 << 14
)

type driverKind int

const (
	driverRTC    driverKind = iota // one goroutine calls ForwardBatch in a closed loop
	driverClosed                   // port to port, fixed window of frames in flight
	driverOpen                     // port to port, fixed offered rate
)

// frameSize is one generator of a workload's size mix.
type frameSize struct {
	payload int // trafficgen.Config.PayloadLen
	weight  int
}

// workloadSpec fixes one workload's design, tables and traffic.
type workloadSpec struct {
	Name string
	Why  string

	scripts []string // in-situ scripts applied on base_l2l3.rp4 during set-up
	useCase string   // experiments.PopulateUseCase key for the scripts' tables
	profile trafficgen.Profile
	v4Base  [4]byte
	flows   int
	sizes   []frameSize
	filler  int // non-matching filler entries per FIB table
	host    int // /32s matching the flows, bulk-loaded into ipv4_host
	lpm     int // extra /24s bulk-loaded into ipv4_lpm
	probe   int // flow_probe entries matching the first flows
	driver  driverKind
	storm   bool // in-situ updates and table churn run during the measured phase
}

var workloads = []workloadSpec{
	{
		Name:    "rtc_small",
		Why:     "run-to-completion ForwardBatch on a cache-resident C1 design: per-packet executor cost and nothing else; table-scale and driver changes must not move it",
		scripts: []string{"ecmp.script"}, useCase: "C1",
		profile: trafficgen.Mixed46, v4Base: [4]byte{10, 2, 0, 0}, flows: 256,
		sizes: []frameSize{{6, 1}}, filler: 8, driver: driverRTC,
	},
	{
		Name:    "rtc_bigtable",
		Why:     "same loop, 8000 flows over 8000-entry FIBs and a full flow_probe: lookups leave the cache, exact snapshots reach the prefetch path, flowstat evicts; set-up is the O(n^2) bulk load",
		scripts: []string{"flowprobe.script"}, useCase: "C3",
		profile: trafficgen.IPv4Routed, v4Base: [4]byte{10, 1, 0, 0}, flows: 8000,
		sizes: []frameSize{{6, 1}}, filler: 8, host: 8000, lpm: 8000, probe: 1024, driver: driverRTC,
	},
	{
		Name:    "ports_sharded",
		Why:     "whole switch port to port over RunSharded(2), closed loop of 64 frames in flight, 64/594/1518 B mix: what drivers, netio and the TM add to rtc_small; no control plane while measuring",
		scripts: []string{"ecmp.script"}, useCase: "C1",
		profile: trafficgen.IPv4Routed, v4Base: [4]byte{10, 2, 0, 0}, flows: 256,
		sizes: []frameSize{{10, 7}, {540, 4}, {1464, 1}}, filler: 8, driver: driverClosed,
	},
	{
		Name:    "reconfig_storm",
		Why:     "the paper's headline: open loop at a fixed 100000 pps while a CCM client compiles, commits and populates an in-situ update every 50 ms and churns a 4096-entry ipv4_host the traffic looks up",
		scripts: []string{"ecmp.script"}, useCase: "C1",
		profile: trafficgen.IPv4Routed, v4Base: [4]byte{10, 2, 0, 0}, flows: 256,
		sizes: []frameSize{{10, 1}}, filler: 8, host: 4096, driver: driverOpen, storm: true,
	},
}

func workloadByName(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricSpec declares one metric. Bound is set on end-to-end metrics
// only. Layer, Moves and On are a per-layer metric's place in the
// ledger, written down before measuring: the package it belongs to, the
// end-to-end metric it should move, and the workload it should move it
// on; the traced run prints them beside the value.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Layer  string
	Moves  string
	On     string
}

// endToEnd is what a user of the switch sees, on every workload (the
// driver wants every end-to-end metric from every workload, never 0).
// The issue listed eleven. Three are exactly 0 when the switch is right
// and are gates that fail the run instead; the three latencies and the
// two control-plane metrics do not repeat within a tenth on the
// reference box and, as the issue prescribes, are kept as diagnostics at
// the end of perLayer instead of being given wider bounds.
//
// heap_mb has the issue's bound. The two that are times have the widest
// the driver allows where the issue gave 8-15%: for minutes at a time the
// host runs the same code 10-40% slower, so over ten seeds even the
// quietest window spreads by up to 10% (README.md has the sweeps), the
// driver wants a bound three times the spread, and demoting fwd_pps too
// would leave no throughput metric at all.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "fwd_pps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "heap_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

var perLayer = []metricSpec{
	{"pkt.admit_ns", "ns", "lower", 0, "pkt", "fwd_pps", "rtc_small"},
	{"pkt.rss_ns", "ns", "lower", 0, "pkt", "fwd_pps", "ports_sharded"},
	{"match.lookup_ns.exact", "ns", "lower", 0, "match/mem", "fwd_pps", "rtc_bigtable"},
	{"match.lookup_ns.lpm", "ns", "lower", 0, "match/mem", "fwd_pps", "rtc_bigtable"},
	{"match.lookup_ns.selector", "ns", "lower", 0, "match/mem", "fwd_pps", "rtc_small"},
	{"match.hit_ratio", "ratio", "higher", 0, "match/mem", "fwd_pps", "rtc_bigtable"},
	{"match.insert_ns", "ns", "lower", 0, "match/mem", "table_ops_per_s, setup_s", "rtc_bigtable"},
	{"match.delete_ns", "ns", "lower", 0, "match/mem", "table_ops_per_s", "rtc_bigtable"},
	{"match.insert_ns_at_4096", "ns", "lower", 0, "match/mem", "table_ops_per_s, update_ms_p50", "reconfig_storm"},
	{"tsp.exec_ns", "ns", "lower", 0, "tsp", "fwd_pps", "rtc_small"},
	{"tsp.stage_count", "count", "lower", 0, "tsp", "fwd_pps", "rtc_small"},
	{"tsp.lookups_per_pkt", "count", "lower", 0, "tsp", "fwd_pps", "rtc_small"},
	{"pipeline.tm_ns", "ns", "lower", 0, "pipeline", "fwd_pps, fwd_lat_p50_us", "ports_sharded"},
	{"pipeline.tm_depth_max", "count", "lower", 0, "pipeline", "fwd_lat_p99_us", "ports_sharded"},
	{"pipeline.tm_tail_drops", "count", "lower", 0, "pipeline", "loss_frac", "ports_sharded"},
	{"pipeline.microbursts", "count", "lower", 0, "pipeline", "fwd_lat_p99_us", "reconfig_storm"},
	{"flowstat.touch_finish_ns", "ns", "lower", 0, "flowstat", "fwd_pps", "rtc_bigtable"},
	{"flowstat.live_flows", "count", "lower", 0, "flowstat", "fwd_pps", "rtc_bigtable"},
	{"flowstat.evictions_per_pkt", "count", "lower", 0, "flowstat", "fwd_pps", "rtc_bigtable"},
	{"telemetry.count_ns", "ns", "lower", 0, "verdict/telemetry", "fwd_pps", "rtc_small"},
	{"telemetry.drop_capture_ns", "ns", "lower", 0, "verdict/telemetry", "fwd_pps", "rtc_small"},
	{"netio.rx_ns", "ns", "lower", 0, "netio", "fwd_pps, fwd_lat_p50_us", "ports_sharded"},
	{"netio.tx_ns", "ns", "lower", 0, "netio", "fwd_pps, fwd_lat_p50_us", "ports_sharded"},
	{"netio.tx_drops", "count", "lower", 0, "netio", "loss_frac", "ports_sharded"},
	{"netio.bytes_per_s", "B/s", "higher", 0, "netio", "fwd_pps", "ports_sharded"},
	{"dataplane.pool_ns", "ns", "lower", 0, "dataplane", "fwd_pps, allocs_per_pkt", "rtc_small"},
	{"ipbm.forward_ns", "ns", "lower", 0, "ipbm", "fwd_pps", "rtc_small"},
	{"ipbm.forward_batch_ns", "ns", "lower", 0, "ipbm", "fwd_pps", "rtc_small"},
	{"ipbm.process_ns", "ns", "lower", 0, "ipbm", "fwd_pps", "rtc_small"},
	{"ipbm.lifecycle_self_ns", "ns", "lower", 0, "ipbm", "fwd_pps", "rtc_small"},
	{"ipbm.driver_overhead_ns", "ns", "lower", 0, "ipbm", "fwd_pps, fwd_lat_p50_us", "ports_sharded"},
	{"ipbm.commit_ms", "ms", "lower", 0, "ipbm", "update_ms_p50, fwd_lat_p99_us", "reconfig_storm"},
	{"ipbm.stages_recompiled", "count", "lower", 0, "ipbm", "update_ms_p50", "reconfig_storm"},
	{"ipbm.stages_reused", "count", "higher", 0, "ipbm", "update_ms_p50", "reconfig_storm"},
	{"ipbm.epochs_retired", "count", "lower", 0, "ipbm", "fwd_lat_p99_us", "reconfig_storm"},
	{"ipbm.epochs_reclaimed", "count", "higher", 0, "ipbm", "heap_mb", "reconfig_storm"},
	{"compiler.parse_ms", "ms", "lower", 0, "compiler/rp4", "setup_s", "reconfig_storm"},
	{"compiler.incr_compile_ms", "ms", "lower", 0, "compiler/rp4", "update_ms_p50", "reconfig_storm"},
	{"ctrlplane.rtt_us", "us", "lower", 0, "ctrlplane", "update_ms_p50, table_ops_per_s", "reconfig_storm"},
	{"ctrlplane.apply_rpc_ms", "ms", "lower", 0, "ctrlplane", "update_ms_p50", "reconfig_storm"},
	{"gen.late_p99_us", "us", "lower", 0, "harness", "validity of fwd_lat_*", "reconfig_storm"},
	{"gen.inject_retries", "count", "lower", 0, "harness", "validity of fwd_lat_*", "reconfig_storm"},
	{"trace.overhead_frac", "ratio", "lower", 0, "harness", "validity of the traced run", "all"},
	{"ledger.residual_frac", "ratio", "lower", 0, "harness", "share of ipbm.forward_ns not itemised", "rtc_small"},
	// The issue's end-to-end metrics that are gates or do not repeat.
	{"loss_frac", "ratio", "lower", 0, "switch", "gate: must be 0", "all"},
	{"allocs_per_pkt", "count", "lower", 0, "switch", "gate: must be 0 with no control plane running", "all"},
	{"update_stall_us", "us", "lower", 0, "switch", "gate: must be 0", "reconfig_storm"},
	{"fwd_lat_p50_us", "us", "lower", 0, "switch", "inject or due time to egress port", "reconfig_storm"},
	{"fwd_lat_p99_us", "us", "lower", 0, "switch", "tail of fwd_lat_p50_us", "reconfig_storm"},
	{"update_ms_p50", "ms", "lower", 0, "switch", "script text in to new table populated", "reconfig_storm"},
	{"update_ms_p90", "ms", "lower", 0, "switch", "tail of update_ms_p50", "reconfig_storm"},
	{"table_ops_per_s", "1/s", "higher", 0, "switch", "bulk load (rtc_bigtable), churn at 4096 entries under lookups (reconfig_storm)", "reconfig_storm"},
	{"updates_done", "count", "higher", 0, "switch", "in-situ updates acked in the run", "reconfig_storm"},
}
