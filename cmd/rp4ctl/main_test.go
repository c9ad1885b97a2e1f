package main

import (
	"encoding/json"
	"regexp"
	"strings"
	"testing"
	"time"

	"ipsa/internal/ctrlplane"
	"ipsa/internal/flowstat"
	"ipsa/internal/health"
	"ipsa/internal/intmd"
	"ipsa/internal/telemetry"
)

func TestGrepMetrics(t *testing.T) {
	points := []telemetry.MetricPoint{
		{Name: "ipsa_packets_total", Labels: []telemetry.Label{telemetry.L("verdict", "forwarded")}},
		{Name: "ipsa_packets_total", Labels: []telemetry.Label{telemetry.L("verdict", "dropped")}},
		{Name: "ipsa_flow_active_total"},
		{Name: "ipsa_go_goroutines"},
	}
	cases := []struct {
		pattern string
		want    int
	}{
		{"flow", 1},
		{"^ipsa_packets", 2},
		{`verdict="forwarded"`, 1}, // labels are part of the matched identity
		{"ipsa_", 4},
		{"nomatch", 0},
	}
	for _, c := range cases {
		got := grepMetrics(points, regexp.MustCompile(c.pattern))
		if len(got) != c.want {
			t.Errorf("grep %q matched %d series, want %d", c.pattern, len(got), c.want)
		}
	}
}

func TestMetricID(t *testing.T) {
	p := telemetry.MetricPoint{
		Name:   "ipsa_flow_active",
		Labels: []telemetry.Label{telemetry.L("lane", "3")},
	}
	if got := metricID(p); got != `ipsa_flow_active{lane="3"}` {
		t.Errorf("metricID = %q", got)
	}
	if got := metricID(telemetry.MetricPoint{Name: "up"}); got != "up" {
		t.Errorf("metricID = %q", got)
	}
}

func TestTupleString(t *testing.T) {
	if got := tupleString("10.0.0.1", "10.1.0.1", 6, 1234, 80, "x"); got != "tcp 10.0.0.1:1234 -> 10.1.0.1:80" {
		t.Errorf("tupleString = %q", got)
	}
	if got := tupleString("", "", 0, 0, 0, "00ff"); got != "hash:00ff" {
		t.Errorf("non-IP tupleString = %q", got)
	}
	if got := tupleString("2001:db8::1", "2001:db8::2", 58, 0, 0, ""); got != "icmp6 2001:db8::1 -> 2001:db8::2" {
		t.Errorf("portless tupleString = %q", got)
	}
}

func TestRenderHitters(t *testing.T) {
	var b strings.Builder
	renderHitters(&b, []flowstat.HeavyHitter{
		{Hash: "abc", Lane: 1, Src: "10.0.0.1", Dst: "10.1.0.1", Proto: 17,
			SrcPort: 53, DstPort: 53, Packets: 99, ErrBound: 3, Live: true},
	})
	out := b.String()
	for _, want := range []string{"udp 10.0.0.1:53 -> 10.1.0.1:53", "99", "±3", "live"} {
		if !strings.Contains(out, want) {
			t.Errorf("renderHitters output missing %q:\n%s", want, out)
		}
	}
}

// The golden fixtures: one payload per read subcommand, covering every
// branch of its renderer.
var (
	fxTables = []ctrlplane.TableStatus{
		{Name: "ipv4_lpm", Kind: "lpm", KeyWidth: 32, Size: 1024, Entries: 3},
		{Name: "ecmp_ipv4", Kind: "exact", KeyWidth: 32, Size: 64, Entries: 2, Selector: true},
		{Name: "a_table_with_a_long_name", Kind: "ternary", KeyWidth: 104, Size: 4096},
	}
	fxStats = ctrlplane.DeviceStats{
		Processed: 1200, Dropped: 7, ToCPU: 1, ActiveTSPs: 7, StallNanos: 1234567, TemplateLoads: 9,
		Ports: []ctrlplane.PortStats{
			{Port: 0, Sent: 10, Received: 12, RxDrops: 1},
			{Port: 1, Sent: 1190, Received: 1188, TxDrops: 2},
		},
	}
	fxMetrics = []telemetry.MetricPoint{
		{Name: "ipsa_packets_total", Labels: []telemetry.Label{telemetry.L("verdict", "forwarded")}, Kind: "counter", Value: 1190},
		{Name: "ipsa_shard_packets_total", Labels: []telemetry.Label{telemetry.L("shard", "1")}, Kind: "counter", Value: 600},
		{Name: "ipsa_tsp_latency_seconds", Labels: []telemetry.Label{telemetry.L("tsp", "0")}, Kind: "histogram",
			Count: 4, SumNanos: 2500, Quantiles: []telemetry.QuantileValue{{Quantile: 0.5, Nanos: 500}, {Quantile: 0.99, Nanos: 1200}}},
		{Name: "ipsa_shard_packets_total", Labels: []telemetry.Label{telemetry.L("shard", "0")}, Kind: "counter", Value: 590},
		{Name: "ipsa_shard_queue_depth", Labels: []telemetry.Label{telemetry.L("shard", "1")}, Kind: "gauge"},
		{Name: "ipsa_flow_active_total", Kind: "gauge", Value: 2.5},
		{Name: "ipsa_shard_queue_depth", Labels: []telemetry.Label{telemetry.L("shard", "10")}, Kind: "gauge", Value: 3},
		{Name: "ipsa_go_heap_alloc_bytes", Kind: "gauge", Value: 1.5e+07},
	}
	fxTraces = []telemetry.TraceRecord{
		{Seq: 5, InPort: 1, OutPort: 2, Bytes: 64, Verdict: "forwarded", Epoch: 3,
			Headers: []telemetry.TraceHeader{{Name: "ethernet", Off: 0, Len: 14}, {Name: "ipv4", Off: 14, Len: 20}},
			Stages: []telemetry.StageEvent{
				{TSP: 0, Stage: "port_map", Table: "port_map_tbl", Applied: true, Hit: true, Tag: 1, Action: "set_iif"},
				{TSP: 4, Stage: "ipv4_lpm", Table: "ipv4_lpm", Applied: true, Action: "drop", Default: true},
				{TSP: 15, Stage: "dmac"},
			}},
		{Seq: 4, InPort: 1, OutPort: -1, Bytes: 60, Verdict: "parse_error"},
	}
	fxFlows = []flowstat.Record{
		{Lane: 1, Hash: "00ff", Src: "10.0.0.1", Dst: "10.1.0.5", Proto: 6, SrcPort: 1234, DstPort: 80,
			Packets: 10, Bytes: 640, AgeNanos: 1500e6, LatAvgNanos: 2500, LatSamples: 2, Verdict: "forwarded", Reason: "active"},
		{Lane: 0, Hash: "abcd", Packets: 1, Bytes: 60, AgeNanos: 3e6, Verdict: "parse_error", Reason: "active"},
	}
	fxRecords = []flowstat.Record{
		{Seq: 7, Lane: 2, Hash: "0102", Src: "2001:db8::1", Dst: "2001:db8::2", Proto: 58,
			Packets: 3, Bytes: 300, DurationNanos: 2e6, AgeNanos: 4e9, Verdict: "dropped", Reason: "idle"},
		{Seq: 8, Lane: 2, Hash: "0103", Src: "10.0.0.9", Dst: "10.0.0.8", Proto: 17, SrcPort: 53, DstPort: 53,
			Packets: 1, Bytes: 90, Reason: "flush"},
	}
	fxHitters = []flowstat.HeavyHitter{
		{Hash: "abc", Lane: 1, Src: "10.0.0.1", Dst: "10.1.0.1", Proto: 17, SrcPort: 53, DstPort: 53, Packets: 99, ErrBound: 3, Live: true},
		{Hash: "def0", Lane: 0, Packets: 5},
	}
	fxDrops = []telemetry.DropRecord{
		{Seq: 3, Nanos: 1500e6, Reason: "acl", TSP: 2, InPort: 1, OutPort: -1, Epoch: 2, Bytes: 64,
			Hdr: []byte{2, 0, 0, 0, 0, 1, 2, 0, 0, 0, 0, 2, 8, 0, 0x45, 0, 0, 20, 0, 0, 0, 0, 64, 6, 0, 0, 10, 0, 0, 1, 10, 0, 0, 2, 0xff}},
		{Seq: 2, Nanos: 20e6, Reason: "tm", TSP: -1, InPort: 0, OutPort: 3, Bytes: 1500, Hdr: []byte{1, 2, 3}},
	}
	fxReports = []intmd.Report{
		{Seq: 2, InPort: 1, OutPort: 2, Bytes: 64, Hops: []intmd.HopRecord{
			{SwitchID: 1, TSP: 0, StageID: 0x12, Stage: "port_map", LatencyNanos: 243},
			{SwitchID: 1, TSP: 4, StageID: 0xbeef, LatencyNanos: 1200, QDepth: 3},
		}},
	}
	fxEvents = []telemetry.Event{
		{Seq: 3, Kind: "edit_commit", ConfigHash: "abc123", Epoch: 3, TSPsWritten: 2, TablesCreated: 1,
			StagesRecompiled: 1, StagesReused: 6, Hitless: true, Detail: "2 ops"},
		{Seq: 2, Kind: "apply_diff", ConfigHash: "def456", TSPsWritten: 3, TablesDropped: 1, DrainNanos: 1500000, InFlight: 4,
			VerdictDeltas: map[string]uint64{"forwarded": 10}},
		{Seq: 1, Kind: "int_enable", Detail: "no config installed; deferred to next apply"},
	}
	fxHealth = health.Status{
		State: "degraded", Reason: "1/2 lanes stalled", UptimeNanos: 3723e9, WindowNanos: 10e9,
		PPS: 1234.5, DropPPS: 12.25, DropFraction: 0.0099, TMDepth: 3,
		DropCauses: map[string]float64{"no_port": 2.5, "dropped": 9.75},
		Latency:    &health.HistWindow{P50: 450, P90: 900, P99: 1800, Count: 42},
		Lanes: []health.LaneStatus{
			{Name: "shard-0", State: "ok", Heartbeat: 100, RatePPS: 600.5},
			{Name: "shard-1", State: "stalled", Heartbeat: 7, Pending: 8},
		},
		Ops:       []health.OpStatus{{Kind: "apply_diff", ConfigHash: "abc", AgeNanos: 2500e6, Wedged: true}},
		LastEvent: &telemetry.Event{Seq: 9, Kind: "apply_diff", ConfigHash: "abc", Epoch: 4, Hitless: true, Detail: "x"},
	}
)

// TestReadGolden pins what every read subcommand prints: each fixture
// crosses the CCM as JSON and goes through the row of the read table the
// subcommand selects. The expected text is what the per-command
// renderers printed before the view registry replaced them (the one
// change: during_swap deltas now print in sorted order).
func TestReadGolden(t *testing.T) {
	for _, c := range []struct {
		cmd     string
		fixture any
		want    string
	}{
		{"tables", fxTables, `ipv4_lpm             lpm            key=32  b size=1024   entries=3
ecmp_ipv4            exact/selector key=32  b size=64     entries=2
a_table_with_a_long_name ternary        key=104 b size=4096   entries=0
`},
		{"stats", fxStats, `processed=1200 dropped=7 to_cpu=1 active_tsps=7 template_loads=9 stall=1.235ms
port 0   rx=12       tx=10       rx_drops=1      tx_drops=0
port 1   rx=1188     tx=1190     rx_drops=0      tx_drops=2
`},
		{"metrics", fxMetrics, `ipsa_packets_total{verdict="forwarded"} 1190
ipsa_tsp_latency_seconds{tsp="0"} count=4 sum=0.003ms p50=0.001ms p99=0.001ms
ipsa_flow_active_total 2.5
ipsa_go_heap_alloc_bytes 1.5e+07
shard 0:
  ipsa_shard_packets_total{shard="0"} 590
shard 1:
  ipsa_shard_packets_total{shard="1"} 600
  ipsa_shard_queue_depth{shard="1"} 0
shard 10:
  ipsa_shard_queue_depth{shard="10"} 3
`},
		{"metrics -grep shard|flow", fxMetrics, `ipsa_flow_active_total 2.5
shard 0:
  ipsa_shard_packets_total{shard="0"} 590
shard 1:
  ipsa_shard_packets_total{shard="1"} 600
  ipsa_shard_queue_depth{shard="1"} 0
shard 10:
  ipsa_shard_queue_depth{shard="10"} 3
`},
		{"trace 2", fxTraces, `#5 in=1 out=2 bytes=64 verdict=forwarded epoch=3
  hdr ethernet       off=0    len=14
  hdr ipv4           off=14   len=20
  tsp0/port_map table=port_map_tbl hit tag=1 action=set_iif
  tsp4/ipv4_lpm table=ipv4_lpm miss action=drop (default)
  tsp15/dmac
#4 in=1 out=-1 bytes=60 verdict=parse_error
`},
		{"flows", fxFlows, `LANE FLOW                                               PKTS        BYTES        AGE   LATENCY VERDICT   REASON
1    tcp 10.0.0.1:1234 -> 10.1.0.5:80                     10          640       1.5s     2.5us forwarded active
0    hash:abcd                                             1           60        3ms         - parse_error active
`},
		{"flows records 2", fxRecords, `LANE FLOW                                               PKTS        BYTES        AGE   LATENCY VERDICT   REASON
2    icmp6 2001:db8::1 -> 2001:db8::2                      3          300         4s         - dropped   idle
2    udp 10.0.0.9:53 -> 10.0.0.8:53                        1           90         0s         -           flush
`},
		{"hh 5", fxHitters, `LANE FLOW                                             EST_PKTS        ERR STATE
1    udp 10.0.0.1:53 -> 10.1.0.1:53                         99         ±3 live
0    hash:def0                                               5      exact evicted
`},
		{"drops", fxDrops, `SEQ    AGE          REASON      IN    OUT   EPOCH   BYTES  HDR
3      1.5s         acl@tsp2    1     -     2          64  02000000 00010200 00000002 08004500 00140000 00004006 00000a00 00010a00..
2      20ms         tm          0     3     -        1500  010203
`},
		{"int report 1", fxReports, `#2 in=1 out=2 bytes=64 path=port_map>48879
  sw1 tsp0 port_map         latency=0.243us  qdepth=0
  sw1 tsp4 stage#beef       latency=1.200us  qdepth=3
`},
		{"events", fxEvents, `#3 edit_commit cfg=abc123 epoch=3 tsps=2 tables=+1/-0 stages=1+6_reused hitless (2 ops)
#2 apply_diff cfg=def456 tsps=3 tables=+0/-1 drain=1.500ms in_flight=4 during_swap=forwarded+10
#1 int_enable (no config installed; deferred to next apply)
`},
		{"health 10s", fxHealth, `state: DEGRADED  uptime: 1h2m3s       window: 10s
reason: 1/2 lanes stalled
pps: 1234.5       drops/s: 12.2       drop%: 0.99    tm_depth: 3
drop causes: dropped=9.8/s  no_port=2.5/s
tsp latency (sampled): p50=0.450us p90=0.900us p99=1.800us n=42

LANE         STATE       HEARTBEAT    PENDING       RATE/S
shard-0      ok                100          0        600.5
shard-1      STALLED             7          8          0.0

reconfig apply_diff cfg=abc age=2.5s [WEDGED]

last event: #9 apply_diff cfg=abc epoch=4 hitless (x)
`},
	} {
		r, rest, ok := lookupRead(strings.Fields(c.cmd))
		if !ok {
			t.Fatalf("%s: no read row", c.cmd)
		}
		if _, err := r.query(rest); err != nil {
			t.Fatalf("%s: %v", c.cmd, err)
		}
		payload, err := json.Marshal(c.fixture)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := r.render(&b, payload, rest); err != nil {
			t.Fatalf("%s: %v", c.cmd, err)
		}
		if got := b.String(); got != c.want {
			t.Errorf("%s printed:\n%s\nwant:\n%s", c.cmd, got, c.want)
		}
	}
}

// TestReadArgs: each row parses its optional argument into the view
// query, and `show` reads any view with a count or a window.
func TestReadArgs(t *testing.T) {
	for _, c := range []struct {
		cmd  string
		view string
		q    telemetry.Query
		bad  bool
	}{
		{"trace 5", "traces", telemetry.Query{Max: 5}, false},
		{"flows records 3", "flow_records", telemetry.Query{Max: 3}, false},
		{"int report", "int", telemetry.Query{}, false},
		{"health 30s", "health", telemetry.Query{Window: 30 * time.Second}, false},
		{"show rates 2s", "rates", telemetry.Query{Window: 2 * time.Second}, false},
		{"show traces 4", "traces", telemetry.Query{Max: 4}, false},
		{"drops many", "drops", telemetry.Query{}, true},
		{"health soon", "health", telemetry.Query{}, true},
		{"show rates later", "rates", telemetry.Query{}, true},
	} {
		r, rest, ok := lookupRead(strings.Fields(c.cmd))
		if !ok || r.view != c.view {
			t.Fatalf("%s: row %+v, ok=%v", c.cmd, r, ok)
		}
		q, err := r.query(rest)
		if (err != nil) != c.bad || (!c.bad && q != c.q) {
			t.Errorf("%s: query %+v, err %v", c.cmd, q, err)
		}
	}
	if _, _, ok := lookupRead([]string{"ping"}); ok {
		t.Error("ping is not a read")
	}
	var b strings.Builder
	if err := renderMetrics(&b, []byte("[]"), []string{"-grep"}); err != errUsage {
		t.Errorf("metrics -grep without a pattern: %v", err)
	}
	err := renderJSON(&b, []byte(`{"a":[1]}`), nil)
	if out := b.String(); err != nil || out != "{\n  \"a\": [\n    1\n  ]\n}\n" {
		t.Errorf("show printed %q, %v", out, err)
	}
}
