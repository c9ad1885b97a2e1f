package ipbm

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"ipsa/internal/ctrlplane"
	"ipsa/internal/telemetry"
	"ipsa/internal/testbed"
	"ipsa/internal/verdict"
)

// TestTelemetryEndToEnd drives the full observability path: traffic, an
// in-situ patch, then a Prometheus scrape over HTTP and metrics/trace
// dumps over the control channel. Every packet is traced and
// latency-sampled so the small run observes deterministic telemetry.
func TestTelemetryEndToEnd(t *testing.T) {
	sw, w := newBaseSwitchOpts(t, func(opts *Options) {
		opts.TraceEvery = 1
		opts.LatencyEvery = 1
	})

	// Baseline traffic through the egress port so tx counters move.
	for i := 0; i < 8; i++ {
		sent, err := sw.Forward(v4Packet(t, [4]byte{10, 0, 0, 2}, testbed.RouterMAC, 64), testbed.InPort)
		if err != nil || !sent {
			t.Fatalf("baseline forward %d: err=%v sent=%v", i, err, sent)
		}
	}

	// Per-stage series follow the published program: move nexthop,
	// renamed, onto TSP 5 and forward once more.
	spec := *sw.Config().Stages["nexthop"]
	spec.Name = "nexthop_moved"
	if _, err := sw.Edit([]ctrlplane.EditOp{
		{Kind: "delete_stage", Stage: "nexthop"},
		{Kind: "set_stage", Stage: "nexthop_moved", Spec: &spec, TSP: 5, Position: -1},
	}); err != nil {
		t.Fatal(err)
	}
	if sent, err := sw.Forward(v4Packet(t, [4]byte{10, 0, 0, 2}, testbed.RouterMAC, 64), testbed.InPort); err != nil || !sent {
		t.Fatalf("forward after the move: err=%v sent=%v", err, sent)
	}
	moved := false
	for _, p := range sw.Telemetry().Reg.Gather() {
		stage, tsp := "", ""
		for _, l := range p.Labels {
			switch l.Key {
			case "stage":
				stage = l.Value
			case "tsp":
				tsp = l.Value
			}
		}
		if stage == "nexthop" {
			t.Errorf("series %s still names the deleted stage", p.Name)
		}
		if p.Name == "ipsa_stage_packets_total" && stage == "nexthop_moved" && tsp == "5" && p.Value == 1 {
			moved = true
		}
	}
	if !moved {
		t.Error(`no ipsa_stage_packets_total{stage="nexthop_moved",tsp="5"} 1`)
	}
	tsps := map[int]bool{}
	for _, idx := range sw.Config().TSPAssignment {
		tsps[idx] = true
	}
	if got := sw.Stats().ActiveTSPs; got != len(tsps) {
		t.Errorf("ActiveTSPs = %d, config assigns stages to %d TSPs", got, len(tsps))
	}

	// In-situ patch: insert ECMP at runtime, then keep forwarding.
	rep := testbed.Update(t, w, "ecmp.script")
	st, err := sw.ApplyConfig(rep.Config)
	if err != nil {
		t.Fatal(err)
	}
	if st.Full {
		t.Fatal("patch treated as full install")
	}
	if _, err := sw.InsertEntry(testbed.ECMPMember(testbed.NhMAC.Uint64())); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		p, err := sw.ProcessPacket(v4Packet(t, [4]byte{10, 1, 0, byte(i)}, testbed.RouterMAC, 64), testbed.InPort)
		if err != nil || p.Drop {
			t.Fatalf("post-patch forward %d: err=%v drop=%v", i, err, p.Drop)
		}
	}

	// Control-channel export: metrics and traces over the CCM socket.
	srv := ctrlplane.NewServer(sw, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := ctrlplane.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var points []telemetry.MetricPoint
	if err := cl.View("metrics", telemetry.Query{}, &points); err != nil {
		t.Fatal(err)
	}
	find := func(name string) []telemetry.MetricPoint {
		var out []telemetry.MetricPoint
		for _, p := range points {
			if p.Name == name {
				out = append(out, p)
			}
		}
		return out
	}
	var applies float64
	for _, p := range find("ipsa_config_applies_total") {
		applies += p.Value
	}
	if applies < 2 { // initial full install + the in-situ patch
		t.Errorf("config applies = %v, want >= 2", applies)
	}
	var hits float64
	for _, p := range find("ipsa_table_hits_total") {
		hits += p.Value
	}
	if hits == 0 {
		t.Error("no table hits recorded")
	}
	var latSamples uint64
	for _, p := range find("ipsa_tsp_latency_seconds") {
		latSamples += p.Count
	}
	if latSamples == 0 {
		t.Error("no TSP latency samples recorded")
	}

	var traces []telemetry.TraceRecord
	if err := cl.View("traces", telemetry.Query{Max: 4}, &traces); err != nil {
		t.Fatal(err)
	}
	if len(traces) == 0 {
		t.Fatal("no flight records after patch")
	}
	if len(traces) > 4 {
		t.Fatalf("trace dump ignored max: %d records", len(traces))
	}
	newest := traces[0]
	if newest.Verdict != "forwarded" || newest.InPort != testbed.InPort {
		t.Errorf("newest trace: %+v", newest)
	}
	if len(newest.Stages) == 0 || len(newest.Headers) == 0 {
		t.Fatalf("trace missing journey: stages=%d headers=%d", len(newest.Stages), len(newest.Headers))
	}
	ecmpSeen := false
	for _, ev := range newest.Stages {
		if ev.Table == "ecmp_ipv4" || strings.Contains(ev.Stage, "ecmp") {
			ecmpSeen = true
		}
	}
	if !ecmpSeen {
		t.Errorf("post-patch trace never touched the patched-in stage: %+v", newest.Stages)
	}

	// Per-port stats ride DeviceStats now.
	var dst ctrlplane.DeviceStats
	if err := cl.View("stats", telemetry.Query{}, &dst); err != nil {
		t.Fatal(err)
	}
	if len(dst.Ports) != DefaultOptions().NumPorts {
		t.Fatalf("device stats carry %d ports", len(dst.Ports))
	}
	if dst.Ports[testbed.OutPort].Sent == 0 {
		t.Errorf("egress port sent nothing: %+v", dst.Ports[testbed.OutPort])
	}

	// HTTP scrape: the Prometheus endpoint serves the same registry.
	mux := telemetry.NewServeMux(sw.Telemetry().Reg)
	sw.Views().Register(mux)
	ms, err := telemetry.ServeMux("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	resp, err := http.Get("http://" + ms.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		fmt.Sprintf(`ipsa_port_tx_packets_total{port="%d"}`, testbed.OutPort),
		`ipsa_table_hits_total{table="ipv4_lpm"}`,
		`ipsa_tsp_latency_seconds_bucket{tsp="0",le="+Inf"}`,
		`ipsa_config_applies_total{mode="full"} 1`,
		`ipsa_stage_packets_total`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	tresp, err := http.Get("http://" + ms.Addr() + "/v/traces")
	if err != nil {
		t.Fatal(err)
	}
	tbody, _ := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	if !strings.Contains(string(tbody), `"verdict":"forwarded"`) {
		t.Errorf("trace endpoint: %.200s", tbody)
	}
}

// TestTelemetryDisabledByDefault: with tracing off, forwarding records no
// flight traces and leaves no per-packet residue.
func TestTelemetryDisabledByDefault(t *testing.T) {
	sw, _ := newBaseSwitch(t)
	for i := 0; i < 32; i++ {
		p, err := sw.ProcessPacket(v4Packet(t, [4]byte{10, 0, 0, 2}, testbed.RouterMAC, 64), testbed.InPort)
		if err != nil || p.Drop {
			t.Fatalf("forward: err=%v drop=%v", err, p.Drop)
		}
		if p.Trace != nil {
			t.Fatal("untraced packet kept a flight record")
		}
	}
	if n := sw.Telemetry().Tracer.Len(); n != 0 {
		t.Fatalf("tracer buffered %d records with tracing disabled", n)
	}
}

// TestCounterConservationSharded soaks two shard lanes with a burst and
// checks no packet is unaccounted for: everything the switch accepted has
// exactly one verdict in the ledger, the ports and TMs agree with it, and
// the unroutable packets were dropped by a stage.
func TestCounterConservationSharded(t *testing.T) {
	sw, _ := newBaseSwitchOpts(t, func(opts *Options) {
		opts.QueueDepth = 8
	})
	if err := sw.RunSharded(2, DefaultBatch); err != nil {
		t.Fatal(err)
	}
	defer sw.Shutdown()

	in, err := sw.Ports().Port(testbed.InPort)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sw.Ports().Port(testbed.OutPort)
	if err != nil {
		t.Fatal(err)
	}
	// Keep the egress ring from filling (its tail drops are still
	// accounted, this just keeps the common case flowing).
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				if _, ok := out.Drain(); !ok {
					time.Sleep(100 * time.Microsecond)
				}
			}
		}
	}()
	defer close(done)

	// Burst: routable packets in turns of up to DefaultBatch frames over
	// depth-8 shard TM queues (tail drops likely), plus unroutable ones
	// (stage drops).
	accepted := uint64(0)
	for i := 0; i < 600; i++ {
		dst := [4]byte{10, 1, byte(i >> 4), byte(i)}
		if i%5 == 4 {
			dst = [4]byte{192, 168, 0, byte(i)} // no route installed
		}
		if in.Inject(v4Packet(t, dst, testbed.RouterMAC, 64)) {
			accepted++
		}
	}

	if accepted == 0 {
		t.Fatal("nothing accepted")
	}
	if vs := waitLedger(t, sw, accepted); vs[verdict.Dropped] == 0 {
		t.Errorf("unroutable packets never hit a stage drop (%v)", vs)
	}
}

// waitLedger waits until each of the accepted frames has exactly one
// verdict in the ledger and the counters outside it agree: the ports'
// Sent+TxDrops equals the forwarded verdicts (nothing these tests send is
// punted) and the TMs' tail drops equal tm_drop. It returns the verdict
// totals.
func waitLedger(t *testing.T, sw *Switch, accepted uint64) [verdict.NumVerdicts + 1]uint64 {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		vs := sw.Telemetry().VerdictSnapshot()
		var finished, sent, txDrops uint64
		for _, n := range vs {
			finished += n
		}
		for i := 0; i < sw.Ports().Len(); i++ {
			p, err := sw.Ports().Port(i)
			if err != nil {
				continue
			}
			st := p.DetailedStats()
			sent += st.Sent
			txDrops += st.TxDrops
		}
		_, tailDrops := sw.TMStats()
		if finished == accepted && sent+txDrops == vs[verdict.Forwarded] && tailDrops == vs[verdict.TMDrop] {
			return vs
		}
		if time.Now().After(deadline) {
			t.Fatalf("ledger: %d verdicts for %d accepted frames (%v); ports sent %d + tx drops %d vs forwarded %d; TM tail drops %d vs tm_drop %d",
				finished, accepted, vs, sent, txDrops, vs[verdict.Forwarded], tailDrops, vs[verdict.TMDrop])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestVerdictSnapshotZeroAlloc: the ledger's totals read without
// allocating, so completion polls on timed paths cost nothing but loads.
func TestVerdictSnapshotZeroAlloc(t *testing.T) {
	sw, _ := newBaseSwitch(t)
	if n := testing.AllocsPerRun(100, func() { _ = sw.packetsTotal() }); n != 0 {
		t.Fatalf("VerdictSnapshot allocates %.1f times per read", n)
	}
}
