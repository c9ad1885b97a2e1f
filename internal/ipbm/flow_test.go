package ipbm

import (
	"encoding/json"
	"testing"
	"time"

	"ipsa/internal/ctrlplane"
	"ipsa/internal/flowstat"
	"ipsa/internal/testbed"
)

// The switch is a CCM device.
var _ ctrlplane.Device = (*Switch)(nil)

// TestFlowConservationSharded pins the tentpole's accounting invariant:
// after a sharded soak quiesces and the switch shuts down (flushing
// every live flow into a record), the packet mass carried by flow
// records equals ipsa_packets_total — nothing counted twice, nothing
// lost to evictions, ring hand-off or shutdown.
func TestFlowConservationSharded(t *testing.T) {
	sw, _ := newBaseSwitch(t)
	if err := sw.RunSharded(4, 4); err != nil {
		t.Fatal(err)
	}
	in, _ := sw.Ports().Port(testbed.InPort)
	out, _ := sw.Ports().Port(testbed.OutPort)
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

	accepted := uint64(0)
	for i := 0; i < 800; i++ {
		var frame []byte
		if i%7 == 6 {
			// Unrouted destination: the packet is dropped but its flow is
			// still accounted.
			frame = v4Packet(t, [4]byte{192, 168, 0, byte(i)}, testbed.RouterMAC, 64)
		} else {
			frame = flowPacket(t, uint16(5000+i%32), uint32(i))
		}
		if in.Inject(frame) {
			accepted++
		} else {
			time.Sleep(100 * time.Microsecond)
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for sw.packetsTotal() < accepted {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d packets reached a verdict", sw.packetsTotal(), accepted)
		}
		time.Sleep(time.Millisecond)
	}
	close(done)
	sw.Shutdown() // flushes every live flow into the record stream

	verdicts := sw.packetsTotal()
	if verdicts != accepted {
		t.Fatalf("verdicts %d != accepted %d", verdicts, accepted)
	}
	if got := sw.Flows().RecordPackets(); got != verdicts {
		t.Fatalf("flow records carry %d packets, ipsa_packets_total = %d (conservation violated)",
			got, verdicts)
	}
	// The records describe real flows: at least the 32 routed flows plus
	// the unrouted strays, with tuples attached.
	recs := sw.Flows().Records(0)
	if len(recs) < 32 {
		t.Fatalf("only %d flow records emitted", len(recs))
	}
	tupled := 0
	for _, r := range recs {
		if r.Src != "" {
			tupled++
		}
	}
	if tupled == 0 {
		t.Error("no flow record carries a five-tuple")
	}
}

// TestFlowStateSurvivesReconfig is the reconfig-storm soak: hitless edit
// commits race sharded traffic, and flow accounting must (a) keep its
// conservation invariant and (b) carry live flow state across epochs —
// the tables live beside the program store, not inside it.
func TestFlowStateSurvivesReconfig(t *testing.T) {
	edits := 200
	if testing.Short() {
		edits = 30
	}
	sw, _ := newBaseSwitch(t)
	if err := sw.RunSharded(2, 4); err != nil {
		t.Fatal(err)
	}
	in, _ := sw.Ports().Port(testbed.InPort)
	out, _ := sw.Ports().Port(testbed.OutPort)
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

	// Seed a long-lived flow and note its identity.
	seedAccepted := uint64(0)
	for i := 0; i < 50; i++ {
		if in.Inject(flowPacket(t, 7777, uint32(i+1))) {
			seedAccepted++
		}
	}
	waitFor := func(n uint64) {
		deadline := time.Now().Add(10 * time.Second)
		for sw.packetsTotal() < n {
			if time.Now().After(deadline) {
				t.Fatalf("only %d/%d packets reached a verdict", sw.packetsTotal(), n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitFor(seedAccepted)
	created0 := flowCreated(sw)
	if created0 == 0 {
		t.Fatal("seed flow never entered a flow table")
	}

	// Storm: edit commits while traffic keeps flowing.
	stop := make(chan struct{})
	accepted := make(chan uint64, 1)
	go func() {
		n := seedAccepted
		i := 0
		for {
			select {
			case <-stop:
				accepted <- n
				return
			default:
			}
			if in.Inject(flowPacket(t, uint16(7777+i%8), uint32(1000+i))) {
				n++
			} else {
				time.Sleep(50 * time.Microsecond)
			}
			i++
		}
	}()
	for i := 0; i < edits; i++ {
		op := ctrlplane.EditOp{Kind: "set_table", Table: "flow_scratch", TableSpec: scratchTable("flow_scratch")}
		if i%2 == 1 {
			op = ctrlplane.EditOp{Kind: "delete_table", Table: "flow_scratch"}
		}
		if _, err := sw.Edit([]ctrlplane.EditOp{op}); err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
	}
	close(stop)
	total := <-accepted
	waitFor(total)

	// Continuity: the storm's commits did not reset the accounting — the
	// created counter is monotonic across every epoch publish, and the
	// seed flow's mass is still visible (live or via the sketch).
	if created := flowCreated(sw); created < created0 {
		t.Errorf("flow tables reset across reconfig: created %d -> %d", created0, created)
	}
	hh := sw.Flows().HeavyHitters(0)
	if len(hh) == 0 {
		t.Fatal("no heavy hitters after the storm")
	}
	var seedMass uint64
	for _, h := range hh {
		if h.SrcPort == 7777 {
			seedMass += h.Packets
		}
	}
	if seedMass == 0 {
		t.Error("seed flow's mass vanished across the reconfig storm")
	}

	close(done)
	sw.Shutdown()
	if got, want := sw.Flows().RecordPackets(), sw.packetsTotal(); got != want {
		t.Fatalf("flow records carry %d packets, verdicts = %d (conservation violated under reconfig)",
			got, want)
	}
}

// flowCreated sums the created counter across lanes via the metrics
// collector — the same series ipsa_flow_created_total exports.
func flowCreated(sw *Switch) uint64 {
	for _, p := range sw.Telemetry().Reg.Gather() {
		if p.Name == "ipsa_flow_created_total" {
			return uint64(p.Value)
		}
	}
	return 0
}

// TestFlowCCMRoundTrip drives the control surface end to end in-process:
// the flows, hh and flow_records views through the CCM Handle path, on
// the synchronous runner (lane = ingress port).
func TestFlowCCMRoundTrip(t *testing.T) {
	sw, _ := newBaseSwitch(t)
	for i := 0; i < 10; i++ {
		if _, err := sw.ProcessPacket(v4Packet(t, [4]byte{10, 0, 0, 2}, testbed.RouterMAC, 64), testbed.InPort); err != nil {
			t.Fatal(err)
		}
	}
	srv := ctrlplane.NewServer(sw, nil)

	var flows []flowstat.Record
	handleView(t, srv, &ctrlplane.Request{Op: ctrlplane.OpView, View: "flows"}, &flows)
	if len(flows) != 1 {
		t.Fatalf("flows view: %d flows", len(flows))
	}
	f := flows[0]
	if f.Lane != testbed.InPort || f.Packets != 10 || f.Verdict != "forwarded" || f.Src != "10.0.0.1" {
		t.Fatalf("flows view record: %+v", f)
	}

	var hh []flowstat.HeavyHitter
	handleView(t, srv, &ctrlplane.Request{Op: ctrlplane.OpView, View: "hh", Max: 5}, &hh)
	if len(hh) != 1 || hh[0].Packets != 10 || !hh[0].Live {
		t.Fatalf("hh view: %+v", hh)
	}

	sw.Shutdown() // flush live flows into records
	handleView(t, srv, &ctrlplane.Request{Op: ctrlplane.OpView, View: "flow_records"}, &flows)
	if len(flows) != 1 || flows[0].Reason != "flush" {
		t.Fatalf("flow_records view: %+v", flows)
	}
}

// handleView answers req in-process and decodes the view payload into out.
func handleView(t *testing.T, srv *ctrlplane.Server, req *ctrlplane.Request, out any) {
	t.Helper()
	resp := srv.Handle(req)
	if !resp.OK {
		t.Fatalf("view %s: %s", req.View, resp.Error)
	}
	if err := json.Unmarshal(resp.View, out); err != nil {
		t.Fatalf("view %s: %v", req.View, err)
	}
}

// TestFlowDisable: the opt-out leaves every surface inert but alive.
func TestFlowDisable(t *testing.T) {
	sw, _ := newBaseSwitchOpts(t, func(o *Options) { o.FlowDisable = true })
	if sw.Flows() != nil {
		t.Fatal("FlowDisable still built a flow set")
	}
	if _, err := sw.ProcessPacket(v4Packet(t, [4]byte{10, 0, 0, 2}, testbed.RouterMAC, 64), testbed.InPort); err != nil {
		t.Fatal(err)
	}
	if got := sw.Flows().Dump(0); len(got) != 0 {
		t.Errorf("Dump on disabled accounting = %v", got)
	}
	srv := ctrlplane.NewServer(sw, nil)
	for _, view := range []string{"flows", "flow_records", "hh"} {
		var recs []json.RawMessage
		handleView(t, srv, &ctrlplane.Request{Op: ctrlplane.OpView, View: view}, &recs)
		if len(recs) != 0 {
			t.Errorf("%s view on disabled accounting: %d records", view, len(recs))
		}
	}
	sw.Shutdown()
}

// TestTraceEpochStamp: sampled flight records carry the program-store
// epoch they executed under, across a hitless edit.
func TestTraceEpochStamp(t *testing.T) {
	sw, _ := newBaseSwitchOpts(t, func(o *Options) { o.TraceEvery = 1 })
	if _, err := sw.ProcessPacket(v4Packet(t, [4]byte{10, 0, 0, 2}, testbed.RouterMAC, 64), testbed.InPort); err != nil {
		t.Fatal(err)
	}
	traces := sw.tel.Tracer.Dump(1)
	if len(traces) != 1 || traces[0].Epoch != 1 {
		t.Fatalf("pre-edit trace epoch = %+v, want epoch 1", traces)
	}
	if _, err := sw.Edit([]ctrlplane.EditOp{{Kind: "set_table", Table: "trace_scratch", TableSpec: scratchTable("trace_scratch")}}); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.ProcessPacket(v4Packet(t, [4]byte{10, 0, 0, 2}, testbed.RouterMAC, 64), testbed.InPort); err != nil {
		t.Fatal(err)
	}
	traces = sw.tel.Tracer.Dump(1)
	if len(traces) != 1 || traces[0].Epoch != 2 {
		t.Fatalf("post-edit trace epoch = %d, want 2", traces[0].Epoch)
	}
}

// TestFlowMetricsExported: the ipsa_flow_* series ride the shared
// registry next to everything else the switch exports.
func TestFlowMetricsExported(t *testing.T) {
	sw, _ := newBaseSwitch(t)
	for i := 0; i < 5; i++ {
		if _, err := sw.ProcessPacket(v4Packet(t, [4]byte{10, 0, 0, 2}, testbed.RouterMAC, 64), testbed.InPort); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]bool{
		"ipsa_flow_active_total":   false,
		"ipsa_flow_created_total":  false,
		"ipsa_flow_table_slots":    false,
		"ipsa_flow_sketch_epsilon": false,
		"ipsa_build_info":          false,
		"ipsa_go_goroutines":       false,
	}
	var active, created float64
	for _, p := range sw.Telemetry().Reg.Gather() {
		if _, ok := want[p.Name]; ok {
			want[p.Name] = true
		}
		switch p.Name {
		case "ipsa_flow_active_total":
			active = p.Value
		case "ipsa_flow_created_total":
			created = p.Value
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("series %s missing from scrape", name)
		}
	}
	if active != 1 || created != 1 {
		t.Errorf("active=%v created=%v, want 1/1", active, created)
	}
}

// TestFlowLatencySampled: timed packets contribute latency samples to
// their flow entry.
func TestFlowLatencySampled(t *testing.T) {
	sw, _ := newBaseSwitchOpts(t, func(o *Options) { o.LatencyEvery = 1 })
	for i := 0; i < 4; i++ {
		if _, err := sw.ProcessPacket(v4Packet(t, [4]byte{10, 0, 0, 2}, testbed.RouterMAC, 64), testbed.InPort); err != nil {
			t.Fatal(err)
		}
	}
	recs := sw.Flows().Dump(0)
	if len(recs) != 1 {
		t.Fatalf("flows = %d", len(recs))
	}
	if recs[0].LatSamples == 0 || recs[0].LatAvgNanos <= 0 {
		t.Errorf("no latency sampled: %+v", recs[0])
	}
}
