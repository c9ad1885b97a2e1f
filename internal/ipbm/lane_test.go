package ipbm

import (
	"fmt"
	"testing"
	"time"

	"ipsa/internal/ctrlplane"
	"ipsa/internal/pkt"
	"ipsa/internal/testbed"
	"ipsa/internal/tsp"
	"ipsa/internal/verdict"
)

// lane_test.go holds the two tests of the lifecycle as a whole: every
// driver gives one trace the same verdicts (TestLifecycleParity), and
// every driver gives every accepted frame a verdict across Shutdown
// (TestShutdownConservation).

// paritySwitch builds a switch whose program exercises every verdict:
// the base L2/L3 design plus the flow probe (to_cpu) and the ACL, a
// poisoned ACL flow (acl drop), a route chain to a nonexistent port
// (no_port), a probed flow that punts from its first packet, depth-4 TM
// queues (tm_drop) and 32-frame egress rings (NumPorts × QueueDepth:
// tx_fail), INT stamping and sinking on.
func paritySwitch(t *testing.T, exec tsp.ExecMode) *Switch {
	t.Helper()
	sw, w := newBaseSwitchOpts(t, func(opts *Options) {
		opts.QueueDepth = 4
		opts.Exec = exec
	})
	for _, name := range []string{"flowprobe.script", "acl.script"} {
		rep := testbed.Update(t, w, name)
		if _, err := sw.ApplyConfig(rep.Config); err != nil {
			t.Fatal(err)
		}
	}
	poisonMAC := pkt.MAC{0x02, 0, 0, 0, 0, 0x99}
	for _, req := range []ctrlplane.EntryReq{
		// Probe 10.0.0.1 -> 10.0.0.2 with threshold 0: every packet punts.
		{Table: "flow_probe", Keys: []ctrlplane.FieldValue{{Value: 0x0A000001}, {Value: 0x0A000002}},
			Tag: 1, Params: []uint64{42, 0}},
		// ACL: drop 10.0.0.1 -> 10.1.7.7, any protocol.
		{Table: "acl_tbl", Keys: []ctrlplane.FieldValue{{Value: 0x0A000001}, {Value: 0x0A010707},
			{Value: 0, Mask: &ctrlplane.FieldMask{Value: 0}}}, Priority: 10, Tag: 1},
		// 10.2.0.9 resolves through nexthop 9 to port 99 of 8.
		{Table: "ipv4_host", Keys: []ctrlplane.FieldValue{{Value: testbed.VrfID}, {Value: 0x0A020009}},
			Tag: 1, Params: []uint64{9}},
		{Table: "nexthop_tbl", Keys: []ctrlplane.FieldValue{{Value: 9}},
			Tag: 1, Params: []uint64{testbed.BridgeOut, poisonMAC.Uint64()}},
		{Table: "dmac_tbl", Keys: []ctrlplane.FieldValue{{Value: testbed.BridgeOut}, {Value: poisonMAC.Uint64()}},
			Tag: 1, Params: []uint64{99}},
	} {
		insert(t, sw, req)
	}
	if err := sw.SetInt(true); err != nil {
		t.Fatal(err)
	}
	return sw
}

// parityGroup is one step of the fixed trace. Frames of a group go in
// together and have their verdicts before the next group starts; no
// group but the congested one is larger than a depth-4 TM queue.
type parityGroup struct {
	name   string
	frames [][]byte
	// congested asks a shard driver to keep its TM full while the group's
	// last six frames cross it; the inline drivers forward them all.
	congested bool
	// undrained leaves what the group transmitted in the egress rings.
	undrained bool
}

func parityTrace(t *testing.T) []parityGroup {
	routable := func(n int, last byte) [][]byte {
		var out [][]byte
		for i := 0; i < n; i++ {
			out = append(out, v4Packet(t, [4]byte{10, 1, byte(i), last}, testbed.RouterMAC, 64))
		}
		return out
	}
	repeat := func(n int, dst [4]byte) [][]byte {
		var out [][]byte
		for i := 0; i < n; i++ {
			out = append(out, v4Packet(t, dst, testbed.RouterMAC, 64))
		}
		return out
	}
	truncated := repeat(2, [4]byte{10, 1, 0, 1})
	for i := range truncated {
		truncated[i] = truncated[i][:10] // mid-Ethernet: cannot carry the root header
	}
	groups := []parityGroup{
		{name: "forwarded", frames: routable(3, 1)},
		{name: "acl", frames: repeat(2, [4]byte{10, 1, 7, 7})},
		{name: "parse_error", frames: truncated},
		{name: "no_port", frames: repeat(2, [4]byte{10, 2, 0, 9})},
		{name: "to_cpu", frames: repeat(2, [4]byte{10, 0, 0, 2})},
		// One flow, so RunSharded steers the whole burst to one shard TM.
		{name: "tm_drop", frames: repeat(10, [4]byte{10, 1, 200, 1}), congested: true},
	}
	// 34 forwarded frames, three at a time, against a 32-frame egress
	// ring nobody drains.
	fill := routable(31, 2)
	for i := 0; i < len(fill); i += 3 {
		groups = append(groups, parityGroup{name: "tx_fill", frames: fill[i:min(i+3, len(fill))], undrained: true})
	}
	return append(groups, parityGroup{name: "tx_fail", frames: routable(3, 3)})
}

const (
	parityTMDrops = 6 // of the congested group's 10 frames
	parityTxFails = 2 // of the 34 frames of tx_fill and tx_fail
)

// ledger is everything the parity test compares between drivers.
type ledger struct {
	verdicts    map[string]uint64 // ipsa_packets_total by verdict
	drops       map[string]uint64 // ipsa_drop_total by reason/stage
	flowPackets uint64            // packets carried by flow records after Shutdown
	punted      uint64
	egFrames    int
	egBytes     int
}

// readLedger snapshots sw's side of the ledger; call after Shutdown so
// every live flow has been exported as a record.
func readLedger(sw *Switch) ledger {
	l := ledger{verdicts: map[string]uint64{}, drops: map[string]uint64{},
		flowPackets: sw.Flows().RecordPackets(), punted: sw.punted.Load()}
	for v, n := range sw.Telemetry().VerdictSnapshot() {
		if n > 0 {
			l.verdicts[verdict.Verdict(v).String()] = n
		}
	}
	for _, p := range sw.Telemetry().Reg.Gather() {
		if p.Name != "ipsa_drop_total" || p.Value == 0 {
			continue
		}
		var reason, stage string
		for _, lb := range p.Labels {
			switch lb.Key {
			case "reason":
				reason = lb.Value
			case "stage":
				stage = lb.Value
			}
		}
		l.drops[reason+"/"+stage] += uint64(p.Value)
	}
	return l
}

// drainPorts empties every egress ring into the ledger.
func (l *ledger) drainPorts(sw *Switch) {
	for i := 0; i < sw.Ports().Len(); i++ {
		p, _ := sw.Ports().Port(i)
		for {
			d, ok := p.Drain()
			if !ok {
				break
			}
			l.egFrames++
			l.egBytes += len(d)
		}
	}
}

func (l ledger) String() string {
	return fmt.Sprintf("verdicts=%v drops=%v flow_packets=%d punted=%d egress=%d frames/%d bytes",
		l.verdicts, l.drops, l.flowPackets, l.punted, l.egFrames, l.egBytes)
}

// portsSent totals the frames every egress port took.
func portsSent(sw *Switch) uint64 {
	var sent uint64
	for i := 0; i < sw.Ports().Len(); i++ {
		p, _ := sw.Ports().Port(i)
		sent += p.DetailedStats().Sent
	}
	return sent
}

// settle waits until n frames have a verdict and every transmitted one
// has reached its egress port or been counted tx_fail: a lane counts
// verdicts in finish, before flushTx hands the frames to the egress rings.
// A punted frame is transmitted too, and every one the callers produce has
// an egress port, so the frames due at the ports are the forwarded and
// to_cpu verdicts.
func settle(t *testing.T, sw *Switch, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		// Verdicts first: once all n are in, due cannot grow.
		done := sw.packetsTotal() >= uint64(n)
		due := sw.tel.packets[verdict.Forwarded].Value() + sw.tel.packets[verdict.ToCPU].Value()
		left := portsSent(sw) + sw.tel.drops[verdict.ReasonTxFail].Value()
		if done && due == left {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d frames reached a verdict; %d due at the ports, %d left", sw.packetsTotal(), n, due, left)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// parityDriver is one way of getting frames through the switch.
type parityDriver struct {
	name string
	// start launches the forwarding goroutines, if the driver has any.
	start func(t *testing.T, sw *Switch)
	// send pushes frames in at testbed.InPort. Admission errors come back.
	send func(sw *Switch, frames [][]byte) error
	// congest, for a driver whose lanes park packets in a TM, sends the
	// ten frames of the congested group so that the TM takes four and
	// refuses six. Nil: the driver runs them to completion, all forwarded.
	congest func(t *testing.T, sw *Switch, d *parityDriver, frames [][]byte)
}

func injectAll(sw *Switch, frames [][]byte) error {
	in, _ := sw.Ports().Port(testbed.InPort)
	for _, f := range frames {
		if !in.Inject(f) {
			return fmt.Errorf("ingress ring refused a frame")
		}
	}
	return nil
}

// congestShards is the recipe for shard lanes, which park a turn's
// packets in their own TM before draining it: hold the workers, let the
// whole burst reach their rings, release, so one turn takes all ten.
func congestShards(t *testing.T, sw *Switch, d *parityDriver, frames [][]byte) {
	var release []func()
	for _, l := range sw.shardsP.Load().shards {
		release = append(release, l.block())
	}
	if err := d.send(sw, frames); err != nil {
		t.Fatal(err)
	}
	for _, r := range release {
		r()
	}
}

func parityDrivers() []parityDriver {
	sharded := func(n int) parityDriver {
		return parityDriver{
			name: fmt.Sprintf("RunSharded(%d)", n),
			start: func(t *testing.T, sw *Switch) {
				if err := sw.RunSharded(n, DefaultBatch); err != nil {
					t.Fatal(err)
				}
			},
			send:    injectAll,
			congest: congestShards,
		}
	}
	return []parityDriver{
		{
			name: "Forward",
			send: func(sw *Switch, frames [][]byte) error {
				var first error
				for _, f := range frames {
					if _, err := sw.Forward(f, testbed.InPort); err != nil && first == nil {
						first = err
					}
				}
				return first
			},
		},
		{
			name: "ForwardBatch",
			send: func(sw *Switch, frames [][]byte) error {
				_, err := sw.ForwardBatch(frames, testbed.InPort)
				return err
			},
		},
		sharded(1),
		sharded(2),
	}
}

func cloneFrames(frames [][]byte) [][]byte {
	out := make([][]byte, len(frames))
	for i, f := range frames {
		out[i] = append([]byte(nil), f...)
	}
	return out
}

// TestLifecycleParity pushes one fixed mixed trace — forwarded, ACL drop,
// parse error, TM tail drop, route to a nonexistent port, to-CPU punt,
// tx_fail on a full egress ring, INT sink on — through every driver and
// requires the same ledger from each: verdict counters, per-reason×stage
// drop counters, flow-record packet totals, punt count and egress
// frames/bytes, all equal to what the reference interpreter produces for
// the same frames (with the egress-ring refusals, which only a driver can
// produce, and the TM refusals, which only a shard lane's TM can, moved
// from "forwarded" to their own rows).
func TestLifecycleParity(t *testing.T) {
	trace := parityTrace(t)

	oracle := paritySwitch(t, tsp.ExecInterp)
	var eg ledger // egress side only; the rest is read after Shutdown
	for _, g := range trace {
		for _, f := range cloneFrames(g.frames) {
			p, err := oracle.ProcessPacket(f, testbed.InPort)
			if err != nil {
				t.Fatal(err)
			}
			if !p.Drop && p.OutPort >= 0 && p.OutPort < oracle.Ports().Len() {
				eg.egFrames++
				eg.egBytes += len(p.Data)
			}
		}
	}
	oracle.Shutdown()
	frameLen := len(trace[0].frames[0])
	// expect is the oracle's ledger with tmDrops of the congested group
	// and the tx_fail frames refused.
	expect := func(tmDrops int) ledger {
		want := readLedger(oracle)
		want.egFrames = eg.egFrames - tmDrops - parityTxFails
		want.egBytes = eg.egBytes - (tmDrops+parityTxFails)*frameLen
		want.drops[verdict.StrReasonTxFail+"/tx"] += parityTxFails
		if tmDrops > 0 {
			want.verdicts[verdict.StrForwarded] -= uint64(tmDrops)
			want.verdicts[verdict.StrTMDrop] += uint64(tmDrops)
			want.drops[verdict.StrReasonTM+"/tm"] += uint64(tmDrops)
		}
		return want
	}
	for _, v := range []string{verdict.StrForwarded, verdict.StrDropped, verdict.StrTMDrop,
		verdict.StrToCPU, verdict.StrNoPort, verdict.StrParseError} {
		if expect(parityTMDrops).verdicts[v] == 0 {
			t.Fatalf("the trace never produces verdict %s: %v", v, expect(parityTMDrops))
		}
	}

	for _, d := range parityDrivers() {
		t.Run(d.name, func(t *testing.T) {
			sw := paritySwitch(t, tsp.ExecFused)
			if d.start != nil {
				d.start(t, sw)
			}
			var eg ledger
			sent := 0
			for _, g := range trace {
				frames := cloneFrames(g.frames)
				if g.congested && d.congest != nil {
					d.congest(t, sw, &d, frames)
				} else if err := d.send(sw, frames); err != nil {
					t.Fatalf("group %s: %v", g.name, err)
				}
				sent += len(frames)
				settle(t, sw, sent)
				if !g.undrained {
					eg.drainPorts(sw)
				}
			}
			sw.Shutdown()
			got := readLedger(sw)
			got.egFrames, got.egBytes = eg.egFrames, eg.egBytes
			want := expect(0)
			if d.congest != nil {
				want = expect(parityTMDrops)
			}
			if got.String() != want.String() {
				t.Errorf("ledger differs from the interpreter oracle\n got: %v\nwant: %v", got, want)
			}
			if _, retired, _ := sw.EpochStats(); retired != 0 {
				t.Errorf("%d program versions still pinned after Shutdown", retired)
			}
		})
	}

	// Admission error: a design whose metadata area cannot hold
	// istd.in_port refuses every frame. Each must still be counted — one
	// parse_error verdict, one parser drop, no flow record — and the
	// synchronous entry points must report the error.
	t.Run("admission_error", func(t *testing.T) {
		for _, d := range parityDrivers() {
			t.Run(d.name, func(t *testing.T) {
				cfg, err := testbed.Workspace(t).Current().Config.Clone()
				if err != nil {
					t.Fatal(err)
				}
				cfg.MetaBytes = 1
				sw, err := New(DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sw.ApplyConfig(cfg); err != nil {
					t.Fatal(err)
				}
				if d.start != nil {
					d.start(t, sw)
				}
				const n = 5
				var frames [][]byte
				for i := 0; i < n; i++ {
					frames = append(frames, v4Packet(t, [4]byte{10, 1, 0, byte(i)}, testbed.RouterMAC, 64))
				}
				if err := d.send(sw, frames); d.start == nil && err == nil {
					t.Error("no admission error reported")
				}
				settle(t, sw, n)
				sw.Shutdown()
				got := readLedger(sw)
				if got.verdicts[verdict.StrParseError] != n || len(got.verdicts) != 1 ||
					got.drops[verdict.StrReasonParse+"/parser"] != n || len(got.drops) != 1 ||
					got.flowPackets != 0 {
					t.Errorf("%d refused frames accounted as %v", n, got)
				}
			})
		}
	})
}

// TestShutdownConservation: whatever is in flight when Shutdown is
// called — frames in the rx rings, packets parked in a TM, versions a
// reconfiguration has just retired — every frame a port accepted ends
// with exactly one verdict, every forwarded verdict is a frame the egress
// port took or a counted tx_fail, and no program version stays pinned.
func TestShutdownConservation(t *testing.T) {
	for _, d := range parityDrivers() {
		if d.start == nil {
			continue
		}
		t.Run(d.name, func(t *testing.T) {
			sw, w := newBaseSwitch(t)
			rep := testbed.Update(t, w, "acl.script")
			d.start(t, sw)
			in, _ := sw.Ports().Port(testbed.InPort)
			var accepted uint64
			for i := 0; i < 1000; i++ {
				dst := [4]byte{10, 1, byte(i >> 4), byte(i)}
				if i%5 == 4 {
					dst = [4]byte{192, 168, 0, byte(i)} // no route installed
				}
				if in.Inject(v4Packet(t, dst, testbed.RouterMAC, 64)) {
					accepted++
				}
			}
			// Retire the version the burst entered under while it is still
			// in flight.
			if _, err := sw.ApplyConfig(rep.Config); err != nil {
				t.Fatal(err)
			}
			sw.Shutdown()

			if got := sw.packetsTotal(); got != accepted {
				t.Errorf("ports accepted %d frames, %d reached a verdict", accepted, got)
			}
			sent := portsSent(sw)
			fwd, txFail := sw.tel.packets[verdict.Forwarded].Value(), sw.tel.drops[verdict.ReasonTxFail].Value()
			if fwd != sent+txFail {
				t.Errorf("%d forwarded verdicts, but ports sent %d and tx_fail counted %d", fwd, sent, txFail)
			}
			if fwd == 0 {
				t.Error("nothing was forwarded")
			}
			if _, retired, _ := sw.EpochStats(); retired != 0 {
				t.Errorf("%d program versions still pinned after Shutdown", retired)
			}
		})
	}
}
