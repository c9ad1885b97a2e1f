package ipbm

import (
	"sync"
	"testing"
	"time"

	"ipsa/internal/ctrlplane"
	"ipsa/internal/pkt"
	"ipsa/internal/testbed"
	"ipsa/internal/verdict"
)

// TestDropConservationUnderEditStorm is the loss-forensics soak: the
// sharded runner forwards a mix engineered to hit every drop reason —
// a poisoned ACL entry (acl), a deliberately overfilled shard TM
// (tm_drop), a route chain steering to a nonexistent egress port
// (no_port) and truncated frames (parse_error) — while a hitless edit
// storm publishes epochs underneath. Afterwards the ledger must reconcile
// exactly: every accepted frame reached one verdict, the ports and TMs
// agree with it, the device stats read it (Dropped is the dropped
// verdict, Processed forwarded + to_cpu + no_port), and each per-reason
// ipsa_drop_total sum equals its loss verdict's ipsa_packets_total
// count. `make race` runs this under the race detector.
func TestDropConservationUnderEditStorm(t *testing.T) {
	edits, mixed := 60, 400
	if testing.Short() {
		edits, mixed = 10, 80
	}
	const queueDepth = 4 // tiny TM queues so one batch can overfill them
	sw, w := newBaseSwitchOpts(t, func(opts *Options) {
		opts.QueueDepth = queueDepth
		opts.DropSampleRate = 1e6 // sample effectively every loss
	})
	// Load the ACL function and poison one routable flow with a drop
	// entry: src 10.0.0.1 -> dst 10.1.7.7, any protocol.
	rep := testbed.Update(t, w, "acl.script")
	if _, err := sw.ApplyConfig(rep.Config); err != nil {
		t.Fatal(err)
	}
	insert(t, sw, ctrlplane.EntryReq{
		Table: "acl_tbl",
		Keys: []ctrlplane.FieldValue{
			{Value: 0x0A000001},
			{Value: 0x0A010707},
			{Value: 0, Mask: &ctrlplane.FieldMask{Value: 0}},
		},
		Priority: 10,
		Tag:      1, // acl_drop
	})
	// Poison a route chain: host 10.2.0.9 resolves through nexthop 9 to a
	// dmac entry steering to port 99, beyond the 8 configured ports. The
	// frame survives the pipeline and classifies no_port at dispose.
	poisonMAC := pkt.MAC{0x02, 0, 0, 0, 0, 0x99}
	for _, req := range []ctrlplane.EntryReq{
		{Table: "ipv4_host", Keys: []ctrlplane.FieldValue{{Value: testbed.VrfID}, {Value: 0x0A020009}},
			Tag: 1, Params: []uint64{9}},
		{Table: "nexthop_tbl", Keys: []ctrlplane.FieldValue{{Value: 9}},
			Tag: 1, Params: []uint64{testbed.BridgeOut, poisonMAC.Uint64()}},
		{Table: "dmac_tbl", Keys: []ctrlplane.FieldValue{{Value: testbed.BridgeOut}, {Value: poisonMAC.Uint64()}},
			Tag: 1, Params: []uint64{99}},
	} {
		insert(t, sw, req)
	}
	if err := sw.RunSharded(2, 32); err != nil {
		t.Fatal(err)
	}
	defer sw.Shutdown()

	in, _ := sw.Ports().Port(testbed.InPort)
	out, _ := sw.Ports().Port(testbed.OutPort)
	done := make(chan struct{})
	var drainWG sync.WaitGroup
	drainWG.Add(1)
	go func() {
		defer drainWG.Done()
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
	defer drainWG.Wait()
	defer close(done)

	accepted := uint64(0)
	inject := func(frame []byte) {
		deadline := time.Now().Add(5 * time.Second)
		for !in.Inject(frame) {
			if time.Now().After(deadline) {
				return // rx tail drop: never admitted, not ours to account
			}
			time.Sleep(50 * time.Microsecond)
		}
		accepted++
	}

	// Phase 1 — deterministic TM overfill: freeze both shard workers so
	// frames pile into their input queues, then release. Each worker then
	// ingests a whole batch against a depth-4 TM queue in one wakeup, and
	// everything past the fourth routable frame per port tail-drops.
	release0, err := sw.blockShard(0)
	if err != nil {
		t.Fatal(err)
	}
	release1, err := sw.blockShard(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		inject(v4Packet(t, [4]byte{10, 1, 200, byte(i)}, testbed.RouterMAC, 64))
	}
	release0()
	release1()

	// Phase 2 — the mixed storm races a hitless edit storm: scratch-table
	// create/drop edits publish a fresh epoch every commit while
	// the four traffic categories interleave.
	editErr := make(chan error, 1)
	go func() {
		editErr <- func() error {
			for i := 0; i < edits; i++ {
				op := ctrlplane.EditOp{Kind: "set_table", Table: "drop_scratch", TableSpec: scratchTable("drop_scratch")}
				if i%2 == 1 {
					op = ctrlplane.EditOp{Kind: "delete_table", Table: "drop_scratch"}
				}
				if _, err := sw.Edit([]ctrlplane.EditOp{op}); err != nil {
					return err
				}
			}
			return nil
		}()
	}()
	// Truncated frames: 6 and 10 bytes cannot carry the Ethernet root
	// header, 14 and 20 bytes carry it but not the IPv4 header it leads
	// to. Each is a parse error unless the TM tail-drops it first; none is
	// a policy drop, so the dropped verdicts are the poisoned ACL flow's.
	truncated := v4Packet(t, [4]byte{10, 1, 0, 1}, testbed.RouterMAC, 64)
	truncLens := []int{6, 10, 14, 20}
	var aclAccepted uint64
	for i := 0; i < mixed; i++ {
		switch i % 4 {
		case 0: // routable
			inject(v4Packet(t, [4]byte{10, 1, byte(i >> 8), byte(i)}, testbed.RouterMAC, 64))
		case 1: // poisoned ACL flow
			before := accepted
			inject(v4Packet(t, [4]byte{10, 1, 7, 7}, testbed.RouterMAC, 64))
			aclAccepted += accepted - before
		case 2: // poisoned route: resolves to nonexistent port 99
			inject(v4Packet(t, [4]byte{10, 2, 0, 9}, testbed.RouterMAC, 64))
		case 3: // truncated
			inject(append([]byte(nil), truncated[:truncLens[(i/4)%len(truncLens)]]...))
		}
	}
	if err := <-editErr; err != nil {
		t.Fatalf("edit storm failed: %v", err)
	}

	// Quiesce: every accepted frame reaches exactly one verdict, and the
	// ports and TMs agree with the ledger.
	vs := waitLedger(t, sw, accepted)
	if vs[verdict.Dropped] != aclAccepted {
		t.Errorf("%d dropped verdicts for %d frames of the poisoned ACL flow: verdicts %v", vs[verdict.Dropped], aclAccepted, vs)
	}
	st := sw.Stats()
	if st.Dropped != vs[verdict.Dropped] {
		t.Errorf("Stats().Dropped = %d, dropped verdict %d", st.Dropped, vs[verdict.Dropped])
	}
	if want := vs[verdict.Forwarded] + vs[verdict.ToCPU] + vs[verdict.NoPort]; st.Processed != want {
		t.Errorf("Stats().Processed = %d, forwarded + to_cpu + no_port = %d", st.Processed, want)
	}

	// The attributed ledger reconciles exactly: each loss reason's
	// ipsa_drop_total sum equals its verdict's ipsa_packets_total count.
	var aclDrops uint64
	for _, c := range sw.tel.dropACL {
		aclDrops += c.Value()
	}
	byReason := map[string]uint64{
		verdict.StrReasonACL:    aclDrops,
		verdict.StrReasonTM:     sw.tel.drops[verdict.ReasonTM].Value(),
		verdict.StrReasonNoPort: sw.tel.drops[verdict.ReasonNoPort].Value(),
		verdict.StrReasonParse:  sw.tel.drops[verdict.ReasonParse].Value(),
	}
	wantByReason := map[string]uint64{
		verdict.StrReasonACL:    vs[verdict.Dropped],
		verdict.StrReasonTM:     vs[verdict.TMDrop],
		verdict.StrReasonNoPort: vs[verdict.NoPort],
		verdict.StrReasonParse:  vs[verdict.ParseError],
	}
	for reason, got := range byReason {
		if want := wantByReason[reason]; got != want {
			t.Errorf("reason %s: drop counter %d != verdict counter %d", reason, got, want)
		}
	}
	// The storm must actually have exercised every injected drop kind.
	for _, reason := range []string{verdict.StrReasonACL, verdict.StrReasonTM, verdict.StrReasonNoPort, verdict.StrReasonParse} {
		if byReason[reason] == 0 {
			t.Errorf("reason %s never fired during the storm", reason)
		}
	}

	// The registry export carries the same ledger (scrape-path parity).
	exported := map[string]uint64{}
	for _, p := range sw.Telemetry().Reg.Gather() {
		if p.Name != "ipsa_drop_total" {
			continue
		}
		for _, l := range p.Labels {
			if l.Key == "reason" {
				exported[l.Value] += uint64(p.Value)
			}
		}
	}
	for reason, want := range byReason {
		if exported[reason] != want {
			t.Errorf("exported ipsa_drop_total{reason=%s} = %d, want %d", reason, exported[reason], want)
		}
	}

	// The capture ring sampled the storm: records exist, carry taxonomy
	// reasons, and acl captures name their dropping TSP.
	recs := sw.tel.Drops.Dump(0)
	if len(recs) == 0 {
		t.Fatal("drop ring empty after a drop storm")
	}
	valid := map[string]bool{
		verdict.StrReasonACL: true, verdict.StrReasonTM: true,
		verdict.StrReasonNoPort: true, verdict.StrReasonParse: true,
		verdict.StrReasonTxFail: true,
	}
	sawACL := false
	for _, r := range recs {
		if !valid[r.Reason] {
			t.Fatalf("capture record %d has unknown reason %q", r.Seq, r.Reason)
		}
		if r.Reason == verdict.StrReasonACL {
			sawACL = true
			if r.TSP < 0 {
				t.Errorf("acl capture %d lost its stage attribution", r.Seq)
			}
			if len(r.Hdr) == 0 || r.Bytes == 0 {
				t.Errorf("acl capture %d has no header prefix", r.Seq)
			}
		}
	}
	if !sawACL {
		t.Error("no acl drop was ever sampled")
	}
	sampled, _ := sw.tel.Drops.Stats()
	if sampled == 0 {
		t.Error("ring reports zero sampled drops")
	}

	// The TM watermark telemetry saw the phase-1 overfill. This design
	// resolves the egress port in the egress dmac stage, after TM
	// admission, so queueing (and the watermark) lands on the TM's
	// unresolved-egress queue 0: the high-water mark reached the queue
	// bound and at least one microburst window was recorded.
	var wm *struct {
		mark   int
		bursts uint64
	}
	for _, pw := range sw.tmWatermarks() {
		if pw.Port == 0 {
			wm = &struct {
				mark   int
				bursts uint64
			}{pw.Watermark, pw.Bursts}
		}
	}
	if wm == nil || wm.mark == 0 {
		t.Fatal("no TM watermark recorded on the admission queue")
	}
	if wm.mark > queueDepth {
		t.Errorf("watermark %d exceeds queue depth %d", wm.mark, queueDepth)
	}
	if wm.bursts == 0 {
		t.Error("TM overfill produced no microburst window")
	}
}
