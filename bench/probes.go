package main

import (
	"encoding/binary"
	"time"

	"ipsa/internal/ctrlplane"
	"ipsa/internal/dataplane"
	"ipsa/internal/flowstat"
	"ipsa/internal/match"
	"ipsa/internal/netio"
	"ipsa/internal/pipeline"
	"ipsa/internal/pkt"
	"ipsa/internal/rp4/parser"
	"ipsa/internal/telemetry"
	"ipsa/internal/tsp"
	"ipsa/internal/verdict"
)

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink uint64

// prober times calls into one layer at a time, from outside, on the
// frames and keys of the workload. Operations of a few nanoseconds
// cannot be timed one by one (two clock reads cost more than the call),
// so a probe times chunks of calls: each chunk is one span, its ns per
// call one sample, and the metric is the median over the chunks. (Not the
// quietest one, as the end-to-end metrics use: chunks differ for reasons
// of their own, such as which keys of an out-of-cache table they replay,
// and the best chunk would hide exactly that.)
type prober struct {
	tc   *tracer
	root int32
	out  map[string]dist
}

// measure runs fn chunks times; fn performs its calls and returns how
// many it made. prep, when set, runs before each chunk off the clock.
func (pr *prober) measure(metric, span, layer string, chunks int, prep func(), fn func() int) float64 {
	per := make([]float64, 0, chunks)
	for c := 0; c < chunks+1; c++ {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		n := fn()
		t1 := time.Now()
		if c == 0 {
			continue // first chunk warms caches and pools
		}
		pr.tc.add(pr.root, pr.root, span, layer, t0, t1, n)
		per = append(per, float64(t1.Sub(t0).Nanoseconds())/float64(n))
	}
	d := summarize(per)
	pr.out[metric] = d
	return d.Val
}

// tableCounts sums hits and misses over every plain table by match kind.
func tableCounts(b *bed) (lookups map[string]uint64, hits uint64) {
	lookups = map[string]uint64{}
	for _, t := range b.sw.ListTables() {
		st, err := b.sw.TableStats(t.Name)
		if err != nil {
			continue // selector tables keep no hit/miss counters
		}
		lookups[t.Kind] += st.Hits + st.Misses
		hits += st.Hits
	}
	return lookups, hits
}

// layerProbes fills pr.out with the per-layer timings on a quiet switch
// (no driver running), so nothing but the probed call is on the CPU.
func layerProbes(pr *prober, b *bed, tr *traffic, e *egress, fill int) error {
	const chunk = 256
	cfg := b.sw.Config()
	buf := make([]byte, tr.maxLen)
	k := 0
	next := func() []byte { f := tr.frame(k, buf); k++; return f }

	admit := pr.measure("pkt.admit_ns", "pkt.admit", "pkt", 40, nil, func() int {
		for i := 0; i < chunk; i++ {
			p, err := b.sw.NewPacket(next(), inPort)
			if err == nil {
				sink += uint64(len(p.Meta))
			}
		}
		return chunk
	})
	pr.measure("pkt.rss_ns", "pkt.rss", "pkt", 40, nil, func() int {
		for i := 0; i < chunk; i++ {
			sink += pkt.RSSHash(next())
		}
		return chunk
	})

	// Replay the keys the workload's IPv4 frames look up, per table kind.
	type fv = ctrlplane.FieldValue
	var exact, lpm [][]byte
	var hashes []uint64
	for i := 0; len(exact) < 8192 && i < len(tr.order); i++ {
		f := tr.variants[tr.order[i]]
		if binary.BigEndian.Uint16(f[12:14]) != pkt.EtherTypeIPv4 {
			continue
		}
		dst := uint64(binary.BigEndian.Uint32(f[30:34]))
		ek, err := ctrlplane.EncodeKey(cfg.Tables["ipv4_host"], []fv{{Value: 1}, {Value: dst}})
		if err != nil {
			return err
		}
		lk, err := ctrlplane.EncodeKey(cfg.Tables["ipv4_lpm"], []fv{{Value: dst}})
		if err != nil {
			return err
		}
		exact, lpm, hashes = append(exact, ek), append(lpm, lk), append(hashes, pkt.RSSHash(f))
	}
	ki := 0
	lookupNs := map[string]float64{}
	lookupNs["exact"] = pr.measure("match.lookup_ns.exact", "match.lookup.exact", "match/mem", 40, nil, func() int {
		for i := 0; i < chunk; i++ {
			r, _ := b.sw.Lookup("ipv4_host", exact[ki%len(exact)])
			sink += uint64(r.ActionID)
			ki++
		}
		return chunk
	})
	lookupNs["lpm"] = pr.measure("match.lookup_ns.lpm", "match.lookup.lpm", "match/mem", 40, nil, func() int {
		for i := 0; i < chunk; i++ {
			r, _ := b.sw.Lookup("ipv4_lpm", lpm[ki%len(lpm)])
			sink += uint64(r.ActionID)
			ki++
		}
		return chunk
	})
	if sel, ok := cfg.Tables["ecmp_ipv4"]; ok {
		group, err := ctrlplane.EncodeGroupKey(sel, fv{Value: 7})
		if err != nil {
			return err
		}
		pr.measure("match.lookup_ns.selector", "match.lookup.selector", "match/mem", 40, nil, func() int {
			for i := 0; i < chunk; i++ {
				r, _ := b.sw.LookupSelector("ecmp_ipv4", group, hashes[ki%len(hashes)])
				sink += uint64(r.ActionID)
				ki++
			}
			return chunk
		})
	}

	// Table writes on the live ipv4_host at the size the workload holds
	// it: one probe times the fill with the emptying off the clock, the
	// other the reverse.
	const writes = 32
	handles := make([]int, 0, writes)
	var writeErr error
	fillHost := func() int {
		for len(handles) < writes && writeErr == nil {
			h, err := b.sw.InsertEntry(ctrlplane.EntryReq{Table: "ipv4_host",
				Keys: []fv{{Value: 1}, {Value: b.nextKey}}, Tag: 1, Params: []uint64{7}})
			if err != nil {
				writeErr = err
				break
			}
			b.nextKey++
			handles = append(handles, h)
		}
		return writes
	}
	emptyHost := func() int {
		for _, h := range handles {
			if err := b.sw.DeleteEntry("ipv4_host", h); err != nil {
				writeErr = err
			}
		}
		handles = handles[:0]
		return writes
	}
	pr.measure("match.insert_ns", "match.insert", "match/mem", 8, func() { emptyHost() }, fillHost)
	pr.measure("match.delete_ns", "match.delete", "match/mem", 8, func() { fillHost() }, emptyHost)
	emptyHost()
	if writeErr != nil {
		return writeErr
	}
	// The same write on a standalone exact engine held at fill (4096)
	// entries: comparable across workloads whatever size their own table
	// has.
	hostT := cfg.Tables["ipv4_host"]
	eng, err := match.New(match.Exact, hostT.KeyWidth, 8192)
	if err != nil {
		return err
	}
	key := func(i int) []byte {
		k := make([]byte, (hostT.KeyWidth+7)/8)
		binary.BigEndian.PutUint32(k[len(k)-4:], uint32(i))
		return k
	}
	for i := 0; i < fill; i++ {
		if _, err := eng.Insert(match.Entry{Key: key(i), ActionID: 1, Params: []uint64{7}}); err != nil {
			return err
		}
	}
	var hs []int
	pr.measure("match.insert_ns_at_4096", "match.insert_at_4096", "match/mem", 8, func() {
		for _, h := range hs {
			_ = eng.Delete(h) // handles come from the Insert just above
		}
		hs = hs[:0]
	}, func() int {
		for i := 0; i < 32; i++ {
			h, err := eng.Insert(match.Entry{Key: key(1<<20 + i), ActionID: 1, Params: []uint64{7}})
			if err == nil {
				hs = append(hs, h)
			}
		}
		return 32
	})

	// Whole-switch entry points on the same frames, and the table
	// lookups one packet makes (from the tables' own counters).
	before, _ := tableCounts(b)
	frames := 0
	process := pr.measure("ipbm.process_ns", "ipbm.process_packet", "ipbm", 40, nil, func() int {
		for i := 0; i < chunk; i++ {
			p, err := b.sw.ProcessPacket(next(), inPort)
			if err == nil {
				sink += uint64(p.OutPort)
			}
		}
		frames += chunk
		return chunk
	})
	after, _ := tableCounts(b)
	lookupTime, lookups := 0.0, 0.0
	for kind, n := range after {
		per := float64(n-before[kind]) / float64(frames)
		lookups += per
		ns, ok := lookupNs[kind]
		if !ok {
			ns = lookupNs["exact"] // ternary/range tables, when a design has them, are charged as exact
		}
		lookupTime += per * ns
	}
	pr.out["tsp.lookups_per_pkt"] = dist{Val: lookups, N: frames}
	pr.out["tsp.stage_count"] = dist{Val: float64(len(cfg.IngressChain) + len(cfg.EgressChain)), N: 1}

	store := make([][]byte, chunk)
	for i := range store {
		store[i] = make([]byte, tr.maxLen)
	}
	forward := pr.measure("ipbm.forward_ns", "ipbm.forward", "ipbm", 40, func() { e.strays() }, func() int {
		for i := 0; i < chunk; i++ {
			ok, _ := b.sw.Forward(tr.frame(k, store[i]), inPort)
			if ok {
				sink++
			}
			k++
		}
		return chunk
	})
	batch := make([][]byte, 32)
	pr.measure("ipbm.forward_batch_ns", "ipbm.forward_batch", "ipbm", 40, func() {
		e.strays()
		for i := range store {
			store[i] = tr.frame(k, store[i][:cap(store[i])])
			k++
		}
	}, func() int {
		for off := 0; off < chunk; off += len(batch) {
			copy(batch, store[off:off+len(batch)])
			n, _ := b.sw.ForwardBatch(batch, inPort)
			sink += uint64(n)
		}
		return chunk
	})
	e.strays()

	// Layers that export no per-packet entry point on the switch are
	// timed on standalone instances fed the workload's frames.
	tm := pipeline.NewTrafficManager(8, 1024)
	tp := pkt.NewPacket(append([]byte(nil), tr.variants[0]...), cfg.MetaBytes)
	tp.OutPort = 3
	tmNs := pr.measure("pipeline.tm_ns", "pipeline.tm_admit_dequeue", "pipeline", 40, nil, func() int {
		for i := 0; i < chunk; i++ {
			if tm.Admit(tp) {
				if q, ok := tm.DequeueRR(); ok {
					sink += uint64(q.OutPort)
				}
			}
		}
		return chunk
	})
	lane := flowstat.NewSet(1, flowstat.Config{}).Lane(0)
	// The switch keys its lanes by the RSS hash; it is computed ahead so
	// the probe times the flow table alone (pkt.rss_ns has the hash).
	flowHash := make([]uint64, len(tr.variants))
	for i, f := range tr.variants {
		flowHash[i] = pkt.RSSHash(f)
	}
	fi := 0
	flowNs := pr.measure("flowstat.touch_finish_ns", "flowstat.touch_finish", "flowstat", 80, nil, func() int {
		for i := 0; i < chunk; i++ {
			v := tr.order[fi%len(tr.order)]
			f, h := tr.variants[v], flowHash[v]
			now := flowstat.Now()
			lane.Touch(h, f, len(f), now)
			lane.Finish(h, flowstat.VerdictForwarded, -1, now)
			fi++
		}
		return chunk
	})

	cell := telemetry.NewStripedCounter(4).Cell(1)
	countNs := pr.measure("telemetry.count_ns", "telemetry.count", "verdict/telemetry", 40, nil, func() int {
		for i := 0; i < 16*chunk; i++ {
			cell.Inc()
		}
		return 16 * chunk
	})
	ring := telemetry.NewDropRing(256, 64, 64)
	pr.measure("telemetry.drop_capture_ns", "telemetry.drop_offer_capture", "verdict/telemetry", 40, nil, func() int {
		for i := 0; i < chunk; i++ {
			if ring.Offer() {
				ring.Capture(verdict.ReasonACL, 1, inPort, -1, 1, tr.variants[0])
			}
		}
		return chunk
	})
	port := netio.NewChanPort(1024)
	rx := make([][]byte, 32)
	pr.measure("netio.rx_ns", "netio.inject_recvbatch", "netio", 40, nil, func() int {
		for off := 0; off < chunk; off += len(rx) {
			for i := range rx {
				port.Inject(store[off+i])
			}
			n, _ := port.RecvBatch(rx)
			sink += uint64(n)
		}
		return chunk
	})
	txNs := pr.measure("netio.tx_ns", "netio.xmitbatch_drain", "netio", 40, nil, func() int {
		for off := 0; off < chunk; off += 32 {
			sink += uint64(port.XmitBatch(store[off : off+32]))
			for i := 0; i < 32; i++ {
				port.Drain()
			}
		}
		return chunk
	})
	port.Close()
	core := dataplane.NewCore()
	design := core.Install(cfg, tsp.NewRegisterFile(cfg.Registers))
	poolNs := pr.measure("dataplane.pool_ns", "dataplane.pools", "dataplane", 40, nil, func() int {
		for i := 0; i < chunk; i++ {
			if p, err := core.GetPacket(design, store[i], inPort); err == nil {
				core.PutPacket(p)
			}
			core.PutEnv(core.GetEnv(design))
		}
		return chunk
	})

	src, err := b.read("base_l2l3.rp4")
	if err != nil {
		return err
	}
	pr.measure("compiler.parse_ms", "compiler.parse", "compiler/rp4", 10, nil, func() int {
		if prog, err := parser.Parse("base_l2l3.rp4", src); err == nil {
			sink += uint64(len(prog.Tables))
		}
		return 1
	})
	scale(pr.out, "compiler.parse_ms", 1e-6)
	pr.measure("ctrlplane.rtt_us", "ctrlplane.ping", "ctrlplane", 20, nil, func() int {
		for i := 0; i < 64; i++ {
			if b.cl.Ping() == nil {
				sink++
			}
		}
		return 64
	})
	scale(pr.out, "ctrlplane.rtt_us", 1e-3)

	// The ledger. ProcessPacket is admission + lookups + flow accounting
	// + verdict counting + the executor's own work, so the executor's
	// self time is what is left of it. Forward is the same work on a
	// pooled packet (dataplane.pool_ns, where ProcessPacket's NewPacket
	// allocates one) plus the TM pass and the transmit; what Forward costs
	// beyond the sum of those parts is the un-itemised shared path. The
	// parts are timed through exported calls that resolve tables by name
	// and run one at a time, so the sum can exceed the whole: a negative
	// residual is reported as it is.
	exec := process - admit - lookupTime - flowNs - countNs
	pr.out["tsp.exec_ns"] = dist{Val: exec, N: pr.out["ipbm.process_ns"].N}
	self := forward - (poolNs + lookupTime + exec + tmNs + flowNs + countNs + txNs)
	pr.out["ipbm.lifecycle_self_ns"] = dist{Val: self, N: pr.out["ipbm.forward_ns"].N}
	pr.out["ledger.residual_frac"] = dist{Val: self / forward, N: pr.out["ipbm.forward_ns"].N}
	return nil
}

// scale converts a probe's ns-per-call sample into the metric's unit.
func scale(out map[string]dist, name string, f float64) {
	d := out[name]
	d.Val, d.Med, d.Q1, d.Q3 = d.Val*f, d.Med*f, d.Q1*f, d.Q3*f
	out[name] = d
}
