package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	"ipsa/internal/ipbm"
	"ipsa/internal/netio"
)

// phase is what one traffic phase measured. Each window's latencies go
// into a histogram of their own, allocated before the phase starts, so
// the sample cannot be outgrown by a faster switch and nothing is
// summarised while traffic runs.
type phase struct {
	hist     []latHist // per window: per frame (ports) or per ForwardBatch call (rtc)
	done     []uint64  // frames accounted by the end of each window
	ends     []float64 // seconds since phase start at the end of each window
	injected uint64
	good     uint64 // delivered with oracle-correct bytes at the oracle's port
	bad      uint64 // delivered wrong, at a wrong port, or twice
	bytes    uint64
	elapsed  time.Duration
	mallocs  uint64

	// Open loop only.
	late    latHist // send time minus due time
	retries uint64  // Inject refusals (ingress queue full)
}

// newPhase readies the windows of a phase of dur (the drain after it can
// open a few more).
func newPhase(dur, window time.Duration) *phase {
	return &phase{hist: make([]latHist, 1, int(dur/window)+4)}
}

// observe adds one latency to the open window.
func (p *phase) observe(ns int64) { p.hist[len(p.hist)-1].add(ns) }

// window closes the open window at time t (since phase start).
func (p *phase) window(t time.Duration) {
	p.done = append(p.done, p.good+p.bad)
	p.ends = append(p.ends, t.Seconds())
	p.hist = append(p.hist, latHist{})
}

// windowStats is a phase cut into trials of k windows each: frames/s,
// and p50 and p99 latency in µs (NaN for a trial in which nothing
// completed).
type windowStats struct{ pps, p50, p99 []float64 }

func (p *phase) stats(k int) windowStats {
	var ws windowStats
	prevDone, prevEnd := uint64(0), 0.0
	for i := k - 1; i < len(p.done); i += k {
		ws.pps = append(ws.pps, float64(p.done[i]-prevDone)/(p.ends[i]-prevEnd))
		prevDone, prevEnd = p.done[i], p.ends[i]
		h := p.hist[i-k+1]
		for j := i - k + 2; j <= i; j++ {
			h.merge(&p.hist[j])
		}
		ws.p50 = append(ws.p50, h.quantile(0.5)/1e3)
		ws.p99 = append(ws.p99, h.quantile(0.99)/1e3)
	}
	return ws
}

// sampleEvery is how often the traced run wraps a driver call in spans.
const sampleEvery = 512

// egress is the harness side of the switch's output ports.
type egress struct {
	tr    *traffic
	ports []*netio.ChanPort // ports the oracle says traffic leaves on
	idx   []int
	all   []*netio.ChanPort
}

func newEgress(sw *ipbm.Switch, tr *traffic, used []int) (*egress, error) {
	e := &egress{tr: tr, idx: used}
	for i := 0; i < sw.Ports().Len(); i++ {
		p, err := sw.Ports().Port(i)
		if err != nil {
			return nil, err
		}
		e.all = append(e.all, p)
	}
	for _, i := range used {
		e.ports = append(e.ports, e.all[i])
	}
	return e, nil
}

// strays drains every port and counts what it finds as wrong: called
// after the expected ports are empty, anything left went astray.
func (e *egress) strays() uint64 {
	var n uint64
	for _, p := range e.all {
		for {
			if _, ok := p.Drain(); !ok {
				break
			}
			n++
		}
	}
	return n
}

// run is the run-to-completion driver: one goroutine refreshes a
// batch of frames from the seeded sequence, calls ForwardBatch, and
// drains and verifies what came out, in a closed loop, for dur.
func (r *rtcRun) run(dur time.Duration) (*phase, error) {
	const batch = ipbm.DefaultBatch
	p := newPhase(dur, r.window)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	nextWin := r.window
	for n := 0; ; n++ {
		for i := range r.frames {
			r.frames[i] = r.e.tr.frame(r.k, r.store[i])
			r.k++
		}
		t0 := time.Now()
		if _, err := r.b.sw.ForwardBatch(r.frames, inPort); err != nil {
			return nil, err
		}
		t1 := time.Now()
		p.injected += batch
		for i, port := range r.e.ports {
			for {
				d, ok := port.Drain()
				if !ok {
					break
				}
				if r.e.tr.check(d, r.e.idx[i], false) {
					p.good++
					p.bytes += uint64(len(d))
				} else {
					p.bad++
				}
			}
		}
		if r.tc != nil && n%sampleEvery == 0 {
			id := r.tc.id()
			r.tc.put(id, r.root, id, "ipbm.forward_batch", "ipbm", t0, t1, batch)
			r.tc.add(r.root, id, "harness.drain_verify", "harness", t1, time.Now(), batch)
		}
		p.observe(int64(t1.Sub(t0)))
		if since := t1.Sub(start); since >= nextWin {
			p.window(since)
			nextWin += r.window
			if since >= dur {
				p.elapsed = since
				break
			}
		}
	}
	runtime.ReadMemStats(&ms1)
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	p.bad += r.e.strays()
	return p, nil
}

type rtcRun struct {
	b             *bed
	e             *egress
	store, frames [][]byte
	k             int // position in the seeded sequence
	window        time.Duration
	tc            *tracer
	root          int32
}

func newRTCRun(b *bed, e *egress, window time.Duration, root int32) *rtcRun {
	r := &rtcRun{b: b, e: e, window: window, root: root,
		store: make([][]byte, ipbm.DefaultBatch), frames: make([][]byte, ipbm.DefaultBatch)}
	for i := range r.store {
		r.store[i] = make([]byte, e.tr.maxLen)
	}
	return r
}

// portRun drives the whole switch port to port from one harness
// goroutine: it injects on the ingress ChanPort when the loop policy
// allows, and polls the egress ports. A frame's ring slot rides its TCP
// sequence field, which gives exact loss and per-frame latency.
type portRun struct {
	b      *bed
	e      *egress
	in     *netio.ChanPort
	bufs   [][]byte
	sent   []int64 // per slot: ns since base when injected (or due); 0 = free
	base   time.Time
	seq    uint64 // frames injected over all phases: slot and sequence position
	p      *phase
	window time.Duration
	tc     *tracer
	root   int32
	trace  []int32 // per slot: span id when the frame is sampled
}

func newPortRun(b *bed, e *egress, window time.Duration, root int32) (*portRun, error) {
	in, err := b.sw.Ports().Port(inPort)
	if err != nil {
		return nil, err
	}
	r := &portRun{b: b, e: e, in: in, window: window, root: root, base: time.Now(),
		bufs: make([][]byte, slotRing), sent: make([]int64, slotRing), trace: make([]int32, slotRing)}
	for i := range r.bufs {
		r.bufs[i] = make([]byte, e.tr.maxLen)
	}
	return r, nil
}

func (r *portRun) now() int64 { return int64(time.Since(r.base)) + 1 }

// inject sends the next frame of the sequence, stamped as sent at
// stamp. It reports false when its slot is still in flight or the
// ingress queue refused the frame.
func (r *portRun) inject(stamp int64) bool {
	slot := int(r.seq % slotRing)
	if r.sent[slot] != 0 {
		return false
	}
	f := r.e.tr.frame(int(r.seq), r.bufs[slot])
	binary.BigEndian.PutUint32(f[seqOff:], uint32(slot))
	sampled := r.tc != nil && r.seq%sampleEvery == 0
	var t0 time.Time
	if sampled {
		t0 = time.Now()
	}
	r.sent[slot] = stamp
	if !r.in.Inject(f) {
		r.sent[slot] = 0
		r.p.retries++
		return false
	}
	if sampled {
		id := r.tc.id()
		r.trace[slot] = id
		r.tc.add(id, id, "netio.inject", "netio", t0, time.Now(), 1)
	}
	r.seq++
	r.p.injected++
	return true
}

// poll drains the egress ports once and accounts what arrived.
func (r *portRun) poll() (got int) {
	for i, port := range r.e.ports {
		for {
			d, ok := port.Drain()
			if !ok {
				break
			}
			got++
			now := r.now()
			slot := -1
			if len(d) >= seqEnd {
				slot = int(binary.BigEndian.Uint32(d[seqOff:]))
			}
			if slot < 0 || slot >= slotRing || r.sent[slot] == 0 {
				r.p.bad++ // not a frame in flight: a duplicate or a corrupted identity
				continue
			}
			stamp := r.sent[slot]
			r.sent[slot] = 0
			if id := r.trace[slot]; id != 0 {
				r.tc.put(id, r.root, id, "switch.frame", "ipbm", r.base.Add(time.Duration(stamp)), r.base.Add(time.Duration(now)), 1)
				r.trace[slot] = 0
			}
			if !r.e.tr.check(d, r.e.idx[i], true) {
				r.p.bad++
				continue
			}
			r.p.observe(now - stamp)
			r.p.good++
			r.p.bytes += uint64(len(d))
		}
	}
	return got
}

// run drives one phase of dur, starting and ending with nothing in
// flight. pps 0 is the closed loop (closedWindow frames in flight);
// otherwise frames are due at a fixed rate whatever the switch does, a
// frame's latency counts from when it was due, and how late the
// generator sent it is recorded.
func (r *portRun) run(dur time.Duration, pps int) (*phase, error) {
	r.p = newPhase(dur, r.window)
	interval := 0.0
	if pps > 0 {
		interval = 1e9 / float64(pps)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := r.now()
	nextWin := int64(r.window)
	lastProgress := start
	for {
		if pps == 0 {
			for r.p.injected-r.p.good-r.p.bad < closedWindow && r.inject(r.now()) {
			}
		} else {
			// After a stall the frames that fell due are sent back to back,
			// but never more than a batch between two polls: a wire drains
			// the egress ports while the burst arrives, and a harness that
			// did not would overflow their queues with its own catch-up.
			for k := 0; k < ipbm.DefaultBatch; k++ {
				due := start + int64(float64(r.p.injected)*interval)
				if due > r.now() || !r.inject(due) {
					break
				}
				r.p.late.add(r.now() - due)
			}
		}
		now := r.now()
		if r.poll() > 0 {
			lastProgress = now
		} else {
			if now-lastProgress > int64(5*time.Second) {
				c := readCounters(r.b.sw)
				return nil, fmt.Errorf("%s: no frame left the switch for 5 s with %d in flight (ipsa_drop_total %d, TM tail drops %d, port tx drops %d since it started)",
					r.b.w.Name, r.p.injected-r.p.good-r.p.bad, c.drops, c.tmDrops, c.txDrops)
			}
			runtime.Gosched()
		}
		if since := now - start; since >= nextWin {
			r.p.window(time.Duration(since))
			nextWin += int64(r.window)
			if since >= int64(dur) {
				break
			}
		}
	}
	// Let what is in flight land: every injected frame is a counted one.
	for r.p.injected-r.p.good-r.p.bad > 0 {
		if r.poll() == 0 {
			if r.now()-lastProgress > int64(5*time.Second) {
				c := readCounters(r.b.sw)
				return nil, fmt.Errorf("%s: %d frames never left the switch (ipsa_drop_total %d, TM tail drops %d, port tx drops %d since it started)",
					r.b.w.Name, r.p.injected-r.p.good-r.p.bad, c.drops, c.tmDrops, c.txDrops)
			}
			runtime.Gosched()
			continue
		}
		lastProgress = r.now()
	}
	r.p.elapsed = time.Duration(r.now() - start)
	runtime.ReadMemStats(&ms1)
	r.p.mallocs = ms1.Mallocs - ms0.Mallocs
	r.p.bad += r.e.strays()
	return r.p, nil
}
