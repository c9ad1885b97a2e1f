// Package pipeline implements the fixed parts of IPSA's elastic pipeline
// (paper Sec. 2.3): the TSP count and the traffic manager (TM). What each
// TSP runs and where the chain splits around the TM — the paper's
// selector — belong to a program version (internal/ipbm's epoch store):
// packets execute the version they pinned, so a template rewrite never
// drains them. Packets are counted by their verdicts, in internal/ipbm's
// ledger, not here.
package pipeline

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ipsa/internal/pkt"
)

// Pipeline is the chain of physical TSPs. The TMs packets cross belong
// to the lanes that park them (internal/ipbm's shard lanes); a lane run
// to completion hands its ingress survivors straight to egress.
type Pipeline struct {
	numTSPs int
}

// New builds a pipeline of n TSPs.
func New(n int) (*Pipeline, error) {
	if n <= 0 {
		return nil, fmt.Errorf("pipeline: need at least one TSP, got %d", n)
	}
	return &Pipeline{numTSPs: n}, nil
}

// NumTSPs returns the physical TSP count.
func (p *Pipeline) NumTSPs() int { return p.numTSPs }

// StallTime reports cumulative time the pipeline spent drained for
// updates. Nothing drains it any more — reconfiguration publishes a new
// program version beside the running one — so this is structurally zero;
// it stays because the device stats, the stall gauge and the benchmark
// harness assert on exactly that.
func (p *Pipeline) StallTime() time.Duration { return 0 }

// pktRing is a growable circular packet queue: O(1) push/popHead with no
// per-enqueue allocation once the ring has grown to its working set.
// Structural mutation happens under the owning TM's mutex; n is atomic so
// the lock-free depth readers (DepthFast, DepthSum) can read it.
type pktRing struct {
	buf  []*pkt.Packet
	head int
	n    atomic.Int32
}

func (r *pktRing) push(p *pkt.Packet) {
	n := int(r.n.Load())
	if n == len(r.buf) {
		r.grow(n)
	}
	r.buf[(r.head+n)%len(r.buf)] = p
	r.n.Store(int32(n + 1))
}

func (r *pktRing) grow(n int) {
	newCap := 2 * len(r.buf)
	if newCap == 0 {
		newCap = 16
	}
	nb := make([]*pkt.Packet, newCap)
	for i := 0; i < n; i++ {
		nb[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	r.buf = nb
	r.head = 0
}

func (r *pktRing) popHead() *pkt.Packet {
	p := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) % len(r.buf)
	r.n.Add(-1)
	return p
}

// TrafficManager models the TM's per-port queues with tail drop.
type TrafficManager struct {
	mu     sync.Mutex
	depth  int
	queues []pktRing
	rr     int // round-robin scan position for DequeueRR

	// Watermark/microburst telemetry, mutated only under mu on the
	// enqueue/dequeue paths that already hold it. burstThresh is the
	// depth a queue must reach to open a burst window; crossing it and
	// receding closes the window and records its duration. Timestamps
	// are taken only at threshold crossings, so steady-state queueing
	// pays integer compares, not clock reads.
	burstThresh int
	wm          []portWM

	enqueued  atomic.Uint64
	tailDrops atomic.Uint64
}

// portWM is one port's watermark/burst state.
type portWM struct {
	watermark  int32 // high-water queue depth
	burstStart int64 // tmNanos when depth crossed the threshold; 0 = idle
	bursts     uint64
	minBurst   int64 // shortest completed burst window, nanos (0 = none)
	maxBurst   int64
}

// The TM's monotonic clock for burst windows.
var tmClockBase = time.Now()

func tmNanos() int64 { return int64(time.Since(tmClockBase)) }

// PortWatermark is one port's exported watermark/microburst snapshot.
type PortWatermark struct {
	Port          int
	Watermark     int
	Bursts        uint64
	MinBurstNanos int64
	MaxBurstNanos int64
}

// NewTrafficManager builds a TM with per-port queues of the given depth
// (0 means unbounded, with microburst detection off). The microburst
// threshold is half the queue depth (minimum 1).
func NewTrafficManager(ports, depth int) *TrafficManager {
	tm := &TrafficManager{depth: depth}
	if ports < 1 {
		ports = 1
	}
	tm.queues = make([]pktRing, ports)
	tm.wm = make([]portWM, ports)
	if depth > 0 {
		tm.burstThresh = depth / 2
		if tm.burstThresh < 1 {
			tm.burstThresh = 1
		}
	}
	return tm
}

// noteDepthLocked updates port q's watermark and opens a burst window
// when its depth crosses the threshold. Caller holds mu.
func (tm *TrafficManager) noteDepthLocked(q int) {
	depth := int(tm.queues[q].n.Load())
	w := &tm.wm[q]
	if int32(depth) > w.watermark {
		w.watermark = int32(depth)
	}
	if tm.burstThresh > 0 && depth >= tm.burstThresh && w.burstStart == 0 {
		w.burstStart = tmNanos()
	}
}

// noteDrainLocked closes port q's burst window once its depth recedes
// below the threshold, recording the window duration. Caller holds mu.
func (tm *TrafficManager) noteDrainLocked(q int) {
	if tm.burstThresh <= 0 {
		return
	}
	w := &tm.wm[q]
	if w.burstStart == 0 || int(tm.queues[q].n.Load()) >= tm.burstThresh {
		return
	}
	d := tmNanos() - w.burstStart
	w.burstStart = 0
	w.bursts++
	if w.minBurst == 0 || d < w.minBurst {
		w.minBurst = d
	}
	if d > w.maxBurst {
		w.maxBurst = d
	}
}

// Watermarks snapshots every port's high-water mark and microburst
// record (telemetry scrape source). A still-open burst window counts as
// an in-progress burst with its duration so far, so a wedged queue is
// visible before it ever drains.
func (tm *TrafficManager) Watermarks() []PortWatermark {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	now := int64(0)
	out := make([]PortWatermark, len(tm.wm))
	for i := range tm.wm {
		w := &tm.wm[i]
		out[i] = PortWatermark{
			Port:          i,
			Watermark:     int(w.watermark),
			Bursts:        w.bursts,
			MinBurstNanos: w.minBurst,
			MaxBurstNanos: w.maxBurst,
		}
		if w.burstStart != 0 {
			if now == 0 {
				now = tmNanos()
			}
			out[i].Bursts++
			if d := now - w.burstStart; d > out[i].MaxBurstNanos {
				out[i].MaxBurstNanos = d
			}
		}
	}
	return out
}

// Admit accepts a packet into the queue of its output port; packets with
// no output port yet use port 0's queue. False means tail drop.
func (tm *TrafficManager) Admit(p *pkt.Packet) bool {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	q := tm.portOf(p)
	if tm.depth > 0 && int(tm.queues[q].n.Load()) >= tm.depth {
		tm.tailDrops.Add(1)
		return false
	}
	tm.queues[q].push(p)
	tm.enqueued.Add(1)
	tm.noteDepthLocked(q)
	return true
}

// DequeueRR removes the oldest packet from the next non-empty queue in
// round-robin order; ok=false when every queue is empty. This is how a
// lane that owns its TM drains it.
func (tm *TrafficManager) DequeueRR() (*pkt.Packet, bool) {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	n := len(tm.queues)
	for i := 0; i < n; i++ {
		q := (tm.rr + i) % n
		if tm.queues[q].n.Load() > 0 {
			p := tm.queues[q].popHead()
			tm.rr = (q + 1) % n
			tm.noteDrainLocked(q)
			return p, true
		}
	}
	return nil, false
}

func (tm *TrafficManager) portOf(p *pkt.Packet) int {
	q := p.OutPort
	if q < 0 || q >= len(tm.queues) {
		q = 0
	}
	return q
}

// Stats reports enqueued packets and tail drops.
func (tm *TrafficManager) Stats() (enqueued, tailDrops uint64) {
	return tm.enqueued.Load(), tm.tailDrops.Load()
}

// DepthFast reads one port's queue length (0 for a port the TM does not
// have) without the mutex: a raw atomic read of the port's occupancy
// counter, unserialised against concurrent Admit/DequeueRR, so
// approximate by at most one packet like any real TM's occupancy counter.
// This is the per-packet accessor the INT stamper reads queue depth
// through.
func (tm *TrafficManager) DepthFast(port int) int {
	if port < 0 || port >= len(tm.queues) {
		return 0
	}
	return int(tm.queues[port].n.Load())
}

// DepthSum is the total occupancy across every port queue, lock-free and
// approximate under concurrency (audit-event "packets in flight" source).
func (tm *TrafficManager) DepthSum() int {
	n := 0
	for i := range tm.queues {
		n += int(tm.queues[i].n.Load())
	}
	return n
}
