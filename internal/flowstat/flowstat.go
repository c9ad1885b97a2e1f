// Package flowstat is the switch's always-on flow accounting engine:
// fixed-size, power-of-two open-addressing flow tables keyed by the RSS
// flow hash, one table per lane (a shard worker in sharded mode, an
// ingress port in the other runners), accumulating per-flow
// packets/bytes/last-verdict and sampled per-flow latency.
//
// The concurrency discipline is owner-plain slots under a per-table hold:
// every field of a Table — slots, counters, sketch, top-k, pending
// records — is plain memory guarded by the one mutex Hold takes. A lane
// holds its table once around a turn's touches and once around its
// finishes, never across stage execution, so a batch pays two lock
// round trips and the per-packet path executes no atomic operation: a
// resident packet is a probe and five plain stores, an eviction a struct
// copy. Readers (dumps, scrapes) take the same hold, a bounded chunk of
// slots at a time, so any number of writers and readers on one table
// count exactly. Touch and Finish may also be called bare by a caller
// that is the table's only user. Lock order is table, then the set's
// ring; two table holds are never nested.
//
// Evicted and flushed flows are emitted as compact flow records: into
// the table's pending array first, moved to the set's shared ring under
// one ring lock when the hold is released or the array fills. What makes
// heavy hitters survive table evictions is that their exact counts are
// folded into a per-lane count-min sketch and a space-saving top-k at
// eviction time.
//
// Flow state lives beside the program store, not inside it, so it
// survives hitless edit commits and config applies by construction.
package flowstat

import (
	"sync"
	"time"

	"ipsa/internal/pkt"
	"ipsa/internal/verdict"
)

// Verdict is the compact last-verdict enum stored per flow entry: the
// switch's one verdict enum (internal/verdict), handed to Finish as is.
type Verdict = verdict.Verdict

const (
	VerdictNone      = verdict.None
	VerdictForwarded = verdict.Forwarded
	VerdictDropped   = verdict.Dropped
	VerdictTMDrop    = verdict.TMDrop
	VerdictToCPU     = verdict.ToCPU
	VerdictNoPort    = verdict.NoPort
	VerdictParse     = verdict.ParseError
)

// Eviction reasons carried on emitted flow records.
const (
	EvictIdle  uint8 = iota // sweeper found the flow past the idle bound
	EvictClash              // probe window full, smallest flow displaced
	EvictFlush              // shutdown/explicit flush of live entries
)

func reasonString(r uint8) string {
	switch r {
	case EvictIdle:
		return "idle"
	case EvictClash:
		return "clash"
	case EvictFlush:
		return "flush"
	}
	return "active"
}

// The package clock: monotonic nanoseconds since process start. Both the
// batch-granular `now` the shard workers pass around and the per-packet
// latency stamps read it, so arithmetic between the two is safe.
var clockBase = time.Now()

// Now returns nanoseconds on the package's monotonic clock.
func Now() int64 { return int64(time.Since(clockBase)) }

// probeWindow bounds the linear probe: a flow lives within probeWindow
// slots of its home index or displaces the window's smallest flow.
const probeWindow = 8

// sweepEvery triggers an incremental idle sweep every N Touch calls on a
// lane (power of two; amortizes the sweep to a fraction of a slot scan
// per packet).
const sweepEvery = 256

// pendMax is how many evicted records a table buffers before it must
// take the ring lock mid-hold: a 64-frame turn of clash evictions fits.
const pendMax = 64

// scanChunk bounds the slots a reader examines per hold.
const scanChunk = 1024

// Table is one lane's flow table. Every field is guarded by the hold.
// All per-packet methods are zero-alloc.
type Table struct {
	mu    sync.Mutex // the hold
	set   *Set
	lane  int32
	mask  uint64
	slots []rawRec

	live       int64
	created    uint64
	evictIdle  uint64
	evictClash uint64
	touches    uint64 // sweep trigger
	hand       uint64 // incremental sweep clock hand

	sketch *CountMin
	topk   *TopK

	// pend holds the records evicted since the last drain, in order.
	pend  [pendMax]rawRec
	npend int
}

// Hold takes the table for a run of Touch or Finish calls (or a read).
// Do no other work under it, and hold no second table.
func (t *Table) Hold() { t.mu.Lock() }

// Release moves the records evicted under the hold to the ring, then
// gives the table up.
func (t *Table) Release() {
	t.drain()
	t.mu.Unlock()
}

func (t *Table) drain() {
	if t.npend > 0 {
		t.set.push(t.pend[:t.npend])
		t.npend = 0
	}
}

// Touch accounts one received packet against the flow identified by
// hash, claiming (and if needed evicting into) a slot on first sight.
// data must be the pristine ingress frame — the five-tuple is extracted
// only on claim, before the pipeline rewrites headers in place.
func (t *Table) Touch(hash uint64, data []byte, size int, now int64) {
	if hash == 0 {
		hash = 1 // 0 means "free slot"
	}
	e := t.slot(hash, data, now)
	e.pkts++
	e.bytes += uint64(size)
	e.last = now
	if t.touches++; t.touches&(sweepEvery-1) == 0 {
		t.sweep(now)
	}
}

// Finish records the final verdict (and, when sampled, the pipeline
// latency) on the flow's entry. A miss — the entry was evicted while the
// packet was in flight — is a silent no-op: the packet was already
// counted at Touch, so conservation holds regardless.
func (t *Table) Finish(hash uint64, v Verdict, latNanos int64, now int64) {
	if hash == 0 {
		hash = 1
	}
	for i := uint64(0); i < probeWindow; i++ {
		e := &t.slots[(hash+i)&t.mask]
		if e.hash != hash {
			continue
		}
		e.verdict = uint8(v)
		if latNanos >= 0 {
			e.latSum += latNanos
			e.latN++
		}
		e.last = now
		return
	}
}

// slot finds or claims the entry for hash within the probe window,
// displacing the window's smallest flow when it is full. Emitting feeds
// the sketch and top-k, so the displaced flow's mass is not lost.
func (t *Table) slot(hash uint64, data []byte, now int64) *rawRec {
	var victim *rawRec
	vmin := ^uint64(0)
	for i := uint64(0); i < probeWindow; i++ {
		e := &t.slots[(hash+i)&t.mask]
		switch {
		case e.hash == hash:
			return e
		case e.hash == 0:
			t.fill(e, hash, data, now)
			return e
		case e.pkts < vmin:
			vmin, victim = e.pkts, e
		}
	}
	t.emit(victim, EvictClash)
	t.fill(victim, hash, data, now)
	return victim
}

// fill initializes a free slot for a newly seen flow.
func (t *Table) fill(e *rawRec, hash uint64, data []byte, now int64) {
	*e = rawRec{hash: hash, first: now, last: now, lane: t.lane}
	if f, ok := pkt.ExtractFiveTuple(data); ok {
		e.tuple = tuple{f.Src.As16(), f.Dst.As16(), f.SrcPort, f.DstPort, f.Proto, true}
	}
	t.created++
	t.live++
}

// emit retires a live entry: copy it to the pending array as a flow
// record, free the slot, and fold the exact count into the sketch and
// top-k.
func (t *Table) emit(e *rawRec, reason uint8) {
	if t.npend == pendMax {
		t.drain()
	}
	r := &t.pend[t.npend]
	t.npend++
	*r = *e
	r.reason = reason
	e.hash = 0 // slot free again
	t.live--
	switch reason {
	case EvictIdle:
		t.evictIdle++
	case EvictClash:
		t.evictClash++
	}
	t.sketch.Add(r.hash, r.pkts)
	t.topk.Offer(r)
}

// sweep advances the clock hand over sweepChunk slots, retiring entries
// idle past the configured bound. Runs inline in Touch, under its hold.
func (t *Table) sweep(now int64) {
	idle := t.set.cfg.IdleNanos
	n := uint64(sweepChunk)
	for i := uint64(0); i < n; i++ {
		e := &t.slots[(t.hand+i)&t.mask]
		if e.hash != 0 && now-e.last >= idle {
			t.emit(e, EvictIdle)
		}
	}
	t.hand += n
}

// Flush retires every live entry (reason "flush"), taking the hold
// itself. Once the lane's writers have stopped, it makes flow accounting
// exactly conserving: every packet the lane counted is in an emitted
// record. A record keeps its flow's own last-seen time, not the flush's.
func (t *Table) Flush(int64) {
	t.scan(func(e *rawRec) { t.emit(e, EvictFlush) })
}

// scan calls visit for every live slot, under the hold, scanChunk slots
// per hold so that reading a big table never stalls its lane for longer
// than one chunk. visit must be cheap; if it panics the hold is still
// given up, so a recovered reader cannot wedge the lane.
func (t *Table) scan(visit func(e *rawRec)) {
	for lo := 0; lo < len(t.slots); lo += scanChunk {
		t.scanFrom(lo, visit)
	}
}

func (t *Table) scanFrom(lo int, visit func(e *rawRec)) {
	t.Hold()
	defer t.Release()
	for i := lo; i < min(lo+scanChunk, len(t.slots)); i++ {
		if e := &t.slots[i]; e.hash != 0 {
			visit(e)
		}
	}
}

// Live returns the lane's live flow count.
func (t *Table) Live() int64 {
	t.Hold()
	defer t.Release()
	return t.live
}

// EstimateEvicted returns the count-min estimate of the packet mass this
// lane has evicted for hash (an overestimate: ≤ true + εN with
// probability 1-(1/2)^depth, ε = e/width).
func (t *Table) EstimateEvicted(hash uint64) uint64 {
	if hash == 0 {
		hash = 1
	}
	t.Hold()
	defer t.Release()
	return t.sketch.Estimate(hash)
}
