package flowstat

import (
	"fmt"
	"math"
	"net/netip"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"ipsa/internal/telemetry"
)

// Config sizes one Set. Zero values take the defaults below.
type Config struct {
	TableBits int   // log2 slots per lane table (default 10 = 1024 slots)
	IdleNanos int64 // idle-eviction bound (default 2s)
	TopK      int   // space-saving summary size per lane (default 16)
	RingSize  int   // shared flow-record ring capacity (default 2048)
}

// The sweep and sketch geometry every Set uses.
const (
	sweepChunk  = 64   // slots examined per incremental sweep
	sketchWidth = 1024 // count-min row width (a power of two)
	sketchDepth = 4    // count-min rows
)

func (c Config) withDefaults() Config {
	if c.TableBits <= 0 {
		c.TableBits = 10
	}
	if c.TableBits > 24 {
		c.TableBits = 24
	}
	if c.IdleNanos <= 0 {
		c.IdleNanos = 2e9
	}
	if c.TopK <= 0 {
		c.TopK = 16
	}
	if c.RingSize <= 0 {
		c.RingSize = 2048
	}
	return c
}

// Set is the per-switch collection of lane tables plus the shared
// flow-record ring and conservation counters. Lanes are allocated
// lazily: a switch running sharded with 4 shards only ever pays for 4
// tables.
type Set struct {
	cfg   Config
	lanes []atomic.Pointer[Table]

	// mu guards the ring and the conservation counters. It is taken last:
	// under a table's hold or alone, never around one.
	mu       sync.Mutex
	recs     []rawRec
	pos      int
	full     bool
	seq      uint64
	records  uint64
	recPkts  uint64
	recBytes uint64
}

// NewSet builds a set with the given lane count (shard or port count,
// whichever runner feeds it).
func NewSet(lanes int, cfg Config) *Set {
	if lanes < 1 {
		lanes = 1
	}
	cfg = cfg.withDefaults()
	return &Set{
		cfg:   cfg,
		lanes: make([]atomic.Pointer[Table], lanes),
		recs:  make([]rawRec, cfg.RingSize),
	}
}

// Lane returns (creating on first use) the table for lane i, or nil when
// i is out of range — callers treat a nil table as accounting disabled.
func (s *Set) Lane(i int) *Table {
	if s == nil || i < 0 || i >= len(s.lanes) {
		return nil
	}
	if t := s.lanes[i].Load(); t != nil {
		return t
	}
	slots := uint64(1) << s.cfg.TableBits
	t := &Table{
		set:    s,
		lane:   int32(i),
		mask:   slots - 1,
		slots:  make([]rawRec, slots),
		sketch: NewCountMin(sketchWidth, sketchDepth),
		topk:   NewTopK(s.cfg.TopK),
	}
	if s.lanes[i].CompareAndSwap(nil, t) {
		return t
	}
	return s.lanes[i].Load()
}

// tables returns the lanes allocated so far (none on a nil Set, so the
// dumps of disabled accounting are empty).
func (s *Set) tables() []*Table {
	if s == nil {
		return nil
	}
	var ts []*Table
	for i := range s.lanes {
		if t := s.lanes[i].Load(); t != nil {
			ts = append(ts, t)
		}
	}
	return ts
}

// push appends a table's pending records to the shared ring, in order,
// and rolls the conservation counters: one lock however many records.
// Copies by value; zero allocations.
func (s *Set) push(recs []rawRec) {
	s.mu.Lock()
	for i := range recs {
		r := &recs[i]
		s.seq++
		r.seq = s.seq
		s.recPkts += r.pkts
		s.recBytes += r.bytes
		s.recs[s.pos] = *r
		if s.pos++; s.pos == len(s.recs) {
			s.pos, s.full = 0, true
		}
	}
	s.records += uint64(len(recs))
	s.mu.Unlock()
}

// FlushAll retires every live flow on every lane (reason "flush"). Once
// the lane writers have stopped, the conservation invariant is exact
// after it returns: RecordPackets() equals every packet the lanes ever
// counted.
func (s *Set) FlushAll() {
	now := Now()
	for _, t := range s.tables() {
		t.Flush(now)
	}
}

// ring drains every table's pending records — a bare Touch or Flush
// leaves them there — then runs read under the ring lock.
func (s *Set) ring(read func()) {
	for _, t := range s.tables() {
		t.Hold()
		t.Release()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	read()
}

// ActiveFlows sums live flows across lanes.
func (s *Set) ActiveFlows() (n int64) {
	for _, t := range s.tables() {
		n += t.Live()
	}
	return n
}

// RecordPackets returns the total packet count carried by emitted flow
// records — the conservation test's left-hand side.
func (s *Set) RecordPackets() (n uint64) {
	s.ring(func() { n = s.recPkts })
	return n
}

// RecordCount returns how many flow records have been emitted.
func (s *Set) RecordCount() (n uint64) {
	s.ring(func() { n = s.records })
	return n
}

// Records dumps up to max records from the ring, oldest first.
func (s *Set) Records(max int) []Record {
	if s == nil {
		return []Record{}
	}
	var raw []rawRec
	s.ring(func() {
		if s.full {
			raw = append(raw, s.recs[s.pos:]...)
			raw = append(raw, s.recs[:s.pos]...)
		} else {
			raw = append(raw, s.recs[:s.pos]...)
		}
	})
	if max > 0 && len(raw) > max {
		raw = raw[len(raw)-max:]
	}
	now := Now()
	out := make([]Record, len(raw))
	for i := range raw {
		out[i] = raw[i].export(now)
	}
	return out
}

// topRecs keeps the max largest-first records of those offered, all of
// them when max is <= 0: a min-heap on dump order once it is full, so
// selecting from n live slots costs max records, not n.
type topRecs struct {
	max  int
	recs []rawRec
}

// before reports whether a precedes b in a dump: more packets first,
// the lower hash on a tie.
func before(a, b *rawRec) bool {
	if a.pkts != b.pkts {
		return a.pkts > b.pkts
	}
	return a.hash < b.hash
}

func (s *topRecs) offer(e *rawRec) {
	switch {
	case s.max <= 0 || len(s.recs) < s.max:
		s.recs = append(s.recs, *e)
		if len(s.recs) == s.max {
			for i := s.max/2 - 1; i >= 0; i-- {
				s.down(i)
			}
		}
	case before(e, &s.recs[0]):
		s.recs[0] = *e
		s.down(0)
	}
}

// down restores the heap (root = last in dump order) below index i.
func (s *topRecs) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(s.recs) {
			return
		}
		if c+1 < len(s.recs) && before(&s.recs[c], &s.recs[c+1]) {
			c++
		}
		if !before(&s.recs[i], &s.recs[c]) {
			return
		}
		s.recs[i], s.recs[c] = s.recs[c], s.recs[i]
		i = c
	}
}

// Dump snapshots the active flows across all lanes, largest first,
// truncated to max (<= 0 = all). Only the survivors are rendered.
func (s *Set) Dump(max int) []Record {
	sel := topRecs{max: max}
	for _, t := range s.tables() {
		t.scan(sel.offer)
	}
	sort.Slice(sel.recs, func(i, j int) bool { return before(&sel.recs[i], &sel.recs[j]) })
	now := Now()
	out := make([]Record, len(sel.recs))
	for i := range sel.recs {
		sel.recs[i].reason = reasonActive
		out[i] = sel.recs[i].export(now)
	}
	return out
}

// HeavyHitter is one ranked flow of the hh view: live mass plus the
// evicted mass remembered by the space-saving summaries (exact counts
// folded at eviction) or, for flows below the summaries' radar, the
// count-min estimate of their evicted history.
type HeavyHitter struct {
	Hash     string `json:"hash"`
	Lane     int    `json:"lane"`
	Src      string `json:"src,omitempty"`
	Dst      string `json:"dst,omitempty"`
	Proto    uint8  `json:"proto,omitempty"`
	SrcPort  uint16 `json:"src_port,omitempty"`
	DstPort  uint16 `json:"dst_port,omitempty"`
	Packets  uint64 `json:"packets"`   // estimated total (live + evicted)
	ErrBound uint64 `json:"err_bound"` // overestimation bound on Packets
	Live     bool   `json:"live"`
}

// hhCand is one lane's contribution to a heavy hitter, unrendered.
type hhCand struct {
	hash, pkts, errb uint64
	lane             int32
	live             bool
	tuple
}

// HeavyHitters merges the per-lane space-saving summaries with the live
// tables into one ranked list (largest estimated total first). max 0
// defaults to 20.
func (s *Set) HeavyHitters(max int) []HeavyHitter {
	if max <= 0 {
		max = 20
	}
	var cands []hhCand
	for _, t := range s.tables() {
		t.Hold()
		for i, h := range t.topk.hashes {
			cands = append(cands, hhCand{hash: h, pkts: t.topk.counts[i], errb: t.topk.errs[i], lane: t.lane, tuple: t.topk.tups[i]})
		}
		t.Release()
		t.scan(func(e *rawRec) {
			c := hhCand{hash: e.hash, pkts: e.pkts, lane: t.lane, live: true, tuple: e.tuple}
			if t.topk.find(e.hash) < 0 {
				// Not in the summary: its evicted history (if any) is
				// only visible through the sketch — an overestimate, so
				// it doubles as the error bound.
				c.errb = t.sketch.Estimate(e.hash)
				c.pkts += c.errb
			}
			cands = append(cands, c)
		})
	}
	// Fold the contributions of one hash together, the lowest lane naming it.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].hash != cands[j].hash {
			return cands[i].hash < cands[j].hash
		}
		return cands[i].lane < cands[j].lane
	})
	n := 0
	for _, c := range cands {
		if n > 0 && cands[n-1].hash == c.hash {
			m := &cands[n-1]
			m.pkts, m.errb, m.live = m.pkts+c.pkts, m.errb+c.errb, m.live || c.live
			if !m.tupOK {
				m.tuple = c.tuple
			}
			continue
		}
		cands[n] = c
		n++
	}
	cands = cands[:n]
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].pkts != cands[j].pkts {
			return cands[i].pkts > cands[j].pkts
		}
		return cands[i].hash < cands[j].hash
	})
	out := make([]HeavyHitter, min(n, max))
	for i := range out {
		c := &cands[i]
		out[i] = HeavyHitter{Hash: hashString(c.hash), Lane: int(c.lane), Packets: c.pkts, ErrBound: c.errb, Live: c.live}
		if c.tupOK {
			out[i].Src, out[i].Dst = addrString(c.src), addrString(c.dst)
			out[i].Proto, out[i].SrcPort, out[i].DstPort = c.proto, c.sport, c.dport
		}
	}
	return out
}

// AddViews registers the flow views: flows (active flows, largest
// first), flow_records (exported records, oldest first) and hh (heavy
// hitters). A nil Set, disabled accounting, answers them empty.
func (s *Set) AddViews(v *telemetry.Views) {
	v.Add("flows", func(q telemetry.Query) any { return s.Dump(q.Max) })
	v.Add("flow_records", func(q telemetry.Query) any { return s.Records(q.Max) })
	v.Add("hh", func(q telemetry.Query) any { return s.HeavyHitters(q.Max) })
}

// Collect emits the ipsa_flow_* series; hang it on the shared registry
// with AddCollector so the numbers are assembled at scrape time.
func (s *Set) Collect(emit func(telemetry.MetricPoint)) {
	var live int64
	var created, evIdle, evClash uint64
	ts := s.tables()
	for _, t := range ts {
		t.Hold()
		n := t.live
		created += t.created
		evIdle += t.evictIdle
		evClash += t.evictClash
		t.Release()
		live += n
		emit(telemetry.MetricPoint{
			Name: "ipsa_flow_active", Kind: "gauge", Value: float64(n),
			Labels: []telemetry.Label{telemetry.L("lane", strconv.Itoa(int(t.lane)))},
		})
	}
	gauge := func(name string, v float64) {
		emit(telemetry.MetricPoint{Name: name, Kind: "gauge", Value: v})
	}
	ctr := func(name string, v float64, labels ...telemetry.Label) {
		emit(telemetry.MetricPoint{Name: name, Kind: "counter", Value: v, Labels: labels})
	}
	gauge("ipsa_flow_active_total", float64(live))
	gauge("ipsa_flow_lanes", float64(len(ts)))
	gauge("ipsa_flow_table_slots", float64(uint64(1)<<s.cfg.TableBits))
	gauge("ipsa_flow_sketch_width", sketchWidth)
	gauge("ipsa_flow_sketch_depth", sketchDepth)
	gauge("ipsa_flow_sketch_epsilon", math.E/sketchWidth)
	gauge("ipsa_flow_topk", float64(s.cfg.TopK))
	ctr("ipsa_flow_created_total", float64(created))
	ctr("ipsa_flow_evictions_total", float64(evIdle), telemetry.L("reason", "idle"))
	ctr("ipsa_flow_evictions_total", float64(evClash), telemetry.L("reason", "clash"))
	// The holds above drained every pending record into these.
	s.mu.Lock()
	records, recPkts, recBytes := s.records, s.recPkts, s.recBytes
	s.mu.Unlock()
	ctr("ipsa_flow_records_total", float64(records))
	ctr("ipsa_flow_record_packets_total", float64(recPkts))
	ctr("ipsa_flow_record_bytes_total", float64(recBytes))
}

func hashString(h uint64) string { return fmt.Sprintf("%016x", h) }

func addrString(b [16]byte) string {
	return netip.AddrFrom16(b).Unmap().String()
}
