package telemetry

import (
	"sync"
	"sync/atomic"
	"time"

	"ipsa/internal/verdict"
)

// DropHdrBytes is how many leading frame bytes a drop record captures —
// enough for an Ethernet + IPv4/IPv6 + L4 header prefix, small enough
// that the ring slot stays fixed-size and capture never allocates.
const DropHdrBytes = 64

// DropRecord is one sampled dropped packet, the exported form of a ring
// slot (the drops view).
type DropRecord struct {
	Seq    uint64 `json:"seq"`
	Nanos  int64  `json:"nanos"` // capture time, monotonic process clock
	Reason string `json:"reason"`
	// TSP is the dropping TSP index for acl drops; -1 when the drop point
	// is not a stage (TM admission, TX, the parser).
	TSP     int `json:"tsp"`
	InPort  int `json:"in_port"`
	OutPort int `json:"out_port"`
	// Epoch is the program-store epoch current at the drop (0 on a
	// device without one, pisa), tying the loss to the program version that
	// caused it across hitless reconfigurations.
	Epoch uint64 `json:"epoch,omitempty"`
	Bytes int    `json:"bytes"`         // original frame length
	Hdr   []byte `json:"hdr,omitempty"` // first DropHdrBytes of the frame
}

// dropSlot is the fixed-size in-ring form. Capture copies into it under
// the ring mutex with no allocation; Dump (cold) expands slots into
// DropRecords.
type dropSlot struct {
	seq     uint64
	nanos   int64
	reason  verdict.DropReason
	tsp     int32
	inPort  int32
	outPort int32
	epoch   uint64
	size    int32
	hdrLen  int32
	hdr     [DropHdrBytes]byte
}

// The ring's monotonic clock (token refill + record timestamps).
var dropClockBase = time.Now()

func dropNanos() int64 { return int64(time.Since(dropClockBase)) }

// DropRing is the dropwatch-style loss flight recorder: a token-bucket-
// sampled subset of dropped packets has its first DropHdrBytes bytes,
// drop point and epoch copied into a fixed ring. The bucket bounds both
// the capture rate and the mutex pressure, so a drop storm (the moment
// the ring exists for) costs the unsampled majority one atomic
// load-and-fail on the bucket and nothing else.
type DropRing struct {
	rate   atomic.Int64 // sampled drops per second; <= 0 disables capture
	burst  int64        // bucket capacity
	tokens atomic.Int64
	last   atomic.Int64 // refill clock, dropNanos

	sampled atomic.Uint64 // records captured
	skipped atomic.Uint64 // drops seen while the bucket was empty/disabled

	// mu guards the ring and seq, the last record's sequence number:
	// assigning it under the lock keeps ring order and sequence order one.
	mu   sync.Mutex
	seq  uint64
	ring []dropSlot
	pos  int
	full bool
}

// NewDropRing builds a ring of size slots sampling at most rate drops
// per second with bursts up to burst (defaults: 256 slots, burst = rate).
func NewDropRing(size int, rate, burst int64) *DropRing {
	if size <= 0 {
		size = 256
	}
	if burst <= 0 {
		burst = rate
	}
	r := &DropRing{burst: burst, ring: make([]dropSlot, size)}
	r.rate.Store(rate)
	r.tokens.Store(burst)
	return r
}

// SetRate changes the sampling rate at runtime (<= 0 disables).
func (r *DropRing) SetRate(n int64) { r.rate.Store(n) }

// Offer is the per-drop admission check: it refills the token bucket
// from the clock and takes one token. False — the common answer under a
// storm — costs a couple of atomic loads and never touches the ring.
func (r *DropRing) Offer() bool {
	rate := r.rate.Load()
	if rate <= 0 {
		r.skipped.Add(1)
		return false
	}
	now := dropNanos()
	last := r.last.Load()
	if elapsed := now - last; elapsed > 0 {
		// Integer refill: under one token's worth of elapsed time adds 0
		// and leaves the refill clock alone, so slow trickles still
		// accumulate credit instead of rounding to zero forever.
		if add := elapsed * rate / int64(time.Second); add > 0 && r.last.CompareAndSwap(last, now) {
			for {
				t := r.tokens.Load()
				nt := t + add
				if nt > r.burst {
					nt = r.burst
				}
				if t >= nt || r.tokens.CompareAndSwap(t, nt) {
					break
				}
			}
		}
	}
	for {
		t := r.tokens.Load()
		if t <= 0 {
			r.skipped.Add(1)
			return false
		}
		if r.tokens.CompareAndSwap(t, t-1) {
			return true
		}
	}
}

// Capture records one sampled drop (call only after Offer returned
// true): the drop point, the epoch, and the frame's first DropHdrBytes
// bytes. Zero allocations; the frame is copied, never retained.
func (r *DropRing) Capture(reason verdict.DropReason, tsp, inPort, outPort int, epoch uint64, data []byte) {
	r.sampled.Add(1)
	r.mu.Lock()
	r.seq++
	s := &r.ring[r.pos]
	s.seq = r.seq
	s.nanos = dropNanos()
	s.reason = reason
	s.tsp = int32(tsp)
	s.inPort = int32(inPort)
	s.outPort = int32(outPort)
	s.epoch = epoch
	s.size = int32(len(data))
	s.hdrLen = int32(copy(s.hdr[:], data))
	r.pos++
	if r.pos == len(r.ring) {
		r.pos = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Dump copies up to max records out of the ring, newest first (max <= 0
// means all).
func (r *DropRing) Dump(max int) []DropRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.pos
	if r.full {
		n = len(r.ring)
	}
	if max <= 0 || max > n {
		max = n
	}
	out := make([]DropRecord, 0, max)
	for i := 1; i <= max; i++ {
		idx := r.pos - i
		if idx < 0 {
			idx += len(r.ring)
		}
		s := &r.ring[idx]
		out = append(out, DropRecord{
			Seq:     s.seq,
			Nanos:   s.nanos,
			Reason:  s.reason.String(),
			TSP:     int(s.tsp),
			InPort:  int(s.inPort),
			OutPort: int(s.outPort),
			Epoch:   s.epoch,
			Bytes:   int(s.size),
			Hdr:     append([]byte(nil), s.hdr[:s.hdrLen]...),
		})
	}
	return out
}

// Len reports how many records are buffered.
func (r *DropRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.ring)
	}
	return r.pos
}

// Stats reports how many drops were captured and how many were seen but
// not sampled (metrics: ipsa_drop_samples_total{outcome}).
func (r *DropRing) Stats() (sampled, skipped uint64) {
	return r.sampled.Load(), r.skipped.Load()
}
