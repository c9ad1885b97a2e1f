package pkt

import (
	"fmt"

	"ipsa/internal/telemetry"
	"ipsa/internal/verdict"
)

// HeaderID identifies a header instance in a compiled design. IDs are
// assigned by the compiler; the data plane only ever sees small integers.
type HeaderID int

// InvalidHeader marks "no header".
const InvalidHeader HeaderID = -1

// HeaderLoc records where one parsed header instance lives in the packet
// buffer.
type HeaderLoc struct {
	Off   int // byte offset from the start of the packet
	Len   int // byte length
	Valid bool
}

// HeaderVector is the per-packet record of parsed headers, indexed by
// HeaderID. IPSA stages parse on demand and pass the vector downstream so
// later stages never re-parse (paper Sec. 2.1). The zero value is an empty
// vector that grows on first use.
type HeaderVector struct {
	locs []HeaderLoc
	// mask mirrors the Valid bits of IDs below 64 (IDs are small and dense
	// by construction, so in practice all of them) as a bitmask, letting
	// executors answer "are all these headers parsed?" with one AND
	// instead of a per-header walk. See HasAll.
	mask uint64
	// tried is the parser's negative cache: bits for header IDs a full
	// on-demand parse walk failed to reach on this packet (absent header,
	// truncated chain). Without it a pipeline whose later stages keep
	// asking for a header the packet does not carry (IPv6 stages on IPv4
	// traffic) re-walks the whole parse chain per stage per packet. The
	// cache keys on packet shape, so any mutation that could change parse
	// outcomes — a header parsed or invalidated, bytes inserted or removed
	// — clears it wholesale. An in-place rewrite of a selector byte via a
	// field store does not clear it, the same staleness the positive Loc
	// cache already has for that case: parse results are fixed at first
	// parse unless the header structure changes.
	tried uint64
}

// Reset invalidates every entry, retaining storage.
func (hv *HeaderVector) Reset() {
	for i := range hv.locs {
		hv.locs[i] = HeaderLoc{}
	}
	hv.mask = 0
	hv.tried = 0
}

// Presize reserves capacity for n entries so hot-path Set calls never
// reallocate. Existing entries are retained.
func (hv *HeaderVector) Presize(n int) {
	if cap(hv.locs) < n {
		locs := make([]HeaderLoc, len(hv.locs), n)
		copy(locs, hv.locs)
		hv.locs = locs
	}
}

func (hv *HeaderVector) grow(id HeaderID) {
	for len(hv.locs) <= int(id) {
		hv.locs = append(hv.locs, HeaderLoc{})
	}
}

// Set records the location of header id.
func (hv *HeaderVector) Set(id HeaderID, off, length int) {
	if id < 0 {
		return
	}
	hv.grow(id)
	hv.locs[id] = HeaderLoc{Off: off, Len: length, Valid: true}
	if id < 64 {
		hv.mask |= 1 << uint(id)
	}
	hv.tried = 0
}

// Invalidate marks header id as absent.
func (hv *HeaderVector) Invalidate(id HeaderID) {
	if id < 0 || int(id) >= len(hv.locs) {
		return
	}
	hv.locs[id].Valid = false
	if id < 64 {
		hv.mask &^= 1 << uint(id)
	}
	hv.tried = 0
}

// Tried reports whether a parse walk for header id already failed on this
// packet (and nothing has changed its shape since). Parsers use it to
// fast-fail repeat requests for absent headers.
func (hv *HeaderVector) Tried(id HeaderID) bool {
	return id >= 0 && id < 64 && hv.tried&(1<<uint(id)) != 0
}

// MarkTried records that a parse walk for header id failed.
func (hv *HeaderVector) MarkTried(id HeaderID) {
	if id >= 0 && id < 64 {
		hv.tried |= 1 << uint(id)
	}
}

// Valid reports whether header id has been parsed and is present.
func (hv *HeaderVector) Valid(id HeaderID) bool {
	return id >= 0 && int(id) < len(hv.locs) && hv.locs[id].Valid
}

// HasAll reports whether every header in the want mask (bit i == HeaderID
// i; only IDs below 64 are representable) is currently valid.
func (hv *HeaderVector) HasAll(want uint64) bool {
	return hv.mask&want == want
}

// Loc returns the location of header id.
func (hv *HeaderVector) Loc(id HeaderID) (HeaderLoc, bool) {
	if !hv.Valid(id) {
		return HeaderLoc{}, false
	}
	return hv.locs[id], true
}

// Each calls fn for every valid parsed header, in HeaderID order. The
// telemetry flight recorder uses this to snapshot header offsets.
func (hv *HeaderVector) Each(fn func(id HeaderID, loc HeaderLoc)) {
	for i, l := range hv.locs {
		if l.Valid {
			fn(HeaderID(i), l)
		}
	}
}

// shift adjusts the offsets of all valid headers at or beyond off by delta.
func (hv *HeaderVector) shift(off, delta int) {
	for i := range hv.locs {
		if hv.locs[i].Valid && hv.locs[i].Off >= off {
			hv.locs[i].Off += delta
		}
	}
	hv.tried = 0
}

// Packet is the unit that flows through every pipeline in this repository.
type Packet struct {
	Data []byte       // raw packet bytes
	Meta []byte       // compiled user metadata area (bit-addressed)
	HV   HeaderVector // parsed header record

	InPort  int  // ingress port index
	OutPort int  // egress port index chosen by the pipeline
	Drop    bool // set by a drop action

	// DropReason and DropStage attribute a loss: the reason enum says why
	// the packet died (verdict.ReasonACL for a stage drop action,
	// ReasonParse when admission found the frame too short for the root
	// header, ...) and DropStage says where — the index of the TSP whose
	// drop action fired. Stamped by the executors at the drop site and by
	// packet admission for parse failures; zero for live packets.
	DropReason verdict.DropReason
	DropStage  int32

	// ToCPU marks the packet for punting to the control plane (used by the
	// flow-probe use case to signal threshold crossings).
	ToCPU bool

	// Trace is this packet's telemetry flight record when it was sampled
	// (nil for the common case). It rides the packet from admission to
	// the finish hook.
	Trace *telemetry.TraceRecord
	// Timed marks the packet as latency-sampled (per-TSP histograms).
	Timed bool

	// IngressNanos is the monotonic arrival timestamp, stamped at packet
	// admission only while the switch acts as an INT source (0 otherwise).
	// The first INT hop record uses it as its ingress-side timestamp.
	IngressNanos int64

	// Lane is the telemetry counter stripe this packet's lifecycle events
	// are charged to: 0 on the inline Forward paths, shard index + 1 when
	// a shard worker owns the packet. Stamped at packet admission so the
	// finish hook lands on the admitting shard's cells.
	Lane int32

	// RSS is the flow hash the packet was steered by (stamped at admission
	// on accounting paths; 0 when unknown). Flow accounting keys its table
	// probes on it at both ingress and finish, so it rides the packet
	// across the TM handoff like Lane does.
	RSS uint64

	// FlowNanos is the flow-accounting latency stamp, taken at admission
	// only for latency-sampled (Timed) packets; 0 otherwise. Kept separate
	// from IngressNanos, which belongs to the INT source path.
	FlowNanos int64
}

// NewPacket wraps data in a Packet with a metadata area of metaBytes bytes.
func NewPacket(data []byte, metaBytes int) *Packet {
	return &Packet{Data: data, Meta: make([]byte, metaBytes), OutPort: -1}
}

// ResetFor prepares a (possibly pooled) packet for reuse under a new
// design: rebinds Data, sizes and zeroes the metadata area reusing its
// backing store, and clears all per-packet state.
func (p *Packet) ResetFor(data []byte, metaBytes int) {
	p.Data = data
	if cap(p.Meta) < metaBytes {
		p.Meta = make([]byte, metaBytes)
	} else {
		p.Meta = p.Meta[:metaBytes]
		for i := range p.Meta {
			p.Meta[i] = 0
		}
	}
	p.HV.Reset()
	p.InPort = 0
	p.OutPort = -1
	p.Drop = false
	p.DropReason = 0
	p.DropStage = 0
	p.ToCPU = false
	p.Trace = nil
	p.Timed = false
	p.IngressNanos = 0
	p.Lane = 0
	p.RSS = 0
	p.FlowNanos = 0
}

// Reset prepares p for reuse with new packet bytes.
func (p *Packet) Reset(data []byte) {
	p.Data = data
	for i := range p.Meta {
		p.Meta[i] = 0
	}
	p.HV.Reset()
	p.InPort = 0
	p.OutPort = -1
	p.Drop = false
	p.DropReason = 0
	p.DropStage = 0
	p.ToCPU = false
	p.Trace = nil
	p.Timed = false
	p.IngressNanos = 0
	p.Lane = 0
	p.RSS = 0
	p.FlowNanos = 0
}

// Clone deep-copies the packet (used by multicast and the traffic manager).
func (p *Packet) Clone() *Packet {
	q := &Packet{
		Data:       append([]byte(nil), p.Data...),
		Meta:       append([]byte(nil), p.Meta...),
		InPort:     p.InPort,
		OutPort:    p.OutPort,
		Drop:       p.Drop,
		DropReason: p.DropReason,
		DropStage:  p.DropStage,
		ToCPU:      p.ToCPU,

		IngressNanos: p.IngressNanos,
		Lane:         p.Lane,
		RSS:          p.RSS,
		FlowNanos:    p.FlowNanos,
	}
	q.HV.locs = append([]HeaderLoc(nil), p.HV.locs...)
	q.HV.mask = p.HV.mask
	q.HV.tried = p.HV.tried
	return q
}

// InsertBytes opens a gap of n zero bytes at byte offset off and shifts the
// header vector. Used for header push (e.g. SRH insertion at an SR source).
func (p *Packet) InsertBytes(off, n int) error {
	if off < 0 || off > len(p.Data) || n < 0 {
		return fmt.Errorf("pkt: insert of %d bytes at %d invalid for packet of %d bytes", n, off, len(p.Data))
	}
	p.Data = append(p.Data, make([]byte, n)...)
	copy(p.Data[off+n:], p.Data[off:len(p.Data)-n])
	for i := off; i < off+n; i++ {
		p.Data[i] = 0
	}
	p.HV.shift(off, n)
	return nil
}

// RemoveBytes deletes n bytes at byte offset off and shifts the header
// vector. Used for header pop (e.g. SRH removal at an SR endpoint).
func (p *Packet) RemoveBytes(off, n int) error {
	if off < 0 || n < 0 || off+n > len(p.Data) {
		return fmt.Errorf("pkt: remove of %d bytes at %d invalid for packet of %d bytes", n, off, len(p.Data))
	}
	copy(p.Data[off:], p.Data[off+n:])
	p.Data = p.Data[:len(p.Data)-n]
	p.HV.shift(off+n, -n)
	return nil
}

// FieldBits reads a field of a parsed header: bitOff/width are relative to
// the start of the header identified by id.
func (p *Packet) FieldBits(id HeaderID, bitOff, width int) (uint64, error) {
	loc, ok := p.HV.Loc(id)
	if !ok {
		return 0, fmt.Errorf("pkt: header %d not valid", id)
	}
	return GetBits(p.Data, loc.Off*8+bitOff, width)
}

// SetFieldBits writes a field of a parsed header.
func (p *Packet) SetFieldBits(id HeaderID, bitOff, width int, v uint64) error {
	loc, ok := p.HV.Loc(id)
	if !ok {
		return fmt.Errorf("pkt: header %d not valid", id)
	}
	return SetBits(p.Data, loc.Off*8+bitOff, width, v)
}

// MetaBits reads a metadata field at an absolute bit offset in the metadata
// area.
func (p *Packet) MetaBits(bitOff, width int) (uint64, error) {
	return GetBits(p.Meta, bitOff, width)
}

// SetMetaBits writes a metadata field.
func (p *Packet) SetMetaBits(bitOff, width int, v uint64) error {
	return SetBits(p.Meta, bitOff, width, v)
}
