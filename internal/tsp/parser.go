package tsp

import (
	"ipsa/internal/pkt"
	"ipsa/internal/template"
	"ipsa/internal/verdict"
)

// OnDemandParser is the parser submodule shared by the TSPs of one device:
// it walks the implicit-parser chain only as far as needed to satisfy a
// stage's requested headers, recording results in the packet's header
// vector so later stages never re-parse (paper Sec. 2.1).
type OnDemandParser struct {
	// headers is indexed by HeaderID (IDs are small and dense by
	// construction); nil slots are unknown IDs. A slice keeps the
	// per-packet walk free of map hashing.
	headers []*template.Header
	count   int
	first   pkt.HeaderID
}

// NewOnDemandParser builds the parser from a device configuration.
func NewOnDemandParser(cfg *template.Config) *OnDemandParser {
	max := pkt.HeaderID(0)
	for i := range cfg.Headers {
		if cfg.Headers[i].ID > max {
			max = cfg.Headers[i].ID
		}
	}
	p := &OnDemandParser{
		headers: make([]*template.Header, int(max)+1),
		count:   len(cfg.Headers),
		first:   cfg.FirstHdr,
	}
	for i := range cfg.Headers {
		h := &cfg.Headers[i]
		p.headers[h.ID] = h
	}
	return p
}

// header resolves an ID, nil when unknown.
func (op *OnDemandParser) header(id pkt.HeaderID) *template.Header {
	if id < 0 || int(id) >= len(op.headers) {
		return nil
	}
	return op.headers[id]
}

// headerLen computes a header's total byte length at off in the packet.
func (op *OnDemandParser) headerLen(h *template.Header, data []byte, off int) (int, bool) {
	n := h.WidthBits / 8
	if h.VarLen != nil {
		v, err := pkt.GetBits(data, off*8+h.VarLen.LenOff, h.VarLen.LenWidth)
		if err != nil {
			return 0, false
		}
		n = h.VarLen.BaseBytes + int(v)*h.VarLen.UnitBytes
	}
	if off+n > len(data) {
		return 0, false
	}
	return n, true
}

// Ensure parses headers along the chain until want is in the header vector
// or the chain ends. It reports whether want is valid afterwards. Steps
// are bounded to the header count so linked-header cycles terminate. A
// frame that ends inside a header the chain leads to is stamped
// p.DropReason = verdict.ReasonParse: truncated is not absent.
//
// Failures are remembered in the packet's tried mask, so a pipeline whose
// stages repeatedly request a header the packet does not carry pays the
// chain walk once, not once per stage. The mask clears whenever the
// packet's header structure changes (see HeaderVector.MarkTried).
func (op *OnDemandParser) Ensure(p *pkt.Packet, want pkt.HeaderID) bool {
	if p.HV.Valid(want) {
		return true
	}
	if p.HV.Tried(want) {
		return false
	}
	if op.ensureWalk(p, want) {
		return true
	}
	p.HV.MarkTried(want)
	return false
}

// ensureWalk is the uncached chain walk behind Ensure.
func (op *OnDemandParser) ensureWalk(p *pkt.Packet, want pkt.HeaderID) bool {
	cur := op.first
	off := 0
	for steps := 0; steps <= op.count; steps++ {
		h := op.header(cur)
		if h == nil {
			return false
		}
		var n int
		if loc, parsed := p.HV.Loc(cur); parsed {
			off = loc.Off
			n = loc.Len
		} else {
			var ok bool
			n, ok = op.headerLen(h, p.Data, off)
			if !ok {
				// Truncated, not absent: the chain names this header but
				// the frame cannot hold it (or its length field).
				p.DropReason = verdict.ReasonParse
				return false
			}
			p.HV.Set(cur, off, n)
		}
		if cur == want {
			return true
		}
		if h.SelWidth == 0 || len(h.Transitions) == 0 {
			return false // terminal header
		}
		sel, err := pkt.GetBits(p.Data, off*8+h.SelOff, h.SelWidth)
		if err != nil {
			return false
		}
		next := pkt.InvalidHeader
		for _, tr := range h.Transitions {
			if tr.Tag == sel {
				next = tr.Next
				break
			}
		}
		if next == pkt.InvalidHeader {
			return false
		}
		off += n
		cur = next
	}
	return false
}

// EnsureRoot parses the chain's first header, reporting whether the
// frame can carry it. Packet admission uses it so that a frame too short
// for the root header is stamped a parse error up front, whatever the
// stages go on to request; the result lands in the packet's header vector
// (or its tried mask), so the first stage's own Ensure of the root header
// is a cache hit either way. Designs with no parse chain accept every
// frame.
func (op *OnDemandParser) EnsureRoot(p *pkt.Packet) bool {
	if op.header(op.first) == nil {
		return true
	}
	return op.Ensure(p, op.first)
}

// EnsureAll parses every header in want, reporting how many are valid.
func (op *OnDemandParser) EnsureAll(p *pkt.Packet, want []pkt.HeaderID) int {
	n := 0
	for _, id := range want {
		if op.Ensure(p, id) {
			n++
		}
	}
	return n
}
