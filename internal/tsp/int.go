package tsp

// int.go is the stamper side of in-band network telemetry (INT-MD): a
// per-stage epilogue that appends one intmd.HopRecord to the packet's
// INT trailer. executeOne runs it for both executor tiers, so fused/interp
// parity is by construction. Stamping is off by default: a stage built
// without BuildOpts.Int skips the epilogue on one branch, keeping the
// disabled hot path allocation-free.

import (
	"ipsa/internal/intmd"
	"ipsa/internal/telemetry"
	"ipsa/internal/template"
)

// IntStampCtx is the switch-wide stamping context, installed on the Env
// by the dataplane for every packet while INT is enabled (nil otherwise).
// It carries everything a stamp needs that isn't in the packet: identity,
// clock, and a view of TM queue occupancy.
type IntStampCtx struct {
	// SwitchID identifies this switch in hop records.
	SwitchID uint32
	// Now overrides the monotonic clock; nil uses intmd.NowNanos.
	// Differential tests inject a deterministic clock here so fused and
	// interpreted stamps are byte-identical.
	Now func() int64
	// Depth reports the TM queue depth for an egress port; nil stamps 0.
	// Must be lock-free — it runs on the per-packet path.
	Depth func(port int) int
	// Stamps / Skips count hop records written and stamps suppressed by
	// the wire format's hop cap (intmd.MaxHopsWire). Optional.
	Stamps *telemetry.Counter
	Skips  *telemetry.Counter
}

// NowNanos returns the context's notion of now.
func (c *IntStampCtx) NowNanos() int64 {
	if c.Now != nil {
		return c.Now()
	}
	return intmd.NowNanos()
}

// IntStageID derives a stage's 16-bit wire identifier from its name
// (xor-folded FNV-1a). Name-derived rather than ordinal so IDs stay
// stable across partial rewrites: an in-situ patch that adds or removes
// a stage must not renumber the stages of untouched TSPs.
// The sink resolves IDs back to names through the same function.
func IntStageID(name string) uint16 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return uint16(h>>16) ^ uint16(h)
}

// intStamp appends one hop record for the stage identified by stageID:
// the one stage epilogue both executor tiers run.
func (e *Env) intStamp(stageID uint16) {
	ctx := e.Int
	if ctx == nil {
		return
	}
	p := e.Pkt
	now := uint64(ctx.NowNanos())
	var inNs uint64
	if prevOut, ok := intmd.LastHopOut(p.Data); ok {
		if hops, _ := intmd.Hops(p.Data); hops >= intmd.MaxHopsWire {
			if ctx.Skips != nil {
				ctx.Skips.Inc()
			}
			return
		}
		inNs = prevOut
	} else if p.IngressNanos != 0 {
		inNs = uint64(p.IngressNanos)
	} else {
		inNs = now
	}
	depth := 0
	if ctx.Depth != nil {
		if port, err := p.MetaBits(template.IstdOutPortOff, template.IstdOutPortWidth); err == nil {
			depth = ctx.Depth(int(port))
		}
	}
	p.Data = intmd.AppendHop(p.Data, intmd.HopRecord{
		SwitchID:     ctx.SwitchID,
		TSP:          uint16(e.TSPIndex),
		StageID:      stageID,
		InNanos:      inNs,
		OutNanos:     now,
		LatencyNanos: intmd.SatLatency(inNs, now),
		QDepth:       uint32(depth),
	})
	if ctx.Stamps != nil {
		ctx.Stamps.Inc()
	}
}
