package dataplane

import (
	"ipsa/internal/pkt"
	"ipsa/internal/tsp"
)

// Shard is one shard worker's private packet-lifecycle cache over a Core:
// a plain-slice packet freelist and a single owned Env, both touched by
// exactly one goroutine so neither needs the sync.Pool's per-P machinery
// or any atomics. The freelist spills to (and refills from) the Core's
// shared pool, so packets still flow freely if something off-shard ever
// recycles one.
//
// A Shard must only ever be used from the goroutine that owns it.
type Shard struct {
	core *Core
	lane int32
	free []*pkt.Packet
	env  tsp.Env
}

// NewShard builds a shard cache charging telemetry to counter stripe
// lane, with room for freeCap cached packets before spilling to the
// shared pool.
func (c *Core) NewShard(lane, freeCap int) *Shard {
	if freeCap < 1 {
		freeCap = 64
	}
	return &Shard{core: c, lane: int32(lane), free: make([]*pkt.Packet, 0, freeCap)}
}

// Lane reports the telemetry stripe this shard charges.
func (sh *Shard) Lane() int { return int(sh.lane) }

// GetPacket is Core.GetPacket against the shard-local freelist, with the
// packet's telemetry lane stamped to this shard.
func (sh *Shard) GetPacket(d *Design, data []byte, inPort int) (*pkt.Packet, error) {
	var p *pkt.Packet
	if n := len(sh.free); n > 0 {
		p = sh.free[n-1]
		sh.free = sh.free[:n-1]
	} else {
		p = sh.core.pktPool.Get().(*pkt.Packet)
	}
	p.ResetFor(data, d.Cfg.MetaBytes)
	p.HV.Presize(d.numHeaders)
	if err := StampInPort(p, inPort); err != nil {
		sh.PutPacket(p)
		return nil, err
	}
	p.Lane = sh.lane
	d.admit(p)
	return p, nil
}

// PutPacket recycles a packet into the shard freelist, spilling to the
// shared pool when the freelist is full. The caller must not retain p,
// its Data, or its Trace afterwards.
func (sh *Shard) PutPacket(p *pkt.Packet) {
	p.Data = nil
	p.Trace = nil
	if len(sh.free) < cap(sh.free) {
		sh.free = append(sh.free, p)
		return
	}
	sh.core.pktPool.Put(p)
}

// Env rebinds the shard's owned Env for the next packet under design d.
// The same Env is returned every call — valid because one shard processes
// one packet at a time — so the per-packet cost is a rebind, not a pool
// round trip.
func (sh *Shard) Env(d *Design) *tsp.Env {
	e := &sh.env
	d.bind(e, &sh.core.faults)
	e.Lane = int(sh.lane)
	return e
}
