// Package dataplane is the per-packet execution substrate shared by the
// IPSA behavioral model (internal/ipbm) and the PISA baseline
// (internal/pisa). Both switches previously duplicated the packet
// lifecycle — wrap + istd stamping, Env setup, the INT ingress stamp,
// out-port surfacing — with slightly different locking; centralizing it
// keeps IPSA-vs-PISA differences architectural rather than accidental,
// and gives both switches the same zero-allocation steady state:
//
//   - a configuration is an immutable Design snapshot, INT stamping
//     context included, that packets read without taking a lock: each
//     switch publishes its Designs inside its own one-pointer record
//     (ipbm's program versions, pisa's builds), so a packet reads one
//     whole configuration from admission to its verdict;
//   - Packets and Envs come from sync.Pools, with Meta, header-vector and
//     scratch storage reused across packets.
package dataplane

import (
	"fmt"
	"sync"

	"ipsa/internal/pkt"
	"ipsa/internal/template"
	"ipsa/internal/tsp"
	"ipsa/internal/verdict"
)

// ErrNoConfig is returned by packet entry points before ApplyConfig.
var ErrNoConfig = fmt.Errorf("dataplane: no configuration installed")

// Design is one installed configuration's immutable execution snapshot.
// A new Design is built at apply time and published with the switch's
// program; packets in flight keep the snapshot they started with.
type Design struct {
	Cfg    *template.Config
	Parser *tsp.OnDemandParser
	Regs   *tsp.RegisterFile
	// Int, when non-nil, makes this design an INT source: every Env bound
	// to it arms the stamped stages' epilogues and packet admission
	// records the ingress timestamp. Set before the design is published.
	Int *tsp.IntStampCtx
	// SRH/IPv6 locate the header instances the SRv6 action primitives
	// operate on (InvalidHeader when the design has none).
	SRH  pkt.HeaderID
	IPv6 pkt.HeaderID
	// numHeaders pre-sizes packet header vectors (max header ID + 1).
	numHeaders int
}

// NewPacket allocates a caller-owned packet for this design with
// istd.in_port stamped. Pooled packets come from Core.GetPacket instead.
func (d *Design) NewPacket(data []byte, inPort int) (*pkt.Packet, error) {
	p := pkt.NewPacket(data, d.Cfg.MetaBytes)
	p.HV.Presize(d.numHeaders)
	if err := StampInPort(p, inPort); err != nil {
		return nil, err
	}
	d.admit(p)
	return p, nil
}

// admit is the admission every packet constructor ends with. The parse
// probe reads the design's root header: a frame too short for it is
// stamped a parse failure by the parser, so a later no-egress finish is
// attributed to the parser rather than the program. The packet still
// traverses the pipeline unchanged (programs that route on metadata alone
// keep working); the probe's result is cached in the header vector, so
// the first stage's own parse is a hit. An INT source design also stamps
// the ingress timestamp.
func (d *Design) admit(p *pkt.Packet) {
	d.Parser.EnsureRoot(p)
	if d.Int != nil {
		p.IngressNanos = d.Int.NowNanos()
	}
}

// Core is the state a switch embeds: the shared fault counters and the
// packet/Env pools. Packet and Env are pooled separately because a batch
// keeps many packets in flight under one Env.
type Core struct {
	faults tsp.Faults

	pktPool sync.Pool
	envPool sync.Pool
}

// NewCore builds a core with empty pools.
func NewCore() *Core {
	c := &Core{}
	c.pktPool.New = func() any { return &pkt.Packet{OutPort: -1} }
	c.envPool.New = func() any { return &tsp.Env{} }
	return c
}

// NewDesign builds the Design for cfg over the register file regs, which
// the caller supplies so each switch keeps its own update semantics
// (ipbm preserves contents additively; pisa resets).
func NewDesign(cfg *template.Config, regs *tsp.RegisterFile) *Design {
	srh, ipv6 := tsp.ResolveSRv6IDs(cfg)
	n := 0
	for i := range cfg.Headers {
		if id := int(cfg.Headers[i].ID) + 1; id > n {
			n = id
		}
	}
	return &Design{
		Cfg:        cfg,
		Parser:     tsp.NewOnDemandParser(cfg),
		Regs:       regs,
		SRH:        srh,
		IPv6:       ipv6,
		numHeaders: n,
	}
}

// Install builds the Design for cfg over regs; the caller publishes it.
func (c *Core) Install(cfg *template.Config, regs *tsp.RegisterFile) *Design {
	return NewDesign(cfg, regs)
}

// Faults exposes the executor fault counters.
func (c *Core) Faults() *tsp.Faults { return &c.faults }

// GetPacket returns a pooled packet wrapping data under design d, with
// reused Meta/header-vector storage and istd.in_port stamped. Return it
// with PutPacket once it cannot be referenced anymore.
func (c *Core) GetPacket(d *Design, data []byte, inPort int) (*pkt.Packet, error) {
	p := c.pktPool.Get().(*pkt.Packet)
	p.ResetFor(data, d.Cfg.MetaBytes)
	p.HV.Presize(d.numHeaders)
	if err := StampInPort(p, inPort); err != nil {
		c.pktPool.Put(p)
		return nil, err
	}
	d.admit(p)
	return p, nil
}

// PutPacket recycles a pooled packet. The caller must not retain p, its
// Data, or its Trace afterwards.
func (c *Core) PutPacket(p *pkt.Packet) {
	p.Data = nil
	p.Trace = nil
	c.pktPool.Put(p)
}

// GetEnv returns a pooled Env bound to design d, its INT context and the
// shared fault counters, with scratch buffers retained across packets.
func (c *Core) GetEnv(d *Design) *tsp.Env {
	e := c.envPool.Get().(*tsp.Env)
	d.bind(e, &c.faults)
	return e
}

// bind points e at the design's registers, SRv6 header IDs and INT
// context, and at faults.
func (d *Design) bind(e *tsp.Env, faults *tsp.Faults) {
	e.Rebind(d.Regs, faults, d.SRH, d.IPv6)
	e.Int = d.Int
}

// PutEnv recycles an Env.
func (c *Core) PutEnv(e *tsp.Env) { c.envPool.Put(e) }

// StampInPort records the ingress port on the packet and in
// istd.in_port, where match templates read it.
func StampInPort(p *pkt.Packet, inPort int) error {
	p.InPort = inPort
	return p.SetMetaBits(template.IstdInPortOff, template.IstdInPortWidth, uint64(inPort))
}

// SurfaceOutPort copies istd.out_port (set by executor actions) onto the
// packet's OutPort field.
func SurfaceOutPort(p *pkt.Packet) {
	if out, err := p.MetaBits(template.IstdOutPortOff, template.IstdOutPortWidth); err == nil {
		p.OutPort = int(out)
	}
}

// Verdict classifies a finished packet. survived is false when the
// packet died without a stage drop (TM admission failure). The parser's
// parse stamp wins over a stage drop and over a missing egress port: the
// frame was too short for a header its parse chain names, so the
// program's catch-all drop action (or its failure to pick an egress)
// merely disposed of a frame nothing could have routed, and filing it as
// policy or no_port would hide a truncated-frame storm from the
// unexpected-loss health detector.
func Verdict(p *pkt.Packet, survived bool, numPorts int) verdict.Verdict {
	parseFailed := p.DropReason == verdict.ReasonParse
	switch {
	case p.Drop && parseFailed:
		return verdict.ParseError
	case p.Drop:
		return verdict.Dropped
	case !survived:
		return verdict.TMDrop
	case p.ToCPU:
		return verdict.ToCPU
	case p.OutPort >= 0 && p.OutPort < numPorts:
		return verdict.Forwarded
	case parseFailed:
		return verdict.ParseError
	default:
		return verdict.NoPort
	}
}
