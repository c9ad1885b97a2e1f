// Package testbed is the one world every differential oracle runs in: the
// test topology, the shipped designs (the rP4 base plus an update script
// committed incrementally, and the P4-full compile of the same use case),
// each entry set, the traffic profiles, and Diff, which pushes the same
// frames through two Forwarders and names the first divergence.
//
// It is ordinary code only because Go cannot share _test.go files across
// packages. It imports neither switch nor tsp or dataplane, so the
// internal tests of ipbm, pisa and tsp can all use it.
package testbed

import (
	"bytes"
	"fmt"

	"ipsa/internal/ctrlplane"
	"ipsa/internal/pkt"
)

// The test topology of the base L2/L3 design: frames enter on InPort,
// whose interface maps to bridge BridgeIn in VRF VrfID; routed frames
// leave through next hop NexthopID on bridge BridgeOut to OutPort, and
// frames bridged to HostMAC leave on L2Port.
const (
	InPort    = 1
	OutPort   = 3
	L2Port    = 5
	IifIndex  = 10
	BridgeIn  = 100
	BridgeOut = 200
	VrfID     = 1
	NexthopID = 7
)

// The topology's MAC addresses: the router's own, a bridged host's, the
// next hop's and the router's egress source MAC.
var (
	RouterMAC = pkt.MAC{0x02, 0, 0, 0, 0, 0x01}
	HostMAC   = pkt.MAC{0x02, 0, 0, 0, 0, 0x02}
	NhMAC     = pkt.MAC{0x02, 0, 0, 0, 0, 0x03}
	SmacMAC   = pkt.MAC{0x02, 0, 0, 0, 0, 0x04}
)

// T is the part of testing.TB the testbed's failing helpers use.
type T interface {
	Helper()
	Fatal(args ...any)
}

// must fails t on err and returns v.
func must[V any](t T, v V, err error) V {
	if err != nil {
		t.Helper()
		t.Fatal(err)
	}
	return v
}

// EntryTarget is anything that accepts table entries: a switch or a CCM
// client.
type EntryTarget interface {
	InsertEntry(req ctrlplane.EntryReq) (int, error)
}

// Forwarder is a switch under an oracle: ipbm's and pisa's Switch both
// satisfy it.
type Forwarder interface {
	EntryTarget
	ProcessPacket(data []byte, inPort int) (*pkt.Packet, error)
}

// Diff pushes each frame through a and b on InPort, each switch getting
// its own copy, and returns an error naming the first frame whose
// outcome differs: the drop bit, the to-CPU bit, the out port or a byte.
// It also fails when fewer than floor frames were forwarded, so that a
// row whose designs drop everything cannot pass vacuously.
func Diff(a, b Forwarder, frames [][]byte, floor int) error {
	forwarded := 0
	for i, raw := range frames {
		pa, err := a.ProcessPacket(append([]byte(nil), raw...), InPort)
		if err != nil {
			return fmt.Errorf("frame %d: a: %w", i, err)
		}
		pb, err := b.ProcessPacket(append([]byte(nil), raw...), InPort)
		if err != nil {
			return fmt.Errorf("frame %d: b: %w", i, err)
		}
		if err := Compare(pa, pb); err != nil {
			return fmt.Errorf("frame %d of %d (%x): %w", i, len(frames), raw, err)
		}
		if !pa.Drop && !pa.ToCPU {
			forwarded++
		}
	}
	if forwarded < floor {
		return fmt.Errorf("only %d of %d frames forwarded, below the row's floor of %d", forwarded, len(frames), floor)
	}
	return nil
}

// Compare names the first observable field in which two processed
// packets differ, or returns nil.
func Compare(pa, pb *pkt.Packet) error {
	switch {
	case pa.Drop != pb.Drop:
		return fmt.Errorf("drop: a=%v b=%v", pa.Drop, pb.Drop)
	case pa.ToCPU != pb.ToCPU:
		return fmt.Errorf("to_cpu: a=%v b=%v", pa.ToCPU, pb.ToCPU)
	case pa.OutPort != pb.OutPort:
		return fmt.Errorf("out_port: a=%d b=%d", pa.OutPort, pb.OutPort)
	case !bytes.Equal(pa.Data, pb.Data):
		off := 0
		for off < len(pa.Data) && off < len(pb.Data) && pa.Data[off] == pb.Data[off] {
			off++
		}
		return fmt.Errorf("bytes: first difference at offset %d (a %d B, b %d B):\na: %x\nb: %x",
			off, len(pa.Data), len(pb.Data), pa.Data, pb.Data)
	}
	return nil
}
