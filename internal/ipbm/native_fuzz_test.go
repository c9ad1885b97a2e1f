package ipbm

import (
	"sync"
	"testing"

	"ipsa/internal/pkt"
	"ipsa/internal/testbed"
)

var (
	fuzzOnce sync.Once
	fuzzSw   *Switch
)

// fuzzBringUp builds a switch running the SRv6 design, without any
// testing.T plumbing so it can run inside the fuzz engine's worker.
func fuzzBringUp() *Switch {
	cfg, err := testbed.Repo().Incremental(testbed.Compiler(), "srv6.script")
	if err != nil {
		return nil
	}
	sw, err := New(DefaultOptions())
	if err != nil {
		return nil
	}
	if _, err := sw.ApplyConfig(cfg); err != nil {
		return nil
	}
	return sw
}

// FuzzDataPath is a native fuzz target over the packet pipeline with the
// SRv6 design loaded (the largest parsing surface). Under plain `go test`
// the seed corpus runs as regression tests.
func FuzzDataPath(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0x02, 0, 0, 0, 0, 1}, uint8(1))
	valid, _ := pkt.Serialize(
		&pkt.Ethernet{Dst: testbed.RouterMAC, Src: testbed.HostMAC, EtherType: pkt.EtherTypeIPv6},
		&pkt.IPv6{NextHeader: pkt.IPProtoRouting, HopLimit: 64},
		&pkt.SRH{NextHeader: pkt.IPProtoTCP, SegmentsLeft: 1, Segments: [][16]byte{{1}, {2}}},
		&pkt.TCP{SrcPort: 1, DstPort: 2},
	)
	f.Add(valid, uint8(1))
	v4 := []byte{
		0x02, 0, 0, 0, 0, 0x01, 0x02, 0, 0, 0, 0, 0x02, 0x08, 0x00,
		0x45, 0, 0, 20, 0, 0, 0, 0, 64, 6, 0, 0, 10, 0, 0, 1, 10, 0, 0, 2,
	}
	f.Add(v4, uint8(1))

	f.Fuzz(func(t *testing.T, data []byte, port uint8) {
		fuzzOnce.Do(func() { fuzzSw = fuzzBringUp() })
		if fuzzSw == nil {
			t.Skip("switch bring-up failed")
		}
		if _, err := fuzzSw.ProcessPacket(data, int(port)%8); err != nil {
			t.Fatalf("ProcessPacket errored on fuzz input: %v", err)
		}
	})
}
