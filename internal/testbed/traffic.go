package testbed

import (
	"encoding/binary"

	"ipsa/internal/pkt"
	"ipsa/internal/trafficgen"
)

// Mix is the differential mix: routed IPv4 (host and LPM), routed IPv6,
// the 90/10 v4/v6 blend and bridged frames, with unroutable destinations
// among them.
var Mix = []trafficgen.Profile{trafficgen.IPv4Routed, trafficgen.IPv6Routed, trafficgen.Mixed46, trafficgen.L2Bridged}

// CrossTarget is the ipbm-vs-pisa mix: Mix with SRv6 frames to SID.
var CrossTarget = []trafficgen.Profile{trafficgen.IPv4Routed, trafficgen.IPv6Routed, trafficgen.Mixed46, trafficgen.SRv6, trafficgen.L2Bridged}

// generator emits a profile's flows over the test topology: IPv4 to
// 10.1.0.0/16, IPv6 to 2001::/32, SRv6 to SID with 2001:: as the next
// segment, and intHops upstream INT hops stamped on every frame.
func generator(prof trafficgen.Profile, flows, intHops int) (*trafficgen.Generator, error) {
	cfg := trafficgen.DefaultConfig()
	cfg.Profile = prof
	cfg.Flows = flows
	cfg.RouterMAC, cfg.HostMAC = RouterMAC, HostMAC
	cfg.V4Base = [4]byte{10, 1, 0, 0}
	cfg.SID = SID
	cfg.NextSegment[0], cfg.NextSegment[1] = 0x20, 0x01
	cfg.IntHops = intHops
	return trafficgen.New(cfg)
}

// Frames is one frame per flow of each profile in turn, flows per
// profile, each carrying intHops upstream INT hops.
func Frames(t T, flows, intHops int, profiles ...trafficgen.Profile) [][]byte {
	t.Helper()
	var out [][]byte
	for _, prof := range profiles {
		g, err := generator(prof, flows, intHops)
		out = append(out, must(t, g, err).FlowPackets()...)
	}
	return out
}

// VID is the VLAN that vlan.script's vlan_bind maps to BridgeIn.
const VID = 300

// Tagged returns copies of Ethernet frames with an 802.1Q tag for vid
// inserted after the MAC addresses.
func Tagged(vid uint16, frames [][]byte) [][]byte {
	out := make([][]byte, len(frames))
	for i, f := range frames {
		tagged := append(make([]byte, 0, len(f)+pkt.VLANTagLen), f[:12]...)
		tagged = binary.BigEndian.AppendUint16(tagged, pkt.EtherTypeVLAN)
		tagged = binary.BigEndian.AppendUint16(tagged, vid&0x0fff)
		out[i] = append(tagged, f[12:]...) // the frame's EtherType follows the tag
	}
	return out
}
