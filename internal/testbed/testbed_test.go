package testbed_test

import (
	"strings"
	"testing"

	"ipsa/internal/ipbm"
	"ipsa/internal/pkt"
	"ipsa/internal/testbed"
)

// faulty wraps a real switch and plants one fault in the packet its
// call-th ProcessPacket returns.
type faulty struct {
	testbed.Forwarder
	call, calls int
	plant       func(*pkt.Packet)
}

func (f *faulty) ProcessPacket(data []byte, inPort int) (*pkt.Packet, error) {
	p, err := f.Forwarder.ProcessPacket(data, inPort)
	if err == nil && f.calls == f.call {
		f.plant(p)
	}
	f.calls++
	return p, err
}

func baseSwitch(t *testing.T) *ipbm.Switch {
	t.Helper()
	sw, err := ipbm.New(ipbm.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testbed.Config(t, "")
	if _, err := sw.ApplyConfig(cfg); err != nil {
		t.Fatal(err)
	}
	testbed.Populate(t, sw, cfg, testbed.Base())
	return sw
}

// TestDiffCatchesPlantedFaults: Diff names the frame and the field of a
// one-byte rewrite, a changed out port and a dropped packet, passes two
// clean switches, and refuses a row that forwards less than its floor.
func TestDiffCatchesPlantedFaults(t *testing.T) {
	frames := testbed.Frames(t, 8, 0, testbed.Mix...)
	const at = 5 // a routed IPv4 frame
	if err := testbed.Diff(baseSwitch(t), baseSwitch(t), frames, len(frames)); err != nil {
		t.Fatalf("clean switches: %v", err)
	}
	for _, c := range []struct {
		field string
		plant func(*pkt.Packet)
	}{
		{"bytes: first difference at offset 20", func(p *pkt.Packet) { p.Data[20] ^= 1 }},
		{"out_port: a=3 b=4", func(p *pkt.Packet) { p.OutPort++ }},
		{"drop: a=false b=true", func(p *pkt.Packet) { p.Drop = true }},
	} {
		b := &faulty{Forwarder: baseSwitch(t), call: at, plant: c.plant}
		err := testbed.Diff(baseSwitch(t), b, frames, 0)
		if err == nil || !strings.HasPrefix(err.Error(), "frame 5 of 32 ") || !strings.Contains(err.Error(), c.field) {
			t.Errorf("planted %q: Diff said %v", c.field, err)
		}
	}
	err := testbed.Diff(baseSwitch(t), baseSwitch(t), frames, len(frames)+1)
	if err == nil || !strings.Contains(err.Error(), "32 of 32 frames forwarded, below the row's floor of 33") {
		t.Errorf("floor above the forwarded count: Diff said %v", err)
	}
}
