package ipbm

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ipsa/internal/pkt"
	"ipsa/internal/testbed"
)

// TestSoakUpdatesUnderTraffic alternates the probe function in and out of
// a switch forwarding from four goroutines. The whole point of IPSA is
// that this sequence is safe: no packet errors, no faults, and forwarding
// works after every generation.
func TestSoakUpdatesUnderTraffic(t *testing.T) {
	rounds := 30
	if testing.Short() {
		rounds = 6
	}
	sw, w := newBaseSwitch(t)
	var stop atomic.Bool
	var processed atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed byte) {
			defer wg.Done()
			for !stop.Load() {
				p, err := sw.ProcessPacket(v4Packet(t, [4]byte{10, 1, seed, 1}, testbed.RouterMAC, 64), testbed.InPort)
				if err != nil {
					t.Error(err)
					return
				}
				if p.Drop {
					t.Error("routed packet dropped mid-soak")
					return
				}
				processed.Add(1)
			}
		}(byte(g))
	}
	loadProbe := testbed.Script(t, "flowprobe.script")
	unloadProbe := "unload probe\nadd_link ipv4_lpm_fib ipv6_host_fib\n"
	for i := 0; i < rounds; i++ {
		s := loadProbe
		if i%2 == 1 {
			s = unloadProbe
		}
		rep, err := w.ApplyScript(s, testbed.Repo().Read)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if _, err := sw.ApplyConfig(rep.Config); err != nil {
			t.Fatalf("round %d apply: %v", i, err)
		}
	}
	// On a loaded single-CPU host the forwarding goroutines can be starved
	// for the whole (fast) update loop; give them a bounded window to
	// prove traffic flows before stopping.
	deadline := time.Now().Add(10 * time.Second)
	for processed.Load() == 0 && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()
	if processed.Load() == 0 {
		t.Fatal("no traffic flowed during soak")
	}
	if f := sw.Faults(); f.BadTemplate.Load() != 0 || f.InvalidHeaderAccess.Load() != 0 {
		t.Errorf("faults after soak: bad=%d invalid=%d",
			f.BadTemplate.Load(), f.InvalidHeaderAccess.Load())
	}
	// Forwarding still correct after the final generation.
	p, err := sw.ProcessPacket(v4Packet(t, [4]byte{10, 0, 0, 2}, testbed.RouterMAC, 64), testbed.InPort)
	if err != nil || p.Drop || p.OutPort != testbed.OutPort {
		t.Fatalf("post-soak: err=%v drop=%v out=%d", err, p.Drop, p.OutPort)
	}
	var ip pkt.IPv4
	_ = ip.Decode(p.Data[pkt.EthernetLen:])
	if ip.TTL != 63 {
		t.Errorf("post-soak ttl = %d", ip.TTL)
	}
}
