package ipbm

import (
	"testing"
	"time"

	"ipsa/internal/pkt"
	"ipsa/internal/testbed"
)

// newManualHealthSwitch builds the base switch with the health sampler in
// manual mode: tests drive Check() with a synthetic clock instead of
// waiting on the 1s ticker.
func newManualHealthSwitch(t *testing.T) *Switch {
	t.Helper()
	sw, _ := newBaseSwitchOpts(t, func(opts *Options) {
		opts.HealthInterval = -1
		opts.LatencyEvery = 1 // sample every packet so latency assertions are deterministic
	})
	return sw
}

// TestHealthReadiness: /readyz's backing predicate flips once a
// configuration is installed.
func TestHealthReadiness(t *testing.T) {
	sw, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sw.Health().Ready() {
		t.Fatal("switch ready before any configuration")
	}
	w := testbed.Workspace(t)
	if _, err := sw.ApplyConfig(w.Current().Config); err != nil {
		t.Fatal(err)
	}
	if !sw.Health().Ready() {
		t.Fatal("switch not ready after ApplyConfig")
	}
}

// TestShardStallDegradesHealth deliberately freezes one shard worker via
// the gate hook while frames queue behind it, and asserts the full
// acceptance chain: watchdog flags the lane, ipsa_health_state moves to
// degraded, a health_degraded event lands in the audit ring — then the
// lane recovers once released.
func TestShardStallDegradesHealth(t *testing.T) {
	sw := newManualHealthSwitch(t)
	defer sw.Shutdown()
	if err := sw.RunSharded(2, 4); err != nil {
		t.Fatal(err)
	}
	h := sw.Health()
	gauge := sw.Telemetry().Reg.Gauge("ipsa_health_state")

	frame := v4Packet(t, [4]byte{10, 1, 0, 5}, testbed.RouterMAC, 64)
	target := int(pkt.RSSHash(frame) % 2)
	release, err := sw.blockShard(target)
	if err != nil {
		t.Fatal(err)
	}

	// One frame wakes the worker into the gate; the rest pile up behind
	// it so the lane has work queued while its heartbeat is frozen.
	in, err := sw.Ports().Port(testbed.InPort)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		in.Inject(frame)
	}
	// Wait until the reader has steered frames into the blocked shard's
	// queue (pending > 0 is what arms the stall detector).
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := sw.health.Status(0)
		pending := 0
		for _, l := range st.Lanes {
			pending += l.Pending
		}
		if pending > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("frames never queued behind the blocked shard")
		}
		time.Sleep(5 * time.Millisecond)
	}

	now := time.Now().UnixNano()
	check := func(n int) {
		for i := 0; i < n; i++ {
			now += int64(time.Second)
			h.Check(now)
		}
	}
	check(5) // prime + StallRounds(3) frozen checks
	if st := h.State(); st.String() != "degraded" {
		t.Fatalf("state with one blocked shard = %v, want degraded", st)
	}
	if v := gauge.Value(); v != 1 {
		t.Fatalf("ipsa_health_state = %d, want 1 (degraded)", v)
	}
	var sawDegraded bool
	for _, ev := range sw.Telemetry().Events.Dump(0) {
		if ev.Kind == "health_degraded" {
			sawDegraded = true
		}
	}
	if !sawDegraded {
		t.Fatal("no health_degraded event in the audit ring")
	}
	st := sw.health.Status(0)
	stalled := ""
	for _, l := range st.Lanes {
		if l.State == "stalled" {
			stalled = l.Name
		}
	}
	if want := "shard-" + string(rune('0'+target)); stalled != want {
		t.Fatalf("stalled lane = %q, want %q", stalled, want)
	}

	// Release the gate: the shard drains its backlog and the next checks
	// see progress again.
	release()
	deadline = time.Now().Add(2 * time.Second)
	for {
		check(1)
		if h.State().String() == "healthy" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("state never recovered: %v (%s)", h.State(), sw.health.Status(0).Reason)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if v := gauge.Value(); v != 0 {
		t.Fatalf("ipsa_health_state after recovery = %d, want 0", v)
	}
	var sawRecovered bool
	for _, ev := range sw.Telemetry().Events.Dump(0) {
		if ev.Kind == "health_recovered" {
			sawRecovered = true
		}
	}
	if !sawRecovered {
		t.Fatal("no health_recovered event in the audit ring")
	}
}

// TestHealthQueryRates drives traffic through the synchronous path and
// checks the CCM health payload reports nonzero throughput with the
// verdict counters feeding PPS.
func TestHealthQueryRates(t *testing.T) {
	sw := newManualHealthSwitch(t)
	h := sw.Health()
	frame := v4Packet(t, [4]byte{10, 1, 0, 5}, testbed.RouterMAC, 64)

	now := time.Now().UnixNano()
	h.Check(now)
	buf := make([]byte, len(frame))
	for i := 0; i < 5; i++ {
		for j := 0; j < 200; j++ {
			// ProcessPacket rewrites the frame in place (TTL, MACs), so
			// feed it a fresh copy each round.
			copy(buf, frame)
			if _, err := sw.ProcessPacket(buf, testbed.InPort); err != nil {
				t.Fatal(err)
			}
		}
		now += int64(time.Second)
		h.Check(now)
	}
	st := sw.health.Status(10 * time.Second)
	if st.PPS <= 0 {
		t.Fatalf("PPS = %v, want > 0", st.PPS)
	}
	if st.State != "healthy" {
		t.Fatalf("state = %q (%s), want healthy", st.State, st.Reason)
	}
	// With LatencyEvery=1 every packet feeds the per-TSP histograms, so
	// the windowed latency view must be populated.
	if st.Latency == nil || st.Latency.Count == 0 {
		t.Fatal("no windowed latency distribution in the health payload")
	}
	if st.Samples < 2 {
		t.Fatalf("ring samples = %d, want >= 2", st.Samples)
	}
}
