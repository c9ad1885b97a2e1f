package health

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ipsa/internal/telemetry"
)

// harness builds a manual-mode Health (no ticker) over a synthetic
// clock; tests advance the clock and call Check directly.
type harness struct {
	h      *Health
	reg    *telemetry.Registry
	events *telemetry.EventLog
	now    int64
}

func newHarness(t *testing.T, mut func(*Options)) *harness {
	t.Helper()
	hn := &harness{
		reg:    telemetry.NewRegistry(),
		events: telemetry.NewEventLog(64),
		now:    int64(1e9),
	}
	o := Options{
		Registry: hn.reg,
		Events:   hn.events,
		Log:      slog.New(slog.NewTextHandler(io.Discard, nil)),
		Interval: -1, // manual mode
		Now:      func() int64 { return hn.now },
	}
	if mut != nil {
		mut(&o)
	}
	hn.h = New(o)
	return hn
}

func (hn *harness) check(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		hn.now += int64(time.Second)
		hn.h.Check(hn.now)
	}
}

func (hn *harness) hasEvent(kind string) bool {
	for _, ev := range hn.events.Dump(0) {
		if ev.Kind == kind {
			return true
		}
	}
	return false
}

func (hn *harness) gaugeValue() int64 {
	return hn.reg.Gauge("ipsa_health_state").Value()
}

// TestWatchdogStallAndRecover freezes one of two lanes' heartbeats with
// work queued: the switch must degrade (not stall — the other lane is
// alive), export it on the gauge and in the event ring, and recover once
// the heartbeat moves again.
func TestWatchdogStallAndRecover(t *testing.T) {
	hn := newHarness(t, nil)
	var beatA, beatB uint64
	pending := 5
	hn.h.AddLane(Lane{Name: "shard-0", Progress: func() uint64 { return beatA }, Pending: func() int { return pending }})
	hn.h.AddLane(Lane{Name: "shard-1", Progress: func() uint64 { return beatB }, Pending: func() int { return pending }})

	// Both lanes making progress: healthy.
	for i := 0; i < 5; i++ {
		beatA++
		beatB++
		hn.check(t, 1)
	}
	if st := hn.h.State(); st != StateHealthy {
		t.Fatalf("state with live lanes = %v, want healthy", st)
	}

	// Freeze lane A with work queued; B keeps beating. stallRounds=3
	// consecutive frozen checks flag it.
	for i := 0; i < 4; i++ {
		beatB++
		hn.check(t, 1)
	}
	if st := hn.h.State(); st != StateDegraded {
		t.Fatalf("state with one frozen lane = %v, want degraded", st)
	}
	if v := hn.gaugeValue(); v != int64(StateDegraded) {
		t.Fatalf("ipsa_health_state = %d, want %d", v, StateDegraded)
	}
	if !hn.hasEvent("health_degraded") {
		t.Fatal("no health_degraded event after lane stall")
	}
	st := hn.h.Status(0)
	var stalled int
	for _, l := range st.Lanes {
		if l.State == "stalled" {
			stalled++
		}
	}
	if stalled != 1 {
		t.Fatalf("stalled lanes in status = %d, want 1", stalled)
	}

	// Lane A wakes up: recovery.
	beatA++
	beatB++
	hn.check(t, 1)
	if st := hn.h.State(); st != StateHealthy {
		t.Fatalf("state after recovery = %v, want healthy", st)
	}
	if !hn.hasEvent("health_recovered") {
		t.Fatal("no health_recovered event after lane recovery")
	}
}

// TestWatchdogTMEmptyGuard freezes a heartbeat with NO work queued: an
// idle lane must never be flagged, no matter how long it sits.
func TestWatchdogTMEmptyGuard(t *testing.T) {
	hn := newHarness(t, nil)
	hn.h.AddLane(Lane{Name: "shard-0", Progress: func() uint64 { return 42 }, Pending: func() int { return 0 }})
	hn.check(t, 20)
	if st := hn.h.State(); st != StateHealthy {
		t.Fatalf("idle lane flagged: state = %v, want healthy", st)
	}
}

// TestWatchdogAllLanesStalled: when every lane is frozen with work
// queued the verdict escalates from degraded to stalled.
func TestWatchdogAllLanesStalled(t *testing.T) {
	hn := newHarness(t, nil)
	hn.h.AddLane(Lane{Name: "shard-0", Progress: func() uint64 { return 7 }, Pending: func() int { return 3 }})
	hn.h.AddLane(Lane{Name: "shard-1", Progress: func() uint64 { return 9 }, Pending: func() int { return 3 }})
	hn.check(t, 5)
	if st := hn.h.State(); st != StateStalled {
		t.Fatalf("state with all lanes frozen = %v, want stalled", st)
	}
	if !hn.hasEvent("health_stalled") {
		t.Fatal("no health_stalled event")
	}
}

// TestReconfigDeadline starts a reconfiguration whose retired version
// never quiesces: the monitor must report it wedged (degraded + event)
// instead of hanging, and clear once the op completes.
func TestReconfigDeadline(t *testing.T) {
	hn := newHarness(t, nil)
	var quiesced atomic.Bool
	done := func() { quiesced.Store(true) }
	hn.h.BeginOpWatch("apply_diff", "cafebabe", quiesced.Load)

	// Within the 2s default deadline: still healthy.
	hn.check(t, 1)
	if st := hn.h.State(); st != StateHealthy {
		t.Fatalf("state before deadline = %v, want healthy", st)
	}
	// Past the deadline: wedged.
	hn.check(t, 3)
	if st := hn.h.State(); st != StateDegraded {
		t.Fatalf("state past deadline = %v, want degraded", st)
	}
	if !hn.hasEvent("health_degraded") {
		t.Fatal("no health_degraded event for the wedged reconfiguration")
	}
	var wedgedDetail bool
	for _, ev := range hn.events.Dump(0) {
		if ev.Kind == "health_degraded" && strings.Contains(ev.Detail, "wedged") &&
			ev.ConfigHash == "cafebabe" {
			wedgedDetail = true
		}
	}
	if !wedgedDetail {
		t.Fatal("wedged event lacks op detail/config hash")
	}
	st := hn.h.Status(0)
	if len(st.Ops) != 1 || !st.Ops[0].Wedged {
		t.Fatalf("status ops = %+v, want one wedged op", st.Ops)
	}

	// The drain finally completes: op pruned, state recovers.
	done()
	hn.check(t, 1)
	if st := hn.h.State(); st != StateHealthy {
		t.Fatalf("state after op completion = %v, want healthy", st)
	}
	if n := len(hn.h.Status(0).Ops); n != 0 {
		t.Fatalf("ops after completion = %d, want 0", n)
	}
}

// TestDropSpikeAfterApply: a reconfiguration event arms the verdict-
// delta anomaly check; a post-apply drop-rate spike beyond baseline
// degrades the switch, and it recovers when the loss subsides.
func TestDropSpikeAfterApply(t *testing.T) {
	var packets, drops uint64
	hn := newHarness(t, func(o *Options) {
		o.Packets = func() uint64 { return packets }
		o.Drops = func() uint64 { return drops }
	})

	// Clean traffic history.
	for i := 0; i < 5; i++ {
		packets += 1000
		hn.check(t, 1)
	}
	// The reconfiguration lands...
	hn.events.Append(telemetry.Event{Kind: "apply_diff", ConfigHash: "deadbeef"})
	// ...and drops surge: 50% loss, far beyond the ~0 baseline.
	for i := 0; i < 3; i++ {
		packets += 1000
		drops += 500
		hn.check(t, 1)
	}
	if st := hn.h.State(); st != StateDegraded {
		t.Fatalf("state during post-apply drop spike = %v, want degraded", st)
	}
	if !hn.hasEvent("health_degraded") {
		t.Fatal("no health_degraded event for the drop spike")
	}

	// Loss stops; once the window slides clear the switch recovers.
	for i := 0; i < 10; i++ {
		packets += 1000
		hn.check(t, 1)
	}
	if st := hn.h.State(); st != StateHealthy {
		t.Fatalf("state after spike cleared = %v, want healthy (reason %q)",
			st, hn.h.Status(0).Reason)
	}
}

// TestHTTPEndpoints drives the health views, /healthz and /readyz over
// real HTTP.
func TestHTTPEndpoints(t *testing.T) {
	ready := false
	hn := newHarness(t, func(o *Options) {
		o.Ready = func() bool { return ready }
	})
	mux := http.NewServeMux()
	hn.h.Register(mux)
	views := telemetry.NewViews()
	hn.h.AddViews(views)
	views.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) int {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz unready = %d, want 503", code)
	}
	ready = true
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz ready = %d, want 200", code)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz healthy = %d, want 200", code)
	}
	for _, path := range []string{"/v/health?window=5s", "/v/rates?window=5s"} {
		if code := get(path); code != http.StatusOK {
			t.Fatalf("%s = %d, want 200", path, code)
		}
	}

	// All lanes stalled → stalled → liveness fails.
	hn.h.AddLane(Lane{Name: "shard-0", Progress: func() uint64 { return 1 }, Pending: func() int { return 1 }})
	hn.check(t, 5)
	if code := get("/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz stalled = %d, want 503", code)
	}
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz stalled = %d, want 503", code)
	}
}
