package ipsa

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"testing"
	"time"

	"ipsa/internal/core"
	"ipsa/internal/ctrlplane"
	"ipsa/internal/experiments"
	"ipsa/internal/health"
	"ipsa/internal/ipbm"
	"ipsa/internal/netio"
	"ipsa/internal/telemetry"
	"ipsa/internal/testbed"
	"ipsa/internal/trafficgen"
)

// TestHealthEndToEnd drives the health layer the way an operator sees
// it: an ipbm switch with a fast sampler behind the real HTTP endpoints
// and control channel. /readyz flips once a configuration lands, the
// windowed rates of /v/health pick up traffic through the sharded
// datapath, and a live in-situ update over the CCM lands in the audit
// trail while the switch stays healthy.
func TestHealthEndToEnd(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	opts := ipbm.DefaultOptions()
	opts.Logger = logger
	opts.HealthInterval = 100 * time.Millisecond
	sw, err := ipbm.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Shutdown()

	mux := telemetry.NewServeMux(sw.Telemetry().Reg)
	sw.Views().Register(mux)
	sw.Health().Register(mux)
	ms, err := telemetry.ServeMux("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	base := "http://" + ms.Addr()

	// An empty switch is healthy, just not ready.
	if code, _ := httpGet(base + "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before config: got %d, want 503", code)
	}
	if code, _ := httpGet(base + "/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz before config: got %d, want 200", code)
	}

	// Install the base design and its forwarding state through the
	// control channel, as an external controller would.
	srv := ctrlplane.NewServer(sw, logger)
	ccm, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := ctrlplane.Dial(ccm, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctrl, err := core.NewController("base_l2l3.rp4", testbed.Script(t, "base_l2l3.rp4"), testbed.Compiler(), cl)
	if err != nil {
		t.Fatal(err)
	}
	if err := experiments.PopulateBase(cl, ctrl.CurrentConfig(), 0); err != nil {
		t.Fatal(err)
	}
	eventually(t, 2*time.Second, func() string {
		if code, _ := httpGet(base + "/readyz"); code != http.StatusOK {
			return "/readyz after config: not 200"
		}
		return ""
	})

	// Traffic through the sharded datapath, in a closed loop: every pass
	// drains every port, and a frame is injected only while fewer than
	// 256 are inside the switch. An egress ring nobody drains refuses
	// every transmit once full, which the health layer would rightly
	// report as a drop spike.
	if err := sw.RunSharded(2, 8); err != nil {
		t.Fatal(err)
	}
	gen, err := trafficgen.New(trafficgen.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var ports []*netio.ChanPort
	for i := 0; i < sw.Ports().Len(); i++ {
		p, err := sw.Ports().Port(i)
		if err != nil {
			t.Fatal(err)
		}
		ports = append(ports, p)
	}
	inPort := ports[1] // port 1 is mapped by port_map_tbl
	stopInject := make(chan struct{})
	injectDone := make(chan struct{})
	defer func() { close(stopInject); <-injectDone }()
	go func() {
		defer close(injectDone)
		const maxInFlight = 256
		var injected, drained int
		for {
			select {
			case <-stopInject:
				return
			default:
			}
			for _, p := range ports {
				for {
					if _, ok := p.Drain(); !ok {
						break
					}
					drained++
				}
			}
			switch {
			case injected-drained >= maxInFlight:
				runtime.Gosched()
			case inPort.Inject(gen.Next()):
				injected++
			default:
				time.Sleep(time.Millisecond)
			}
		}
	}()

	var st health.Status
	eventually(t, 5*time.Second, func() string {
		code, body := httpGet(base + "/v/health?window=2s")
		if code != http.StatusOK {
			return "/v/health: not 200"
		}
		st = health.Status{}
		if err := json.Unmarshal(body, &st); err != nil {
			return err.Error()
		}
		if st.PPS <= 0 {
			return "/v/health reports no packets per second"
		}
		return ""
	})
	if st.State != "healthy" {
		t.Fatalf("state under traffic: got %q (%s), want healthy", st.State, st.Reason)
	}

	// A real in-situ update (add the ACL) over the CCM: it lands in the
	// audit trail and degrades nothing.
	if _, err := ctrl.ApplyUpdate(testbed.Script(t, "acl.script"), testbed.Repo().Read); err != nil {
		t.Fatal(err)
	}
	var events []telemetry.Event
	if err := cl.View("events", telemetry.Query{}, &events); err != nil {
		t.Fatal(err)
	}
	applySeen := false
	for _, ev := range events {
		if ev.Kind == "apply_diff" || ev.Kind == "apply_full" {
			applySeen = true
		}
		if ev.Kind == "health_degraded" || ev.Kind == "health_stalled" {
			t.Fatalf("unexpected %s event: %s", ev.Kind, ev.Detail)
		}
	}
	if !applySeen {
		t.Fatalf("no apply event in the audit trail after the update (%d events)", len(events))
	}

	// Over the CCM too: the reconfiguration finished (nothing wedged) and
	// the switch stays healthy through the post-apply anomaly window.
	eventually(t, 3*time.Second, func() string {
		var hs health.Status
		if err := cl.View("health", telemetry.Query{Window: 2 * time.Second}, &hs); err != nil {
			return err.Error()
		}
		if len(hs.Ops) != 0 {
			return "reconfiguration still in flight"
		}
		if hs.State != "healthy" {
			return "state after update: " + hs.State + " (" + hs.Reason + ")"
		}
		return ""
	})
}

// httpGet fetches a URL, returning the status code and body (0 on a
// transport error).
func httpGet(url string) (int, []byte) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

// eventually retries check, which returns what is still wrong ("" when
// nothing is), until it passes or d has gone by.
func eventually(t *testing.T, d time.Duration, check func() string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		wrong := check()
		if wrong == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal(wrong)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
