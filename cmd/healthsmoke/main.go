// healthsmoke is the end-to-end exercise behind `make health-smoke`: it
// boots an ipbm switch in-process with a fast health sampler, verifies
// /readyz flips once a configuration lands, pushes traffic through the
// sharded datapath until /v/health reports nonzero rates, then drives a
// real in-situ update over the control channel and asserts the switch
// stays healthy with the reconfiguration visible in the audit trail.
// Exit status 0 means the health layer works end to end.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ipsa/internal/compiler/backend"
	"ipsa/internal/core"
	"ipsa/internal/ctrlplane"
	"ipsa/internal/experiments"
	"ipsa/internal/health"
	"ipsa/internal/ipbm"
	"ipsa/internal/netio"
	"ipsa/internal/telemetry"
	"ipsa/internal/trafficgen"
)

func main() {
	testdata := flag.String("testdata", "testdata", "directory holding base_l2l3.rp4 and the update scripts")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	flag.Parse()

	logger, err := telemetry.NewLogger(os.Stderr, *logLevel, "text")
	if err != nil {
		fatal(err)
	}
	slog.SetDefault(logger)
	if err := run(*testdata, logger); err != nil {
		fatal(err)
	}
	slog.Info("health smoke passed")
}

func run(testdata string, logger *slog.Logger) error {
	// Boot an unconfigured switch with a fast sampler so the smoke sees
	// several health ticks per second.
	opts := ipbm.DefaultOptions()
	opts.Logger = logger
	opts.HealthInterval = 100 * time.Millisecond
	sw, err := ipbm.New(opts)
	if err != nil {
		return err
	}
	defer sw.Shutdown()

	mux := telemetry.NewServeMux(sw.Telemetry().Reg)
	sw.Views().Register(mux)
	sw.Health().Register(mux)
	ms, err := telemetry.ServeMux("127.0.0.1:0", mux)
	if err != nil {
		return err
	}
	defer ms.Close()
	base := "http://" + ms.Addr()

	// Before any configuration: /readyz must refuse, /healthz must pass
	// (an empty switch is healthy, just not ready).
	if code, _ := get(base + "/readyz"); code != http.StatusServiceUnavailable {
		return fmt.Errorf("/readyz before config: got %d, want 503", code)
	}
	if code, _ := get(base + "/healthz"); code != http.StatusOK {
		return fmt.Errorf("/healthz before config: got %d, want 200", code)
	}

	// Install the base design and its forwarding state through the real
	// control channel, exactly as an external controller would.
	srv := ctrlplane.NewServer(sw, logger)
	ccm, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	cl, err := ctrlplane.Dial(ccm, 3*time.Second)
	if err != nil {
		return err
	}
	defer cl.Close()

	src, err := os.ReadFile(filepath.Join(testdata, "base_l2l3.rp4"))
	if err != nil {
		return err
	}
	copts := backend.DefaultOptions()
	copts.NumTSPs = 16
	ctrl, err := core.NewController("base_l2l3.rp4", string(src), copts, cl)
	if err != nil {
		return err
	}
	if err := experiments.PopulateBase(cl, ctrl.CurrentConfig(), 0); err != nil {
		return err
	}
	if err := waitFor(2*time.Second, func() error {
		code, _ := get(base + "/readyz")
		if code != http.StatusOK {
			return fmt.Errorf("/readyz after config: got %d, want 200", code)
		}
		return nil
	}); err != nil {
		return err
	}
	slog.Info("switch configured and ready", "ccm", ccm, "http", ms.Addr())

	// Push traffic through the sharded datapath and wait until the
	// health layer's windowed rates pick it up.
	if err := sw.RunSharded(2, 8); err != nil {
		return err
	}
	gen, err := trafficgen.New(trafficgen.DefaultConfig())
	if err != nil {
		return err
	}
	inPort, err := sw.Ports().Port(1) // port 1 is mapped by port_map_tbl
	if err != nil {
		return err
	}
	var ports []*netio.ChanPort
	for i := 0; i < sw.Ports().Len(); i++ {
		p, err := sw.Ports().Port(i)
		if err != nil {
			return err
		}
		ports = append(ports, p)
	}
	// A closed loop, as the benchmark drives it: an egress ring nobody
	// drains refuses every transmit once full, which the health layer
	// would rightly report as a drop spike. So every pass drains every
	// port, and a frame is injected only while fewer than maxInFlight are
	// inside the switch.
	const maxInFlight = 256
	stopInject := make(chan struct{})
	defer close(stopInject)
	go func() {
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
	if err := waitFor(5*time.Second, func() error {
		code, body := get(base + "/v/health?window=2s")
		if code != http.StatusOK {
			return fmt.Errorf("/v/health: got %d, want 200", code)
		}
		st = health.Status{}
		if err := json.Unmarshal(body, &st); err != nil {
			return err
		}
		if st.PPS <= 0 {
			return fmt.Errorf("/v/health reports pps=%.1f, want > 0", st.PPS)
		}
		return nil
	}); err != nil {
		return err
	}
	slog.Info("traffic visible in health rates", "pps", st.PPS, "state", st.State, "lanes", len(st.Lanes))
	if st.State != "healthy" {
		return fmt.Errorf("state under traffic: got %q (%s), want healthy", st.State, st.Reason)
	}

	// Drive a real in-situ update (add ACL) over the CCM; the
	// drain-and-swap must complete, land in the audit trail, and leave
	// the switch healthy.
	script, err := os.ReadFile(filepath.Join(testdata, "acl.script"))
	if err != nil {
		return err
	}
	loader := func(name string) (string, error) {
		b, err := os.ReadFile(filepath.Join(testdata, name))
		return string(b), err
	}
	rep, err := ctrl.ApplyUpdate(string(script), loader)
	if err != nil {
		return err
	}
	slog.Info("in-situ update applied", "full", rep.Device.Full,
		"tsps_written", rep.Device.TSPsWritten, "load", rep.LoadTime)

	var events []telemetry.Event
	if err := cl.View("events", telemetry.Query{}, &events); err != nil {
		return err
	}
	applySeen := false
	for _, ev := range events {
		if ev.Kind == "apply_patch" || ev.Kind == "apply_diff" || ev.Kind == "apply_full" {
			applySeen = true
		}
		if ev.Kind == "health_degraded" || ev.Kind == "health_stalled" {
			return fmt.Errorf("unexpected %s event: %s", ev.Kind, ev.Detail)
		}
	}
	if !applySeen {
		return fmt.Errorf("no apply event in the audit trail after the update (%d events)", len(events))
	}

	// The reconfiguration must read healthy over the CCM too: the op is
	// finished (nothing wedged) and the aggregate state stays healthy
	// through the post-apply anomaly window.
	return waitFor(3*time.Second, func() error {
		var hs health.Status
		if err := cl.View("health", telemetry.Query{Window: 2 * time.Second}, &hs); err != nil {
			return err
		}
		if len(hs.Ops) != 0 {
			return fmt.Errorf("reconfiguration still in flight: %+v", hs.Ops)
		}
		if hs.State != "healthy" {
			return fmt.Errorf("state after update: got %q (%s), want healthy", hs.State, hs.Reason)
		}
		return nil
	})
}

// get fetches a URL, returning the status code and body (0 on transport
// error).
func get(url string) (int, []byte) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

// waitFor retries fn until it succeeds or the deadline passes.
func waitFor(d time.Duration, fn func() error) error {
	deadline := time.Now().Add(d)
	for {
		err := fn()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func fatal(err error) {
	slog.Error("health smoke failed", "err", err)
	os.Exit(1)
}
