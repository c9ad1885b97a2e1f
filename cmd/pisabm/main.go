// pisabm runs the PISA behavioral-model baseline switch (the bmv2
// equivalent): fixed stages, front parser, full-reload-only updates. It
// speaks the same control channel as ipbm so rp4ctl drives both; of
// ipbm's views it serves metrics, stats, int, health and rates.
//
// Usage:
//
//	pisabm -listen 127.0.0.1:9902 [-config config.json] [-metrics-addr 127.0.0.1:9912]
//	       [-log-level info] [-log-format text]
package main

import (
	"errors"
	"flag"
	"log/slog"
	"os"
	"os/signal"
	"syscall"

	"ipsa/internal/ctrlplane"
	"ipsa/internal/health"
	"ipsa/internal/pisa"
	"ipsa/internal/telemetry"
	"ipsa/internal/template"
	"ipsa/internal/tsp"
	"ipsa/internal/verdict"
)

// device adapts pisa.Switch to the ctrlplane.Device interface: the
// operations the baseline lacks answer with an error, and views holds
// the subset of ipbm's views it has.
type device struct {
	*pisa.Switch
	views *telemetry.Views
}

var errBaseline = errors.New("pisabm: per-entry deletion and edit scripts are not part of the baseline model")

func (d device) DeleteEntry(string, int) error                          { return errBaseline }
func (d device) Edit([]ctrlplane.EditOp) (*ctrlplane.ApplyStats, error) { return nil, errBaseline }
func (d device) Views() *telemetry.Views                                { return d.views }

func main() {
	listen := flag.String("listen", "127.0.0.1:9902", "control channel listen address")
	configFile := flag.String("config", "", "initial device configuration JSON (optional)")
	ingress := flag.Int("ingress-stages", 12, "fixed ingress stage count")
	egress := flag.Int("egress-stages", 4, "fixed egress stage count")
	metricsAddr := flag.String("metrics-addr", "", "HTTP scrape endpoint (/metrics Prometheus text, /v/<view> JSON views, /healthz, /readyz); empty disables")
	execFlag := flag.String("exec", "fused", "stage executor: fused (compiled closures) or interp (reference tree-walker)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	logFormat := flag.String("log-format", "text", "log format: text or json")
	flag.Parse()

	logger, err := telemetry.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fatal(err)
	}
	slog.SetDefault(logger)

	execMode, err := tsp.ParseExecMode(*execFlag)
	if err != nil {
		fatal(err)
	}
	opts := pisa.DefaultOptions()
	opts.IngressStages = *ingress
	opts.EgressStages = *egress
	opts.Exec = execMode
	opts.Logger = logger
	sw, err := pisa.New(opts)
	if err != nil {
		fatal(err)
	}
	if *configFile != "" {
		b, err := os.ReadFile(*configFile)
		if err != nil {
			fatal(err)
		}
		cfg, err := template.Unmarshal(b)
		if err != nil {
			fatal(err)
		}
		if _, err := sw.ApplyConfig(cfg); err != nil {
			fatal(err)
		}
	}

	reg := telemetry.NewRegistry()
	telemetry.RegisterRuntimeMetrics(reg)
	// pisa_packets_total{verdict} counts every finished packet once, like
	// ipbm's ipsa_packets_total.
	reg.AddCollector(func(emit func(telemetry.MetricPoint)) {
		snap := sw.VerdictSnapshot()
		for v := 1; v < len(snap); v++ {
			emit(telemetry.MetricPoint{Name: "pisa_packets_total", Kind: "counter",
				Labels: []telemetry.Label{{Key: "verdict", Value: verdict.Verdict(v).String()}},
				Value:  float64(snap[v])})
		}
	})
	h := health.New(health.Options{
		Registry: reg,
		Log:      logger.With("component", "health"),
		Packets: func() uint64 {
			var total uint64
			for _, n := range sw.VerdictSnapshot() {
				total += n
			}
			return total
		},
		// Unexpected losses only: pisa has no TM, and a stage drop is
		// policy.
		Drops: func() uint64 {
			snap := sw.VerdictSnapshot()
			return snap[verdict.NoPort] + snap[verdict.ParseError]
		},
		Ready:         func() bool { return sw.Config() != nil },
		VerdictSeries: "pisa_packets_total",
	})
	// Collector-only series are invisible to the ring's registry scan;
	// track them explicitly so windowed rates and the drop-cause
	// breakdown work for the baseline too.
	for v := 1; v <= verdict.NumVerdicts; v++ {
		h.AddColumn(health.Column{Name: "pisa_packets_total", Kind: "counter",
			Labels: []telemetry.Label{{Key: "verdict", Value: verdict.Verdict(v).String()}},
			Read:   func() float64 { return float64(sw.VerdictSnapshot()[v]) }})
	}
	h.Start()
	defer h.Stop()

	views := telemetry.NewViews()
	views.Add("metrics", func(telemetry.Query) any { return reg.Gather() })
	views.Add("int", func(q telemetry.Query) any { return sw.IntReport(q.Max) })
	views.Add("stats", func(telemetry.Query) any {
		p, drop := sw.Stats()
		return &ctrlplane.DeviceStats{Processed: p, Dropped: drop}
	})
	h.AddViews(views)
	if *metricsAddr != "" {
		mux := telemetry.NewServeMux(reg)
		views.Register(mux)
		h.Register(mux)
		ms, err := telemetry.ServeMux(*metricsAddr, mux)
		if err != nil {
			fatal(err)
		}
		defer ms.Close()
		slog.Info("metrics endpoint up", "addr", ms.Addr(),
			"paths", "/metrics /v/<view> /healthz /readyz /debug/pprof/", "views", views.Names())
	}
	srv := ctrlplane.NewServer(device{sw, views}, logger)
	addr, err := srv.Listen(*listen)
	if err != nil {
		fatal(err)
	}
	slog.Info("pisabm up", "ccm", addr, "ingress", *ingress, "egress", *egress)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	_ = srv.Close()
}

func fatal(err error) {
	slog.Error("fatal", "component", "pisabm", "err", err)
	os.Exit(1)
}
