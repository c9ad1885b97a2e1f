package experiments

import (
	"fmt"
	"strings"
	"time"

	"ipsa/internal/compiler/backend"
	"ipsa/internal/hwmodel"
	"ipsa/internal/ipbm"
	"ipsa/internal/pisa"
	"ipsa/internal/testbed"
	"ipsa/internal/trafficgen"
)

// ThroughputRow is one use case's throughput, modeled (the FPGA cycle
// model at 200 MHz) and measured (the software behavioral models).
type ThroughputRow struct {
	UseCase string
	// Modeled Mpps (hardware substitute for Sec. 5).
	PISAModelMpps, IPSAModelMpps float64
	// Measured software packets/sec.
	PISASoftPps, IPSASoftPps float64
}

// ThroughputResult regenerates the Sec. 5 throughput comparison.
type ThroughputResult struct {
	Rows []ThroughputRow
}

// prepared holds a pair of populated switches for one use case.
type prepared struct {
	ipsa *ipbm.Switch
	pisa *pisa.Switch
	gen  *trafficgen.Generator
}

// PrepareUseCase builds both switches with the use case installed and
// populated, plus a matching traffic generator. Exported for the benches.
func PrepareUseCase(cfg Config, uc string) (*prepared, error) {
	design, err := cfg.dir().Incremental(cfg.compilerOpts(), testbed.ScriptOf(uc))
	if err != nil {
		return nil, err
	}

	sw, err := ipbm.New(swOpts(cfg))
	if err != nil {
		return nil, err
	}
	if _, err := sw.ApplyConfig(design); err != nil {
		return nil, err
	}
	if err := PopulateBase(sw, design, 8); err != nil {
		return nil, err
	}
	if err := PopulateUseCase(sw, uc, 8); err != nil {
		return nil, err
	}

	// pisa maps the same chains onto its fixed stages itself, so the
	// incremental design loads on it as is.
	psw, err := pisa.New(pisa.DefaultOptions())
	if err != nil {
		return nil, err
	}
	if _, err := psw.ApplyConfig(design); err != nil {
		return nil, err
	}
	if err := PopulateBase(psw, design, 8); err != nil {
		return nil, err
	}
	if err := PopulateUseCase(psw, uc, 8); err != nil {
		return nil, err
	}

	gcfg := trafficgen.DefaultConfig()
	gcfg.RouterMAC, gcfg.HostMAC = RouterMAC, HostMAC
	switch uc {
	case "C1":
		gcfg.Profile = trafficgen.Mixed46
		gcfg.V4Base = [4]byte{10, 2, 0, 0}
	case "C2":
		gcfg.Profile = trafficgen.SRv6
		gcfg.SID = testbed.SID
		gcfg.NextSegment[0], gcfg.NextSegment[1] = 0x20, 0x01
	case "C3":
		gcfg.Profile = trafficgen.IPv4Routed
		gcfg.V4Base = [4]byte{10, 1, 0, 0}
	}
	gen, err := trafficgen.New(gcfg)
	if err != nil {
		return nil, err
	}
	return &prepared{ipsa: sw, pisa: psw, gen: gen}, nil
}

// IPSA exposes the prepared IPSA switch (for benches).
func (p *prepared) IPSA() *ipbm.Switch { return p.ipsa }

// PISA exposes the prepared PISA switch.
func (p *prepared) PISA() *pisa.Switch { return p.pisa }

// Gen exposes the traffic generator.
func (p *prepared) Gen() *trafficgen.Generator { return p.gen }

// measure pushes n packets and returns packets/second.
func measureIPSA(p *prepared, n int) (float64, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := p.ipsa.ProcessPacket(p.gen.NextShared(), 1); err != nil {
			return 0, err
		}
	}
	return float64(n) / time.Since(start).Seconds(), nil
}

func measurePISA(p *prepared, n int) (float64, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := p.pisa.ProcessPacket(p.gen.NextShared(), 1); err != nil {
			return 0, err
		}
	}
	return float64(n) / time.Since(start).Seconds(), nil
}

// Throughput regenerates the Sec. 5 comparison.
func Throughput(cfg Config) (*ThroughputResult, error) {
	res := &ThroughputResult{}
	params := hwmodel.DefaultCycleParams()
	for _, uc := range UseCases {
		modeled, err := params.Model(uc, hwmodel.UseCaseClasses(uc))
		if err != nil {
			return nil, err
		}
		prep, err := PrepareUseCase(cfg, uc)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", uc, err)
		}
		ipsaPps, err := measureIPSA(prep, cfg.Packets)
		if err != nil {
			return nil, err
		}
		pisaPps, err := measurePISA(prep, cfg.Packets)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, ThroughputRow{
			UseCase:       uc,
			PISAModelMpps: modeled.PISAMpps,
			IPSAModelMpps: modeled.IPSAMpps,
			PISASoftPps:   pisaPps,
			IPSASoftPps:   ipsaPps,
		})
	}
	return res, nil
}

// String renders the comparison.
func (r *ThroughputResult) String() string {
	var b strings.Builder
	b.WriteString("Sec. 5 throughput (hardware model @200MHz, software measured)\n")
	fmt.Fprintf(&b, "%-4s %14s %14s %16s %16s\n", "case",
		"PISA model", "IPSA model", "PISA soft pps", "ipbm soft pps")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-4s %11.2f Mpps %11.2f Mpps %16.0f %16.0f\n",
			row.UseCase, row.PISAModelMpps, row.IPSAModelMpps, row.PISASoftPps, row.IPSASoftPps)
	}
	return b.String()
}

// --- Tables 2 & 3, Fig. 6 ---------------------------------------------------

// Table2Result regenerates the FPGA resource comparison.
type Table2Result struct {
	PISA hwmodel.ResourceReport
	IPSA hwmodel.ResourceReport
}

// Table2 models both 8-processor prototypes.
func Table2(cfg Config) *Table2Result {
	p := hwmodel.DefaultResourceParams()
	return &Table2Result{
		PISA: p.PISAResources(8, 912),
		IPSA: p.IPSAResources(8, 64),
	}
}

// String renders Table 2.
func (r *Table2Result) String() string {
	var b strings.Builder
	b.WriteString("Table 2: FPGA resource comparison (% of Alveo U280)\n")
	fmt.Fprintf(&b, "%-14s %8s %8s %8s %8s\n", "component", "PISA LUT", "PISA FF", "IPSA LUT", "IPSA FF")
	fmt.Fprintf(&b, "%-14s %7.2f%% %7.2f%% %8s %8s\n", "front parser", r.PISA.FrontParserLUT, r.PISA.FrontParserFF, "-", "-")
	fmt.Fprintf(&b, "%-14s %7.2f%% %7.2f%% %7.2f%% %7.2f%%\n", "processors", r.PISA.ProcessorsLUT, r.PISA.ProcessorsFF, r.IPSA.ProcessorsLUT, r.IPSA.ProcessorsFF)
	fmt.Fprintf(&b, "%-14s %8s %8s %7.2f%% %7.2f%%\n", "crossbar", "-", "-", r.IPSA.CrossbarLUT, r.IPSA.CrossbarFF)
	fmt.Fprintf(&b, "%-14s %7.2f%% %7.2f%% %7.2f%% %7.2f%%\n", "total", r.PISA.TotalLUT, r.PISA.TotalFF, r.IPSA.TotalLUT, r.IPSA.TotalFF)
	return b.String()
}

// Table3Result regenerates the power comparison for the three use cases.
type Table3Result struct {
	Rows []Table3Row
}

// Table3Row is one use case's modeled power.
type Table3Row struct {
	UseCase    string
	ActiveTSPs int
	PISAWatts  float64
	IPSAWatts  float64
}

// Table3 models device power for each use case, deriving the active TSP
// count from the actual compiled layout.
func Table3(cfg Config) (*Table3Result, error) {
	pp := hwmodel.DefaultPowerParams()
	res := &Table3Result{}
	for _, uc := range UseCases {
		active, err := activeTSPsFor(cfg, uc)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Table3Row{
			UseCase:    uc,
			ActiveTSPs: active,
			PISAWatts:  pp.PISAPower(8),
			IPSAWatts:  pp.IPSAPower(active, 8),
		})
	}
	return res, nil
}

// activeTSPsFor compiles the use case at FPGA scale (8 TSPs where it
// fits) and reports active TSPs; designs that outgrow 8 report 8.
func activeTSPsFor(cfg Config, uc string) (int, error) {
	ws, err := cfg.baseWorkspace8(uc)
	if err != nil {
		return 0, err
	}
	active := ws.Current().Stats.TSPsUsed
	if active > 8 {
		active = 8
	}
	return active, nil
}

// baseWorkspace8 compiles base+use case at the paper's 8-TSP scale,
// falling back to a wider machine when the update cannot fit (SRv6's
// header linkage defeats the v4/v6 merges; see EXPERIMENTS.md).
func (c Config) baseWorkspace8(uc string) (*backend.Workspace, error) {
	for _, tsps := range []int{8, 12, 16} {
		o := backend.DefaultOptions()
		o.NumTSPs = tsps
		ws, err := c.dir().Workspace(o)
		if err != nil {
			return nil, err
		}
		if uc != "" {
			if _, err := c.dir().Update(ws, testbed.ScriptOf(uc)); err != nil {
				continue // try a wider machine
			}
		}
		return ws, nil
	}
	return nil, fmt.Errorf("experiments: %s does not fit any modeled machine", uc)
}

// String renders Table 3.
func (r *Table3Result) String() string {
	var b strings.Builder
	b.WriteString("Table 3: modeled power (W) for the three use cases\n")
	fmt.Fprintf(&b, "%-4s %12s %10s %10s %8s\n", "case", "active TSPs", "PISA", "IPSA", "delta")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-4s %12d %9.2fW %9.2fW %+7.1f%%\n",
			row.UseCase, row.ActiveTSPs, row.PISAWatts, row.IPSAWatts,
			(row.IPSAWatts-row.PISAWatts)/row.PISAWatts*100)
	}
	return b.String()
}

// Fig6Result regenerates the power-vs-effective-stages sweep.
type Fig6Result struct {
	Stages []int
	PISA   []float64
	IPSA   []float64
	// Crossover is the largest stage count where IPSA wins.
	Crossover int
}

// Fig6 sweeps effective stage counts 1..8 on an 8-TSP machine.
func Fig6(cfg Config) *Fig6Result {
	pp := hwmodel.DefaultPowerParams()
	res := &Fig6Result{Crossover: pp.PowerCrossover(8)}
	for k := 1; k <= 8; k++ {
		res.Stages = append(res.Stages, k)
		res.PISA = append(res.PISA, pp.PISAPower(8))
		res.IPSA = append(res.IPSA, pp.IPSAPower(k, 8))
	}
	return res
}

// String renders Fig. 6 as a table.
func (r *Fig6Result) String() string {
	var b strings.Builder
	b.WriteString("Fig. 6: power vs effective physical stages (8-TSP machine)\n")
	fmt.Fprintf(&b, "%-7s %10s %10s\n", "stages", "PISA (W)", "IPSA (W)")
	for i, k := range r.Stages {
		fmt.Fprintf(&b, "%-7d %10.2f %10.2f\n", k, r.PISA[i], r.IPSA[i])
	}
	fmt.Fprintf(&b, "IPSA consumes less power up to %d active stages\n", r.Crossover)
	return b.String()
}

// Fig4Result describes the TSP mapping of the base design and updates.
type Fig4Result struct {
	Lines []string
}

// Fig4 renders the stage-to-TSP mapping for the base design and each use
// case — the qualitative content of the paper's Fig. 4.
func Fig4(cfg Config) (*Fig4Result, error) {
	res := &Fig4Result{}
	emit := func(title string, c *backend.Compiled) {
		res.Lines = append(res.Lines, title)
		byTSP := map[int][]string{}
		for s, t := range c.Config.TSPAssignment {
			byTSP[t] = append(byTSP[t], s)
		}
		for t := 0; t < c.Assignment.NumTSP; t++ {
			if stages, ok := byTSP[t]; ok {
				res.Lines = append(res.Lines, fmt.Sprintf("  TSP%-2d: %s", t, strings.Join(stages, " + ")))
			}
		}
	}
	ws, err := cfg.baseWorkspace8("")
	if err != nil {
		return nil, err
	}
	emit("base design (7 TSPs):", ws.Current())
	for _, uc := range UseCases {
		w, err := cfg.baseWorkspace8(uc)
		if err != nil {
			return nil, err
		}
		emit(fmt.Sprintf("after %s:", uc), w.Current())
	}
	return res, nil
}

// String renders the mapping.
func (r *Fig4Result) String() string { return strings.Join(r.Lines, "\n") + "\n" }

// DiscussionResult models the paper's Sec. 5 "Discussion": pipeline
// latency and multi-pipeline memory efficiency.
type DiscussionResult struct {
	// Latency in cycles for the base design's layout.
	PISALatencyCycles int
	IPSALatencyCycles int
	LatencyCrossover  int
	// Effective table capacity across parallel pipelines.
	Pipelines    []int
	PISACapacity []float64
	IPSACapacity []float64
	AdvantageAt4 float64
}

// Discussion evaluates the Sec. 5 discussion models against the compiled
// base design's actual layout.
func Discussion(cfg Config) (*DiscussionResult, error) {
	ws, err := cfg.baseWorkspace8("")
	if err != nil {
		return nil, err
	}
	active := ws.Current().Stats.TSPsUsed
	lp := hwmodel.DefaultLatencyParams()
	mp := hwmodel.DefaultMultiPipeParams()
	res := &DiscussionResult{
		PISALatencyCycles: lp.PISALatency(8),
		IPSALatencyCycles: lp.IPSALatency(active, 8),
		LatencyCrossover:  lp.LatencyCrossover(8),
		AdvantageAt4:      mp.CapacityAdvantage(4),
	}
	for n := 1; n <= 8; n++ {
		res.Pipelines = append(res.Pipelines, n)
		res.PISACapacity = append(res.PISACapacity, mp.PISAEffectiveCapacity(n))
		res.IPSACapacity = append(res.IPSACapacity, mp.IPSAEffectiveCapacity(n))
	}
	return res, nil
}

// String renders the discussion models.
func (r *DiscussionResult) String() string {
	var b strings.Builder
	b.WriteString("Sec. 5 discussion models\n")
	fmt.Fprintf(&b, "pipeline latency (base design layout): PISA %d cycles, IPSA %d cycles; IPSA wins up to %d active TSPs\n",
		r.PISALatencyCycles, r.IPSALatencyCycles, r.LatencyCrossover)
	b.WriteString("effective table capacity vs parallel pipelines (fraction of physical SRAM holding distinct entries):\n")
	fmt.Fprintf(&b, "%-10s %10s %10s\n", "pipelines", "PISA", "IPSA")
	for i, n := range r.Pipelines {
		fmt.Fprintf(&b, "%-10d %10.2f %10.2f\n", n, r.PISACapacity[i], r.IPSACapacity[i])
	}
	fmt.Fprintf(&b, "IPSA effective-capacity advantage at 4 pipelines: %.1fx\n", r.AdvantageAt4)
	return b.String()
}
