package experiments

import (
	"strings"
	"testing"
)

func testCfg() Config {
	cfg := Default("../../testdata")
	cfg.Packets = 2000
	return cfg
}

func TestTable1Shapes(t *testing.T) {
	r, err := Table1(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 12 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Hardware rows: the rP4 flow is a few percent of the P4 flow, as in
	// the paper (2.35% / 2.94% / 2.78% totals).
	for _, uc := range UseCases {
		ratio := r.Ratio("PISA", "IPSA", uc)
		if ratio <= 0 || ratio > 0.06 {
			t.Errorf("%s: hardware IPSA/PISA ratio %.2f%% outside (0, 6%%]", uc, ratio*100)
		}
	}
	// Software rows: the incremental patch writes far fewer entries, so
	// its loading time stays below the full flow's reload+repopulate.
	for _, uc := range UseCases {
		var full, inc float64
		for _, row := range r.Rows {
			if row.UseCase != uc {
				continue
			}
			switch row.Flow {
			case "bmv2-equiv":
				full = row.LoadMs
			case "ipbm":
				inc = row.LoadMs
			}
		}
		if inc >= full {
			t.Errorf("%s: ipbm load %.3fms not below bmv2-equiv %.3fms", uc, inc, full)
		}
	}
	if !strings.Contains(r.String(), "Table 1") {
		t.Error("rendering broken")
	}
}

func TestThroughputShapes(t *testing.T) {
	r, err := Throughput(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		// Modeled: PISA ahead by 2-3.6x (paper's 2.2-3x).
		ratio := row.PISAModelMpps / row.IPSAModelMpps
		if ratio < 2 || ratio > 3.6 {
			t.Errorf("%s: modeled ratio %.2f", row.UseCase, ratio)
		}
		// Software: both models forward; PISA's simpler per-packet path
		// is also faster in software.
		if row.IPSASoftPps <= 0 || row.PISASoftPps <= 0 {
			t.Errorf("%s: zero software throughput", row.UseCase)
		}
	}
	// C2 is the slowest case on IPSA in the cycle model (the hardware
	// claim); software pps ordering is scheduling noise at small packet
	// counts, so only sanity-bound it.
	byUC := map[string]ThroughputRow{}
	for _, row := range r.Rows {
		byUC[row.UseCase] = row
	}
	if !(byUC["C2"].IPSAModelMpps < byUC["C1"].IPSAModelMpps && byUC["C2"].IPSAModelMpps < byUC["C3"].IPSAModelMpps) {
		t.Error("modeled C2 not slowest")
	}
	if byUC["C2"].IPSASoftPps < byUC["C1"].IPSASoftPps/4 {
		t.Error("measured C2 implausibly slow")
	}
}

func TestTable2Shape(t *testing.T) {
	r := Table2(testCfg())
	if r.IPSA.TotalLUT <= r.PISA.TotalLUT {
		t.Error("IPSA should cost more LUTs")
	}
	if r.IPSA.TotalFF <= r.PISA.TotalFF {
		t.Error("IPSA should cost more FFs")
	}
}

func TestTable3UsesRealLayouts(t *testing.T) {
	r, err := Table3(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	byUC := map[string]Table3Row{}
	for _, row := range r.Rows {
		byUC[row.UseCase] = row
	}
	// C1 keeps the base's 7 TSPs (ECMP replaces nexthop's slot); the idle
	// TSP keeps C1's power below the fully active C2's.
	if byUC["C1"].ActiveTSPs != 7 {
		t.Errorf("C1 active = %d", byUC["C1"].ActiveTSPs)
	}
	if byUC["C1"].IPSAWatts >= byUC["C2"].IPSAWatts {
		t.Error("C1 with an idle TSP should consume less than fully active C2")
	}
	// C2 outgrows 8 TSPs (header linkage defeats the v4/v6 merges) and is
	// clamped to a fully active machine: the paper's ~+10%.
	if byUC["C2"].ActiveTSPs != 8 {
		t.Errorf("C2 active = %d", byUC["C2"].ActiveTSPs)
	}
	over := (byUC["C2"].IPSAWatts - byUC["C2"].PISAWatts) / byUC["C2"].PISAWatts
	if over < 0.05 || over > 0.15 {
		t.Errorf("C2 overhead %.1f%%", over*100)
	}
}

func TestFig4BaseMapsToSevenTSPs(t *testing.T) {
	r, err := Fig4(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	s := r.String()
	if !strings.Contains(s, "base design (7 TSPs):") {
		t.Errorf("fig4 header missing:\n%s", s)
	}
	// The base mapping shows the paper's merges.
	if !strings.Contains(s, "ipv4_host_fib") || !strings.Contains(s, "+") {
		t.Errorf("merged TSPs missing:\n%s", s)
	}
}

func TestFig6Crossover(t *testing.T) {
	r := Fig6(testCfg())
	if len(r.Stages) != 8 {
		t.Fatalf("sweep length %d", len(r.Stages))
	}
	if r.Crossover < 5 || r.Crossover > 7 {
		t.Errorf("crossover = %d", r.Crossover)
	}
	// PISA flat, IPSA increasing.
	for i := 1; i < 8; i++ {
		if r.PISA[i] != r.PISA[0] {
			t.Error("PISA power not flat")
		}
		if r.IPSA[i] <= r.IPSA[i-1] {
			t.Error("IPSA power not increasing")
		}
	}
}

func TestDiscussionModels(t *testing.T) {
	r, err := Discussion(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r.IPSALatencyCycles >= r.PISALatencyCycles {
		t.Errorf("base-layout IPSA latency %d should beat PISA %d", r.IPSALatencyCycles, r.PISALatencyCycles)
	}
	if r.AdvantageAt4 < 1.5 {
		t.Errorf("capacity advantage %f", r.AdvantageAt4)
	}
	if len(r.Pipelines) != 8 {
		t.Errorf("sweep: %v", r.Pipelines)
	}
}
