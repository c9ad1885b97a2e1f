package experiments

import (
	"testing"

	"ipsa/internal/dataplane"
	"ipsa/internal/ipbm"
	"ipsa/internal/pisa"
	"ipsa/internal/template"
	"ipsa/internal/testbed"
	"ipsa/internal/trafficgen"
	"ipsa/internal/tsp"
	"ipsa/internal/verdict"
)

// oracleFill is the filler entries per FIB table (and C3 flow_probe
// entries) the oracle rows populate.
const oracleFill = 16

// designs are the rows' designs: the base and the paper's use cases.
var designs = append([]string{""}, UseCases...)

func designName(uc string) string {
	if uc == "" {
		return "base"
	}
	return uc
}

// floor is how many of flows frames per profile of profiles forward on
// uc: all but the SRv6 ones, which only C2's local SID routes.
func floor(uc string, profiles, flows int) int {
	if uc == "C2" {
		return profiles * flows
	}
	return (profiles - 1) * flows
}

// ipbmOn brings up uc ("" for the base design) on ipbm the in-situ way:
// the base design committed and populated, then the use case's update
// compiled incrementally, committed, and its new tables populated.
func ipbmOn(t *testing.T, uc string, mode tsp.ExecMode) *ipbm.Switch {
	t.Helper()
	o := ipbm.DefaultOptions()
	o.Exec = mode
	sw, err := ipbm.New(o)
	if err != nil {
		t.Fatal(err)
	}
	w := testbed.Workspace(t)
	if _, err := sw.ApplyConfig(w.Current().Config); err != nil {
		t.Fatal(err)
	}
	testbed.Populate(t, sw, w.Current().Config, testbed.Filled(oracleFill))
	if uc != "" {
		if _, err := sw.ApplyConfig(testbed.Update(t, w, testbed.ScriptOf(uc)).Config); err != nil {
			t.Fatal(err)
		}
		testbed.Populate(t, sw, nil, testbed.UseCase(uc, oracleFill))
	}
	return sw
}

// pisaOn brings up uc on pisa the P4 way: the P4-full compile of the same
// use case, installed whole and populated with the same entries.
func pisaOn(t *testing.T, uc string) *pisa.Switch {
	t.Helper()
	cfg := testbed.P4Full(t, testbed.ScriptOf(uc))
	sw, err := pisa.New(pisa.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.ApplyConfig(cfg); err != nil {
		t.Fatal(err)
	}
	testbed.Populate(t, sw, cfg, testbed.Filled(oracleFill))
	testbed.Populate(t, sw, nil, testbed.UseCase(uc, oracleFill))
	return sw
}

// TestDifferentialIPBMvsPISA is the oracle Table 1 presumes: the rP4 flow
// (an in-situ update on ipbm) and the P4 flow (a full rebuild on pisa)
// reach switches that forward alike, frame for frame, on the base design
// and each use case.
func TestDifferentialIPBMvsPISA(t *testing.T) {
	const flows = 64
	frames := testbed.Frames(t, flows, 0, testbed.CrossTarget...)
	for _, uc := range designs {
		t.Run(designName(uc), func(t *testing.T) {
			if err := testbed.Diff(ipbmOn(t, uc, tsp.ExecFused), pisaOn(t, uc), frames, floor(uc, len(testbed.CrossTarget), flows)); err != nil {
				t.Fatalf("ipbm vs pisa: %v", err)
			}
		})
	}
}

// TestPrefixVerdicts holds that truncated is not absent.
// Every prefix of every frame of the routed, SRv6 and bridged profiles,
// with and without an upstream INT hop, gets the whole frame's verdict or
// parse_error, on ipbm's two tiers and on pisa, over the base design and
// each use case. ProcessPacket is the inline path and has no TM, so the
// row cannot see tm_drop.
func TestPrefixVerdicts(t *testing.T) {
	const flows = 4
	profiles := []trafficgen.Profile{trafficgen.IPv4Routed, trafficgen.IPv6Routed, trafficgen.SRv6, trafficgen.L2Bridged}
	frames := append(testbed.Frames(t, flows, 0, profiles...), testbed.Frames(t, flows, 1, profiles...)...)
	for _, uc := range designs {
		t.Run(designName(uc), func(t *testing.T) {
			fused, interp := ipbmOn(t, uc, tsp.ExecFused), ipbmOn(t, uc, tsp.ExecInterp)
			targets := []struct {
				name  string
				sw    testbed.Forwarder
				ports int
			}{
				{"fused", fused, fused.Ports().Len()},
				{"interp", interp, interp.Ports().Len()},
				// pisa has no ports of its own: every port istd can name.
				{"pisa", pisaOn(t, uc), 1 << template.IstdOutPortWidth},
			}
			for _, tg := range targets {
				verdictOf := func(frame []byte) verdict.Verdict {
					p, err := tg.sw.ProcessPacket(append([]byte(nil), frame...), testbed.InPort)
					if err != nil {
						t.Fatalf("%s: %v", tg.name, err)
					}
					return dataplane.Verdict(p, true, tg.ports)
				}
				forwarded := 0
				for i, frame := range frames {
					whole := verdictOf(frame)
					if whole == verdict.Forwarded {
						forwarded++
					}
					for n := 0; n < len(frame); n++ {
						if v := verdictOf(frame[:n]); v != whole && v != verdict.ParseError {
							t.Fatalf("%s: frame %d (%d B) reads %s, its %d-byte prefix %s", tg.name, i, len(frame), whole, n, v)
						}
					}
				}
				if want := 2 * floor(uc, len(profiles), flows); forwarded < want {
					t.Fatalf("%s: %d of %d whole frames forwarded, below the row's floor of %d", tg.name, forwarded, len(frames), want)
				}
			}
		})
	}
}
