package ipbm

import (
	"sync"
	"testing"

	"ipsa/internal/ctrlplane"
	"ipsa/internal/match"
	"ipsa/internal/testbed"
)

// TestShippedDesignsBindWordProbes makes a table dropping off the fast
// path a test failure rather than a performance mystery: on the fused tier
// every exact or LPM table of at most 64 bits and every selector whose
// group fits a word must have bound a word probe; wider keys (the IPv6
// host and LPM tables) and the ternary ACL stay bytes.
func TestShippedDesignsBindWordProbes(t *testing.T) {
	named := map[string]bool{ // the shipped tables by name, so the rule below cannot drift unnoticed
		"port_map_tbl": true, "bd_vrf_tbl": true, "l2_l3_tbl": true, "ipv4_host": true,
		"nexthop_tbl": true, "smac_tbl": true, "dmac_tbl": true, "flow_probe": true,
		"ipv4_lpm": true, "ecmp_ipv4": true, "ecmp_ipv6": true,
		"ipv6_host": false, "ipv6_lpm": false, "acl_tbl": false,
	}
	seen := map[string]bool{}
	for _, sc := range testbed.Scripts {
		cfg := testbed.Config(t, sc)
		sw := switchOn(t, cfg, nil)
		for sn, sr := range sw.epochs.current().built {
			for _, tn := range cfg.Stages[sn].Tables {
				tbl := cfg.Tables[tn]
				kind, err := match.ParseKind(tbl.Kind)
				if err != nil {
					t.Fatal(err)
				}
				var want bool
				switch {
				case tbl.IsSelector:
					want = tbl.Keys[0].Operand.Width <= 64
				case kind == match.Exact || kind == match.LPM:
					want = tbl.KeyWidth <= 64
				}
				if w, ok := named[tn]; ok && w != want {
					t.Fatalf("%q %s: the rule says word-keyed %v, the table list %v", sc, tn, want, w)
				}
				if got := sr.WordKeyed(tn); got != want {
					t.Errorf("%q stage %s table %s (%s, %d bits): word-keyed %v, want %v", sc, sn, tn, tbl.Kind, tbl.KeyWidth, got, want)
				}
				seen[tn] = true
			}
		}
		// The interpreter keeps byte keys end to end: it is the oracle.
		interp := switchOn(t, cfg, interpreted)
		for sn, sr := range interp.epochs.current().built {
			for _, tn := range cfg.Stages[sn].Tables {
				if sr.WordKeyed(tn) {
					t.Errorf("%q stage %s table %s: word-keyed on the interpreter", sc, sn, tn)
				}
			}
		}
	}
	for tn := range named {
		if !seen[tn] {
			t.Errorf("no shipped design applies %s", tn)
		}
	}
}

// TestTableStatsExactAcrossTiers pins the batched hit/miss accounting of
// the word path: after the same 10k-frame trace, every table's counters on
// the fused tier equal the interpreter's, which counts one lookup at a
// time inside mem.Table.Lookup and LookupMember. Under ecmp.script the
// selector holds members, so its counts are hits, not a vacuous zero.
func TestTableStatsExactAcrossTiers(t *testing.T) {
	const frames = 10000
	for _, sc := range []string{"", "ecmp.script", "flowprobe.script"} {
		cfg := testbed.Config(t, sc)
		traffic := testbed.Frames(t, 48, 0, testbed.Mix...)
		run := func(tier func(*Options)) map[string][2]uint64 {
			sw := switchOn(t, cfg, tier)
			if _, ok := cfg.Tables["ecmp_ipv4"]; ok {
				for m := uint64(0); m < 2; m++ {
					insert(t, sw, testbed.ECMPMember(testbed.NhMAC.Uint64()+m))
				}
			}
			// Batches of DefaultBatch, every other one led by a lone Forward:
			// ExecuteBatch flushes the counts once a batch, and a Forward is
			// a batch of one.
			for i, n := 0, 0; i < frames; n++ {
				var batch [][]byte
				for ; len(batch) < DefaultBatch && i < frames; i++ {
					batch = append(batch, append([]byte(nil), traffic[i%len(traffic)]...))
				}
				if n%2 == 1 {
					_, _ = sw.Forward(batch[0], testbed.InPort)
					batch = batch[1:]
				}
				_, _ = sw.ForwardBatch(batch, testbed.InPort)
			}
			out := map[string][2]uint64{}
			for tn := range cfg.Tables {
				st, err := sw.TableStats(tn)
				if err != nil {
					t.Fatal(err)
				}
				out[tn] = [2]uint64{st.Hits, st.Misses}
			}
			return out
		}
		oracle := run(interpreted)
		var lookups uint64
		for _, hm := range oracle {
			lookups += hm[0] + hm[1]
		}
		if lookups < frames {
			t.Fatalf("%q: only %d lookups over %d frames", sc, lookups, frames)
		}
		got := run(nil)
		for tn, want := range oracle {
			if got[tn] != want {
				t.Errorf("%q fused %s: {hits misses} = %v, interpreter %v", sc, tn, got[tn], want)
			}
		}
	}
}

// TestSelectorWordApplyBesideMemberOps runs fused selector applies while
// the control plane inserts and deletes members of the group the traffic
// resolves to, and then holds the fused tier to the interpreter, given the
// same member ops, on the same traffic.
func TestSelectorWordApplyBesideMemberOps(t *testing.T) {
	cfg := testbed.Config(t, "ecmp.script")
	fused, interp := switchOn(t, cfg, nil), switchOn(t, cfg, interpreted)
	// Sixteen members, each with an egress MAC; every third insert deletes
	// the member before it.
	members := func(sw *Switch) {
		var prev int
		for m := 0; m < 16; m++ {
			mac := testbed.NhMAC.Uint64() + uint64(m)
			egress := ctrlplane.EntryReq{Table: "dmac_tbl", Keys: []ctrlplane.FieldValue{{Value: testbed.BridgeOut}, {Value: mac}},
				Tag: 1, Params: []uint64{testbed.OutPort}}
			if _, err := sw.InsertEntry(egress); err != nil && m > 0 { // the base entries hold the first
				t.Error(err)
				return
			}
			h, err := sw.InsertEntry(testbed.ECMPMember(mac))
			if err != nil {
				t.Error(err)
				return
			}
			if m%3 == 2 {
				if err := sw.DeleteEntry("ecmp_ipv4", prev); err != nil {
					t.Error(err)
				}
			}
			prev = h
		}
	}
	traffic := testbed.Frames(t, 32, 0, testbed.Mix...)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		members(fused)
	}()
	for round := 0; round < 20; round++ {
		batch := make([][]byte, len(traffic))
		for i, raw := range traffic {
			batch[i] = append([]byte(nil), raw...)
		}
		if _, err := fused.ForwardBatch(batch, testbed.InPort); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	members(interp)
	// The members are IPv4's: of the 128 frames, the 32 IPv6 flows and 3
	// of the mixed ones drop.
	if err := testbed.Diff(fused, interp, traffic, 93); err != nil {
		t.Fatal(err)
	}
}
