package ipbm

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"

	"ipsa/internal/ctrlplane"
	"ipsa/internal/match"
	"ipsa/internal/template"
	"ipsa/internal/tsp"
)

// shippedDesigns are the base design and the base design under each of
// the five update scripts.
var shippedDesigns = []string{"", "ecmp.script", "acl.script", "vlan.script", "srv6.script", "flowprobe.script"}

func shippedConfig(t testing.TB, name string) *template.Config {
	t.Helper()
	w := newBaseWorkspace(t)
	if name == "" {
		return w.Current().Config
	}
	rep, err := w.ApplyScript(script(t, name), loader(t))
	if err != nil {
		t.Fatal(err)
	}
	return rep.Config
}

func switchOn(t testing.TB, cfg *template.Config, mode tsp.ExecMode) *Switch {
	t.Helper()
	o := DefaultOptions()
	o.Exec = mode
	sw, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.ApplyConfig(cfg); err != nil {
		t.Fatal(err)
	}
	return sw
}

// TestShippedDesignsBindWordProbes makes a table dropping off the fast
// path a test failure rather than a performance mystery: on the fused tier
// every exact or hash table of at most 64 bits, the 32-bit LPM and the
// selectors must have bound a word probe; wider keys, the IPv6 trie and the
// ternary ACL stay bytes.
func TestShippedDesignsBindWordProbes(t *testing.T) {
	named := map[string]bool{ // the shipped tables by name, so the rule below cannot drift unnoticed
		"port_map_tbl": true, "bd_vrf_tbl": true, "l2_l3_tbl": true, "ipv4_host": true,
		"nexthop_tbl": true, "smac_tbl": true, "dmac_tbl": true, "flow_probe": true,
		"ipv4_lpm": true, "ecmp_ipv4": true, "ecmp_ipv6": true,
		"ipv6_host": false, "ipv6_lpm": false, "acl_tbl": false,
	}
	seen := map[string]bool{}
	for _, sc := range shippedDesigns {
		cfg := shippedConfig(t, sc)
		sw := switchOn(t, cfg, tsp.ExecFused)
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
				case kind == match.Exact || kind == match.Hash:
					want = tbl.KeyWidth <= 64
				case kind == match.LPM:
					want = tbl.KeyWidth == 32
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
		interp := switchOn(t, cfg, tsp.ExecInterp)
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
// time inside mem.Table.Lookup.
func TestTableStatsExactAcrossTiers(t *testing.T) {
	const frames = 10000
	for _, sc := range []string{"", "ecmp.script", "flowprobe.script"} {
		cfg := shippedConfig(t, sc)
		traffic := diffTraffic(t, 48)
		run := func(mode tsp.ExecMode) map[string][2]uint64 {
			sw := switchOn(t, cfg, mode)
			for _, req := range baseEntries() {
				_, _ = sw.InsertEntry(req) // a script may have swapped a table out
			}
			// Batches of DefaultBatch, every other one led by a lone Forward:
			// ExecuteBatch flushes the counts once a batch, Execute per packet.
			for i, n := 0, 0; i < frames; n++ {
				var batch [][]byte
				for ; len(batch) < DefaultBatch && i < frames; i++ {
					batch = append(batch, append([]byte(nil), traffic[i%len(traffic)]...))
				}
				if n%2 == 1 {
					_, _ = sw.Forward(batch[0], inPort)
					batch = batch[1:]
				}
				_, _ = sw.ForwardBatch(batch, inPort)
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
		oracle := run(tsp.ExecInterp)
		var lookups uint64
		for _, hm := range oracle {
			lookups += hm[0] + hm[1]
		}
		if lookups < frames {
			t.Fatalf("%q: only %d lookups over %d frames", sc, lookups, frames)
		}
		got := run(tsp.ExecFused)
		for tn, want := range oracle {
			if got[tn] != want {
				t.Errorf("%q fused %s: {hits misses} = %v, interpreter %v", sc, tn, got[tn], want)
			}
		}
	}
}

// TestSelectorWordIndex holds the selector's word path to its byte path:
// while members are added, byte and word lookups run beside the writer
// (under -race) and every result must be a member of the group asked for;
// once the writer is done, the two paths agree on every group and hash,
// for group keys that fit a word and for wide ones.
func TestSelectorWordIndex(t *testing.T) {
	const groups, members = 64, 8
	groupKey := func(n, g int) []byte {
		k := make([]byte, n)
		binary.BigEndian.PutUint16(k[n-2:], uint16(g))
		if n > 8 {
			k[0] = 0xab // beyond the word: only the bytes tell wide groups apart
		}
		return k
	}
	for _, n := range []int{2, 8, 12} {
		st := newSelectorTable()
		byWord := st.WordMember(n)
		if (byWord != nil) != (n <= 8) {
			t.Fatalf("%d-byte groups: word path %v", n, byWord != nil)
		}
		// A member's Params name its group and its position in it.
		check := func(g int, r *match.Result) {
			if len(r.Params) != 2 || r.Params[0] != uint64(g) || r.Params[1] >= members || r.ActionID != int(r.Params[1])+1 {
				t.Errorf("%d-byte group %d: torn or foreign member %+v", n, g, *r)
			}
		}
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for h := uint64(r); ; h += 2 {
					select {
					case <-stop:
						return
					default:
					}
					g := int(h*7) % groups
					key := groupKey(n, g)
					if res, ok := st.lookup(key, h); ok {
						check(g, &res)
					}
					if byWord != nil {
						if res := byWord(match.KeyWord(key), h); res != nil {
							check(g, res)
						}
					}
				}
			}(r)
		}
		for m := 0; m < members; m++ {
			for g := 0; g < groups; g++ {
				st.addMember(groupKey(n, g), match.Result{ActionID: m + 1, Params: []uint64{uint64(g), uint64(m)}})
			}
		}
		close(stop)
		wg.Wait()
		if got := st.memberCount(); got != groups*members {
			t.Fatalf("%d-byte groups: %d members, want %d", n, got, groups*members)
		}
		for g := 0; g < groups; g++ {
			key := groupKey(n, g)
			for h := uint64(0); h < 3*members; h++ {
				res, ok := st.lookup(key, h)
				if !ok || res.Params[0] != uint64(g) || res.Params[1] != h%members {
					t.Fatalf("%d-byte group %d hash %d: %+v,%v", n, g, h, res, ok)
				}
				if byWord == nil {
					continue
				}
				if rw := byWord(match.KeyWord(key), h); rw == nil || rw.ActionID != res.ActionID || rw.Params[1] != res.Params[1] {
					t.Fatalf("%d-byte group %d hash %d: word %+v, bytes %+v", n, g, h, rw, res)
				}
			}
			// A key of another length is another group, even with the same word.
			for _, k := range [][]byte{append([]byte{0}, key...), key[1:]} {
				if res, ok := st.lookup(k, 0); ok {
					t.Fatalf("%d-byte group %d: %d-byte key hit %+v", n, g, len(k), res)
				}
			}
		}
		if _, ok := st.lookup(groupKey(n, groups), 0); ok {
			t.Fatalf("%d-byte groups: unknown group hit", n)
		}
	}
}

// TestSelectorWordApplyBesideAddMember runs fused selector applies while
// the control plane adds members to the group the traffic resolves to, and
// then holds the fused tier to the interpreter on the same traffic.
func TestSelectorWordApplyBesideAddMember(t *testing.T) {
	cfg := shippedConfig(t, "ecmp.script")
	mk := func(mode tsp.ExecMode) *Switch {
		sw := switchOn(t, cfg, mode)
		for _, req := range baseEntries() {
			_, _ = sw.InsertEntry(req) // ecmp.script swaps nexthop_tbl out
		}
		return sw
	}
	fused, interp := mk(tsp.ExecFused), mk(tsp.ExecInterp)
	add := func(sw *Switch, m int) {
		if err := sw.AddMember(ctrlplane.MemberReq{
			Table: "ecmp_ipv4", Group: ctrlplane.FieldValue{Value: nexthopID},
			Tag: 1, Params: []uint64{bridgeOut, nhMAC.Uint64() + uint64(m)},
		}); err != nil {
			t.Error(err)
		}
	}
	traffic := diffTraffic(t, 32)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for m := 0; m < 16; m++ {
			add(fused, m)
		}
	}()
	for round := 0; round < 20; round++ {
		batch := make([][]byte, len(traffic))
		for i, raw := range traffic {
			batch[i] = append([]byte(nil), raw...)
		}
		if _, err := fused.ForwardBatch(batch, inPort); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	for m := 0; m < 16; m++ {
		add(interp, m)
	}
	for i, raw := range traffic {
		pf, err := fused.ProcessPacket(append([]byte(nil), raw...), inPort)
		if err != nil {
			t.Fatal(err)
		}
		pi, err := interp.ProcessPacket(append([]byte(nil), raw...), inPort)
		if err != nil {
			t.Fatal(err)
		}
		if pf.Drop != pi.Drop || pf.OutPort != pi.OutPort || !bytes.Equal(pf.Data, pi.Data) {
			t.Fatalf("frame %d: fused {drop:%v out:%d} interp {drop:%v out:%d}", i, pf.Drop, pf.OutPort, pi.Drop, pi.OutPort)
		}
	}
}
