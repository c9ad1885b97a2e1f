package ipbm

import (
	"testing"

	"ipsa/internal/mem"
	"ipsa/internal/testbed"
)

// diffAll is testbed.Diff with every frame forwarded: on the base entries
// every flow of testbed.Mix routes or bridges.
func diffAll(a, b testbed.Forwarder, frames [][]byte) error {
	return testbed.Diff(a, b, frames, len(frames))
}

// TestDifferentialMergedVsUnmerged: rp4bc's predicate merging is an
// optimization; it must never change forwarding behaviour.
func TestDifferentialMergedVsUnmerged(t *testing.T) {
	off := testbed.Compiler()
	off.EnableMerge = false
	a := switchOn(t, testbed.Config(t, ""), nil)
	b := switchOn(t, testbed.WorkspaceWith(t, off).Current().Config, nil)
	if err := diffAll(a, b, testbed.Frames(t, 64, 0, testbed.Mix...)); err != nil {
		t.Fatalf("merge on/off: %v", err)
	}
}

// TestDifferentialClusteredCrossbar: the clustered crossbar changes
// placement and forces migrations but never behaviour.
func TestDifferentialClusteredCrossbar(t *testing.T) {
	a := switchOn(t, testbed.Config(t, ""), nil)
	b := switchOn(t, testbed.Config(t, ""), func(o *Options) {
		o.Crossbar = mem.ClusteredCrossbar
		// A roomy pool so each cluster holds the biggest table.
		o.Mem = mem.Config{Blocks: 128, BlockWidth: 128, BlockDepth: 4096, Clusters: 2}
	})
	if err := diffAll(a, b, testbed.Frames(t, 48, 0, testbed.Mix...)); err != nil {
		t.Fatalf("full vs clustered crossbar: %v", err)
	}
}

// TestDifferentialP4VsRP4: the same design authored in P4 (through rp4fc,
// its rP4 text parsed back) and in rP4 natively must forward identically.
func TestDifferentialP4VsRP4(t *testing.T) {
	p4, err := testbed.Repo().P4Full(testbed.Compiler(), "")
	if err != nil {
		t.Fatal(err)
	}
	a := switchOn(t, testbed.Config(t, ""), nil)
	b := switchOn(t, p4, nil)
	if err := diffAll(a, b, testbed.Frames(t, 64, 0, testbed.Mix...)); err != nil {
		t.Fatalf("P4 vs rP4: %v", err)
	}
}

// TestDifferentialLayoutDPvsGreedy: after an update, DP and greedy layout
// place stages differently but forward identically.
func TestDifferentialLayoutDPvsGreedy(t *testing.T) {
	mk := func(dp bool) *Switch {
		comp := testbed.Compiler()
		comp.IncrementalDP = dp
		w := testbed.WorkspaceWith(t, comp)
		sw := switchOn(t, w.Current().Config, nil)
		if _, err := sw.ApplyConfig(testbed.Update(t, w, "flowprobe.script").Config); err != nil {
			t.Fatal(err)
		}
		return sw
	}
	if err := diffAll(mk(true), mk(false), testbed.Frames(t, 48, 0, testbed.Mix...)); err != nil {
		t.Fatalf("DP vs greedy layout: %v", err)
	}
}
