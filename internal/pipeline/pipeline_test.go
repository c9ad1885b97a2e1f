package pipeline

import (
	"testing"

	"ipsa/internal/pkt"
	"ipsa/internal/tsp"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 2, 8); err == nil {
		t.Error("zero TSPs accepted")
	}
	p, err := New(4, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumTSPs() != 4 {
		t.Errorf("NumTSPs = %d", p.NumTSPs())
	}
	if _, err := p.TSP(4); err == nil {
		t.Error("out-of-range TSP accepted")
	}
	if _, err := p.TSP(2); err != nil {
		t.Error(err)
	}
}

func TestSelectorValidation(t *testing.T) {
	p, _ := New(4, 2, 8)
	err := p.Commit(func(sel *Selector, _ []*tsp.TSP) error {
		sel.TMIn, sel.TMOut = 2, 2 // overlap
		return nil
	})
	if err == nil {
		t.Error("overlapping selector accepted")
	}
	err = p.Commit(func(sel *Selector, _ []*tsp.TSP) error {
		sel.TMIn, sel.TMOut = 1, 3
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := p.Selector(); s.TMIn != 1 || s.TMOut != 3 {
		t.Errorf("selector: %+v", s)
	}
	if p.StallTime() != 0 {
		t.Error("a commit charged stall time")
	}
}

func TestTrafficManagerTailDrop(t *testing.T) {
	tm := NewTrafficManager(2, 2)
	a := pkt.NewPacket(nil, 0)
	b := pkt.NewPacket(nil, 0)
	c := pkt.NewPacket(nil, 0)
	a.OutPort, b.OutPort, c.OutPort = 1, 1, 1
	if !tm.Admit(a) || !tm.Admit(b) {
		t.Fatal("admit failed")
	}
	if tm.Admit(c) {
		t.Error("over-depth admit accepted")
	}
	if tm.Depth(1) != 2 {
		t.Errorf("depth = %d", tm.Depth(1))
	}
	enq, drops := tm.Stats()
	if enq != 2 || drops != 1 {
		t.Errorf("stats: %d/%d", enq, drops)
	}
	tm.Release(a)
	if tm.Depth(1) != 1 {
		t.Errorf("depth after release = %d", tm.Depth(1))
	}
	// Unknown/negative ports fall back to queue 0.
	d := pkt.NewPacket(nil, 0)
	d.OutPort = -1
	if !tm.Admit(d) {
		t.Error("fallback admit failed")
	}
	if tm.Depth(0) != 1 {
		t.Errorf("queue 0 depth = %d", tm.Depth(0))
	}
	if tm.Depth(99) != 0 {
		t.Error("out-of-range depth nonzero")
	}
}

// TestLaneStatsFold: per-lane stat stripes fold into one Stats() total
// regardless of which lane counted.
func TestLaneStatsFold(t *testing.T) {
	var cells [statLanes]statCell
	cells[0].n.Add(3)
	cells[7].n.Add(4)
	cells[statLanes-1].n.Add(5)
	if got := laneSum(&cells); got != 12 {
		t.Fatalf("laneSum = %d want 12", got)
	}
}
