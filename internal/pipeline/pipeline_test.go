package pipeline

import (
	"testing"

	"ipsa/internal/pkt"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("zero TSPs accepted")
	}
	p, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumTSPs() != 4 {
		t.Errorf("NumTSPs = %d", p.NumTSPs())
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
	if tm.DepthFast(1) != 2 {
		t.Errorf("depth = %d", tm.DepthFast(1))
	}
	enq, drops := tm.Stats()
	if enq != 2 || drops != 1 {
		t.Errorf("stats: %d/%d", enq, drops)
	}
	if p, ok := tm.DequeueRR(); !ok || p != a {
		t.Errorf("dequeue = %p, %v; want the oldest packet %p", p, ok, a)
	}
	if tm.DepthFast(1) != 1 {
		t.Errorf("depth after dequeue = %d", tm.DepthFast(1))
	}
	// Unknown/negative ports fall back to queue 0.
	d := pkt.NewPacket(nil, 0)
	d.OutPort = -1
	if !tm.Admit(d) {
		t.Error("fallback admit failed")
	}
	if tm.DepthFast(0) != 1 {
		t.Errorf("queue 0 depth = %d", tm.DepthFast(0))
	}
	if tm.DepthFast(99) != 0 || tm.DepthFast(-1) != 0 {
		t.Error("out-of-range depth nonzero")
	}
}

// TestDequeueRRFairness: two queues drain alternately.
func TestDequeueRRFairness(t *testing.T) {
	tm := NewTrafficManager(8, 1024)
	mk := func(port int) *pkt.Packet {
		p := pkt.NewPacket(nil, 0)
		p.OutPort = port
		return p
	}
	for i := 0; i < 3; i++ {
		if !tm.Admit(mk(1)) || !tm.Admit(mk(2)) {
			t.Fatal("admit failed")
		}
	}
	var order []int
	for {
		p, ok := tm.DequeueRR()
		if !ok {
			break
		}
		order = append(order, p.OutPort)
	}
	if len(order) != 6 {
		t.Fatalf("drained %d", len(order))
	}
	// Alternation: no port appears twice in a row while both are backlogged.
	for i := 1; i < 4; i++ {
		if order[i] == order[i-1] {
			t.Fatalf("unfair order: %v", order)
		}
	}
}
