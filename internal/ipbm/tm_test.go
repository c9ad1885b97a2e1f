package ipbm

import (
	"testing"

	"ipsa/internal/pipeline"
	"ipsa/internal/testbed"
)

// TestTMTailDropUnderBurst: a lane that owns its TM parks the whole
// turn's ingress survivors there before draining it, so a burst beyond the
// queue depth is tail-dropped by policy, the buffered packets still come
// out, and no pin outlives the turn.
func TestTMTailDropUnderBurst(t *testing.T) {
	opts := DefaultOptions()
	opts.QueueDepth = 4
	sw, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	w := testbed.Workspace(t)
	if _, err := sw.ApplyConfig(w.Current().Config); err != nil {
		t.Fatal(err)
	}
	testbed.Populate(t, sw, nil, testbed.Base())
	tm := pipeline.NewTrafficManager(sw.Ports().Len(), opts.QueueDepth)
	l := sw.newLane(1, tm, 16)
	for i := 0; i < 10; i++ {
		l.frames = append(l.frames, laneFrame{data: v4Packet(t, [4]byte{10, 0, 0, 2}, testbed.RouterMAC, 64), port: testbed.InPort})
	}
	if sent, err := l.turn(); err != nil || sent != 4 {
		t.Fatalf("turn: sent=%d err=%v, want 4 sent", sent, err)
	}
	if enq, drops := tm.Stats(); enq != 4 || drops != 6 {
		t.Fatalf("tm stats: enq=%d drops=%d, want 4/6", enq, drops)
	}
	if _, retired, _ := sw.EpochStats(); retired != 0 || sw.epochs.current().inFlight.Load() != 0 {
		t.Fatalf("pins left after the turn: retired=%d in_flight=%d", retired, sw.epochs.current().inFlight.Load())
	}
	out, _ := sw.Ports().Port(testbed.OutPort)
	gotten := 0
	for {
		if _, ok := out.Drain(); !ok {
			break
		}
		gotten++
	}
	if gotten != 4 {
		t.Fatalf("drained %d packets, want 4", gotten)
	}
}
