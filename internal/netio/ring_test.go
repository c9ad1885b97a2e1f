package netio

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"ipsa/internal/pkt"
)

// l2Frame is a non-IP Ethernet frame: RSS hashes its 14-byte header, so
// flow picks the rx queue and seq rides behind it as payload.
func l2Frame(flow, seq uint32) []byte {
	f := make([]byte, 18)
	binary.BigEndian.PutUint32(f[2:], flow)
	f[12], f[13] = 0x88, 0xb5
	binary.BigEndian.PutUint32(f[14:], seq)
	return f
}

// TestRingWrapGrowTailDrop drives both directions of a port whose depth
// is not a power of two through wrap-around and every doubling: order
// holds across both, storage ends at exactly depth slots, and the frames
// beyond it are tail drops counted one by one.
func TestRingWrapGrowTailDrop(t *testing.T) {
	const depth = 100
	p := NewChanPort(depth)
	next, want := 0, 0 // frames sent so far / next expected; the payload is the low byte
	buf := make([][]byte, 7)
	// Wrap: keep ~20 frames queued while 300 pass through a 32-slot ring.
	for i := 0; i < 300; i++ {
		if !p.Inject([]byte{byte(next)}) || !p.Send([]byte{byte(next)}) {
			t.Fatalf("frame %d refused below depth", i)
		}
		next++
		if i%7 == 6 && i > 20 {
			n, ok := p.RecvBatch(buf)
			if !ok || n != 7 {
				t.Fatalf("RecvBatch = %d,%v", n, ok)
			}
			for _, d := range buf[:n] {
				tx, ok := p.Drain()
				if !ok || d[0] != byte(want) || tx[0] != byte(want) {
					t.Fatalf("rx %v tx %v,%v want %d (order broken across wrap)", d, tx, ok, byte(want))
				}
				want++
			}
		}
	}
	if got := len(p.rx[0].ring.buf); got != ringStart {
		t.Fatalf("rx ring grew to %d slots with ~27 queued", got)
	}
	// Grow: fill to depth, then overfill by 5 on each side.
	queued := p.rx[0].Len()
	for i := queued; i < depth; i++ {
		if !p.Inject([]byte{byte(next)}) || !p.Send([]byte{byte(next)}) {
			t.Fatalf("frame refused at occupancy %d < depth", i)
		}
		next++
	}
	for i := 0; i < 5; i++ {
		if p.Inject([]byte{0xff}) || p.Send([]byte{0xff}) {
			t.Fatal("frame accepted beyond depth")
		}
	}
	if sent := p.XmitBatch([][]byte{{0xff}, {0xff}}); sent != 0 {
		t.Fatalf("XmitBatch into a full ring sent %d", sent)
	}
	if rx, tx := len(p.rx[0].ring.buf), len(p.tx.ring.buf); rx != depth || tx != depth {
		t.Fatalf("rings hold %d/%d slots, want exactly %d", rx, tx, depth)
	}
	if st := p.DetailedStats(); st.RxDrops != 5 || st.TxDrops != 7 {
		t.Fatalf("drops rx=%d tx=%d want 5/7", st.RxDrops, st.TxDrops)
	}
	for i := 0; i < depth; i++ {
		d, ok := p.TryRecv()
		tx, ok2 := p.Drain()
		if !ok || !ok2 || d[0] != byte(want) || tx[0] != byte(want) {
			t.Fatalf("after growth: rx %v,%v tx %v,%v want %d", d, ok, tx, ok2, byte(want))
		}
		want++
	}
	if _, ok := p.TryRecv(); ok {
		t.Fatal("rx ring not empty after draining depth frames")
	}
	if st := p.DetailedStats(); st.Received != uint64(next) || st.Sent != uint64(next) {
		t.Fatalf("received=%d sent=%d want %d", st.Received, st.Sent, next)
	}
}

// TestSplitRxResteersQueued: frames queued before the split land on the
// queue their hash selects, in arrival order, and none is lost; Received
// advances as the queues are polled.
func TestSplitRxResteersQueued(t *testing.T) {
	const n, frames = 3, 60
	p := NewChanPort(64)
	for i := uint32(0); i < frames; i++ {
		if !p.Inject(l2Frame(i%5, i)) {
			t.Fatal("inject failed")
		}
	}
	wake := make([]chan struct{}, n)
	for i := range wake {
		wake[i] = make(chan struct{}, 1)
	}
	qs := p.SplitRx(wake, 64)
	total := 0
	buf := make([]Frame, frames)
	for qi, q := range qs {
		if q.Len() > 0 {
			select {
			case <-wake[qi]:
			default:
				t.Fatalf("queue %d holds %d frames but got no wake token", qi, q.Len())
			}
		}
		k := q.Recv(buf)
		total += k
		last := map[uint32]int64{}
		for _, f := range buf[:k] {
			if f.Hash != pkt.RSSHash(f.Data) || f.Hash%n != uint64(qi) {
				t.Fatalf("queue %d holds a frame hashing to queue %d", qi, f.Hash%n)
			}
			flow, seq := binary.BigEndian.Uint32(f.Data[2:]), int64(binary.BigEndian.Uint32(f.Data[14:]))
			if prev, seen := last[flow]; seen && seq <= prev {
				t.Fatalf("flow %d reordered at the split: %d after %d", flow, seq, prev)
			}
			last[flow] = seq
		}
	}
	if total != frames {
		t.Fatalf("%d of %d frames survived the split", total, frames)
	}
	if st := p.DetailedStats(); st.Received != frames || st.RxDrops != 0 {
		t.Fatalf("received=%d rx_drops=%d want %d/0", st.Received, st.RxDrops, frames)
	}
}

// TestRxQueueFIFOConcurrentInject: several producers inject interleaved
// flows into a split port while one consumer per queue polls and parks on
// its wake channel. Every frame arrives exactly once, on the queue its
// hash selects, and each flow's frames arrive in the order they were sent
// — through growth, full-ring retries and wake-ups. A lost wake-up hangs
// the test.
func TestRxQueueFIFOConcurrentInject(t *testing.T) {
	const queues, producers, flowsPer, perFlow = 3, 4, 8, 400
	p := NewChanPort(16)
	wake := make([]chan struct{}, queues)
	for i := range wake {
		wake[i] = make(chan struct{}, 1)
	}
	qs := p.SplitRx(wake, 48)
	var prod, cons sync.WaitGroup
	for g := 0; g < producers; g++ {
		prod.Add(1)
		go func(g uint32) {
			defer prod.Done()
			for seq := uint32(0); seq < perFlow; seq++ {
				for fl := uint32(0); fl < flowsPer; fl++ {
					f := l2Frame(g*flowsPer+fl, seq)
					for !p.Inject(f) {
						time.Sleep(10 * time.Microsecond) // ring full: tail drop, resend
					}
				}
			}
		}(uint32(g))
	}
	got := make([]int, queues)
	for qi := range qs {
		cons.Add(1)
		go func(qi int) {
			defer cons.Done()
			q := qs[qi]
			next := map[uint32]uint32{}
			buf := make([]Frame, 5)
			for {
				closed := q.Closed()
				n := q.Recv(buf)
				for _, f := range buf[:n] {
					flow, seq := binary.BigEndian.Uint32(f.Data[2:]), binary.BigEndian.Uint32(f.Data[14:])
					if f.Hash%queues != uint64(qi) || seq != next[flow] {
						t.Errorf("queue %d: flow %d seq %d (want %d), hash queue %d", qi, flow, seq, next[flow], f.Hash%queues)
					}
					next[flow] = seq + 1
				}
				got[qi] += n
				if n == 0 {
					if closed {
						return
					}
					<-wake[qi]
				}
			}
		}(qi)
	}
	prod.Wait()
	p.Close() // wakes every consumer; queued frames are still delivered
	cons.Wait()
	total := 0
	for _, n := range got {
		total += n
	}
	if want := producers * flowsPer * perFlow; total != want {
		t.Fatalf("delivered %d frames, accepted %d", total, want)
	}
	if st := p.DetailedStats(); st.Received != uint64(total) {
		t.Fatalf("received counter %d, delivered %d", st.Received, total)
	}
}

// TestBlockingCallsUnblockOnClose: Recv, RecvBatch and DrainBlocking
// parked on an empty port return ok=false when it closes; frames queued
// before Close are delivered first.
func TestBlockingCallsUnblockOnClose(t *testing.T) {
	p := NewChanPort(4)
	calls := []func() bool{
		func() bool { _, ok := p.Recv(); return ok },
		func() bool { _, ok := p.RecvBatch(make([][]byte, 2)); return ok },
		func() bool { _, ok := p.DrainBlocking(); return ok },
	}
	done := make(chan bool, len(calls))
	for _, call := range calls {
		go func(call func() bool) { done <- call() }(call)
	}
	select {
	case <-done:
		t.Fatal("a blocking call returned from an empty open port")
	case <-time.After(20 * time.Millisecond):
	}
	p.Close()
	for range calls {
		select {
		case ok := <-done:
			if ok {
				t.Error("a blocking call reported ok=true after Close")
			}
		case <-time.After(2 * time.Second):
			t.Fatal("a blocking call never unblocked after Close")
		}
	}

	q := NewChanPort(4)
	q.Inject([]byte{1})
	q.Inject([]byte{2})
	q.Send([]byte{3})
	q.Close()
	if d, ok := q.Recv(); !ok || d[0] != 1 {
		t.Fatalf("Recv after Close = %v,%v want the queued frame", d, ok)
	}
	if n, ok := q.RecvBatch(make([][]byte, 4)); !ok || n != 1 {
		t.Fatalf("RecvBatch after Close = %d,%v want 1,true", n, ok)
	}
	if _, ok := q.Recv(); ok {
		t.Fatal("Recv returned ok=true from a closed, empty port")
	}
	if d, ok := q.DrainBlocking(); !ok || d[0] != 3 {
		t.Fatalf("DrainBlocking after Close = %v,%v want the queued frame", d, ok)
	}
	if _, ok := q.DrainBlocking(); ok {
		t.Fatal("DrainBlocking returned ok=true from a closed, empty port")
	}
}

// TestTwoReceiversBothWake: the wake token is sent on the empty→non-empty
// edge only, so a receiver that leaves frames behind passes it on; two
// parked receivers must both get a frame from one two-frame burst.
func TestTwoReceiversBothWake(t *testing.T) {
	p := NewChanPort(4)
	defer p.Close()
	got := make(chan bool, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, ok := p.Recv()
			got <- ok
		}()
	}
	time.Sleep(10 * time.Millisecond)
	p.rxMu.Lock() // both frames arrive before either receiver can run
	q := p.rx[0]
	q.ring.push(Frame{Data: []byte{1}})
	q.ring.push(Frame{Data: []byte{2}})
	q.len.Add(2)
	p.rxMu.Unlock()
	signal(q.wake)
	for i := 0; i < 2; i++ {
		select {
		case ok := <-got:
			if !ok {
				t.Fatal("Recv reported closed")
			}
		case <-time.After(2 * time.Second):
			t.Fatal("second receiver never woke: frame stranded behind a parked consumer")
		}
	}
}

// TestSteadyStateAllocs: once the rings have grown, moving frames through
// either direction allocates nothing.
func TestSteadyStateAllocs(t *testing.T) {
	p := NewChanPort(64)
	frames := make([][]byte, 32)
	for i := range frames {
		frames[i] = []byte{byte(i)}
	}
	buf := make([][]byte, 32)
	rx := func() {
		for _, f := range frames {
			p.Inject(f)
		}
		if n, _ := p.RecvBatch(buf); n != len(frames) {
			t.Fatalf("RecvBatch = %d", n)
		}
	}
	tx := func() {
		if sent := p.XmitBatch(frames); sent != len(frames) {
			t.Fatalf("XmitBatch = %d", sent)
		}
		for range frames {
			p.Drain()
		}
	}
	rx()
	tx()
	if avg := testing.AllocsPerRun(100, rx); avg != 0 {
		t.Errorf("Inject+RecvBatch allocates: %.2f allocs/op", avg)
	}
	if avg := testing.AllocsPerRun(100, tx); avg != 0 {
		t.Errorf("XmitBatch+Drain allocates: %.2f allocs/op", avg)
	}

	wake := []chan struct{}{make(chan struct{}, 1), make(chan struct{}, 1)}
	qs := p.SplitRx(wake, 64)
	fbuf := make([]Frame, 32)
	for i := range frames {
		frames[i] = l2Frame(uint32(i), 0)
	}
	rss := func() {
		for _, f := range frames {
			p.Inject(f)
		}
		if n := qs[0].Recv(fbuf) + qs[1].Recv(fbuf); n != len(frames) {
			t.Fatalf("split Recv = %d", n)
		}
	}
	rss()
	if avg := testing.AllocsPerRun(100, rss); avg != 0 {
		t.Errorf("RSS Inject+Recv allocates: %.2f allocs/op", avg)
	}
}

// TestTxRingBurstStorage: a port set's egress ring takes n × depth
// frames and lets the storage past depth go once it drains, while a ring
// that stays within depth keeps its storage for good.
func TestTxRingBurstStorage(t *testing.T) {
	const n, depth = 4, 8
	ps, err := NewPortSet(n, depth)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := ps.Port(0)
	drain := func() (k int) {
		for ; ; k++ {
			if _, ok := p.Drain(); !ok {
				return k
			}
		}
	}
	send := func(k int) {
		for i := 0; i < k; i++ {
			if !p.Send([]byte{byte(i)}) {
				t.Fatalf("frame %d of %d refused", i, k)
			}
		}
	}
	send(depth)
	first := &p.tx.ring.buf[0]
	drain()
	send(depth)
	if len(p.tx.ring.buf) != depth || &p.tx.ring.buf[0] != first {
		t.Fatalf("a ring within depth reallocated: %d slots", len(p.tx.ring.buf))
	}
	send(n*depth - depth)
	if p.Send([]byte{0}) {
		t.Fatalf("egress ring took more than %d frames", n*depth)
	}
	if k := drain(); k != n*depth || p.tx.ring.buf != nil {
		t.Fatalf("drained %d of %d frames, %d slots kept", k, n*depth, len(p.tx.ring.buf))
	}
	if st := p.DetailedStats(); st.TxDrops != 1 {
		t.Fatalf("tx drops = %d, want 1", st.TxDrops)
	}
}
