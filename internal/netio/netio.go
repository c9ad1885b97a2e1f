// Package netio is the Communication Module (CM) substrate: packet I/O
// decoupled from the OS protocol stack (paper Sec. 4.1). The reproduction
// provides in-memory multi-queue ring ports modelled on a DPDK-style NIC
// (bounded rx/tx rings polled in bursts, RSS steering into per-core rx
// queues; wired back to back for switch-to-switch topologies and tests),
// pcap file sources/sinks for replaying captures, and UDP-encapsulated
// ports for crossing real sockets.
package netio

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ipsa/internal/pkt"
)

// Port moves raw frames in and out of a switch port.
type Port interface {
	// Recv blocks until a frame arrives; ok=false means the port closed.
	Recv() (data []byte, ok bool)
	// Send transmits a frame; it reports false when the port is closed or
	// full (tail drop).
	Send(data []byte) bool
	// Close shuts the port down.
	Close()
}

// ChanPort is an in-memory port: one bounded ring per direction, each
// under its own mutex, taken once per frame by Inject/Send/Drain and once
// per batch by RecvBatch/XmitBatch. The ingress side starts as a single
// queue that Recv/RecvBatch/TryRecv serve; SplitRx turns it into RSS
// queues, after which Inject hashes every frame and steers it to queue
// hash % n, as a multi-queue NIC does.
type ChanPort struct {
	// rxMu guards rx, the set of ingress queues, and every ring in it.
	// rss says the set came from SplitRx, so Inject must hash; it is
	// written under rxMu and read before taking it.
	rxMu sync.Mutex
	rx   []*RxQueue
	rss  atomic.Bool

	txMu sync.Mutex
	tx   queue[[]byte]

	// closed is set with both mutexes held and checked by producers under
	// theirs, so once a consumer has seen it no further frame can enter
	// the ring it is about to scan. done unblocks the port's own blocking
	// calls.
	closed atomic.Bool
	done   chan struct{}

	sent, received   atomic.Uint64
	rxDrops, txDrops atomic.Uint64
}

// PortStats is one port's counter snapshot with drops split by direction:
// RxDrops are ingress tail drops (Inject into a full queue), TxDrops
// egress tail drops (Send into a full queue).
type PortStats struct {
	Sent     uint64 `json:"sent"`
	Received uint64 `json:"received"`
	RxDrops  uint64 `json:"rx_drops"`
	TxDrops  uint64 `json:"tx_drops"`
}

// Frame is a received frame with the RSS hash the port steered it by (0
// on a port that was never split: single-queue ports do not hash).
type Frame struct {
	Data []byte
	Hash uint64
}

// RxQueue is one ingress queue of a port. Its consumer (whoever called
// SplitRx) polls it with Recv and parks on the wake channel it supplied.
type RxQueue struct {
	port *ChanPort
	queue[Frame]
}

// NewChanPort builds a port with the given queue depth per direction.
func NewChanPort(depth int) *ChanPort { return newChanPort(depth, 1) }

// newChanPort builds a port whose egress ring takes up to ports × depth
// frames, keeping storage for depth of them.
func newChanPort(depth, ports int) *ChanPort {
	if depth <= 0 {
		depth = 64
	}
	p := &ChanPort{done: make(chan struct{})}
	p.tx = queue[[]byte]{ring: ring[[]byte]{max: ports * depth, keep: depth}, wake: make(chan struct{}, 1)}
	p.rx = []*RxQueue{p.newRxQueue(depth, make(chan struct{}, 1))}
	return p
}

func (p *ChanPort) newRxQueue(depth int, wake chan struct{}) *RxQueue {
	return &RxQueue{port: p, queue: queue[Frame]{ring: ring[Frame]{max: depth, keep: depth}, wake: wake}}
}

// SplitRx replaces the ingress side with len(wake) RSS queues of depth
// slots each and returns them; queue i signals wake[i] (cap 1, shared by
// whatever else its consumer polls). Frames already queued are hashed and
// re-steered in arrival order under the port lock, so nothing is lost or
// reordered at the switch-over.
func (p *ChanPort) SplitRx(wake []chan struct{}, depth int) []*RxQueue {
	qs := make([]*RxQueue, len(wake))
	for i := range qs {
		qs[i] = p.newRxQueue(depth, wake[i])
	}
	p.rxMu.Lock()
	for _, old := range p.rx {
		for {
			f, ok := old.ring.pop()
			if !ok {
				break
			}
			f.Hash = pkt.RSSHash(f.Data)
			if q := qs[f.Hash%uint64(len(qs))]; q.ring.push(f) {
				q.len.Add(1)
			} else {
				p.rxDrops.Add(1)
			}
		}
		old.len.Store(0)
	}
	p.rx = qs
	p.rss.Store(true)
	p.rxMu.Unlock()
	for _, q := range qs {
		if q.len.Load() > 0 {
			signal(q.wake)
		}
	}
	return qs
}

// Recv moves up to len(buf) queued frames into buf without blocking: one
// lock and one counter add per batch, none when the queue is empty.
func (q *RxQueue) Recv(buf []Frame) int {
	if q.len.Load() == 0 {
		return 0
	}
	p := q.port
	p.rxMu.Lock()
	n := 0
	for n < len(buf) {
		f, ok := q.ring.pop()
		if !ok {
			break
		}
		buf[n] = f
		n++
	}
	q.len.Add(int32(-n))
	p.rxMu.Unlock()
	p.received.Add(uint64(n))
	return n
}

// Len reports the queue's occupancy.
func (q *RxQueue) Len() int { return int(q.len.Load()) }

// Closed reports whether the port is closed: it accepts no more frames,
// so a Recv after Closed returned true sees the last of them.
func (q *RxQueue) Closed() bool { return q.port.closed.Load() }

// Recv blocks for the next ingress frame. Frames queued before Close are
// still delivered; then ok=false.
func (p *ChanPort) Recv() ([]byte, bool) {
	var one [1][]byte
	_, ok := p.RecvBatch(one[:])
	return one[0], ok
}

// TryRecv returns immediately; ok=false when no frame is waiting.
func (p *ChanPort) TryRecv() ([]byte, bool) {
	var one [1][]byte
	n, _ := p.tryRecvBatch(one[:])
	return one[0], n == 1
}

// Send transmits on the egress side; false on tail drop or closed port.
func (p *ChanPort) Send(data []byte) bool {
	one := [1][]byte{data}
	return p.XmitBatch(one[:]) == 1
}

// Inject places a frame on the ingress side, as a peer or test would. On
// a split port it computes the RSS hash and steers by it, which is what
// RSS hardware does on arrival.
func (p *ChanPort) Inject(data []byte) bool {
	rss := p.rss.Load()
	var h uint64
	if rss {
		h = pkt.RSSHash(data)
	}
	p.rxMu.Lock()
	if p.closed.Load() {
		p.rxMu.Unlock()
		return false
	}
	if !rss && p.rss.Load() {
		h = pkt.RSSHash(data) // SplitRx ran between the peek and the lock
	}
	q := p.rx[h%uint64(len(p.rx))]
	ok := q.ring.push(Frame{Data: data, Hash: h})
	wake := ok && q.len.Add(1) == 1
	p.rxMu.Unlock()
	if wake {
		signal(q.wake)
	} else if !ok {
		p.rxDrops.Add(1)
	}
	return ok
}

// Drain removes one transmitted frame (what the peer receives). An empty
// ring costs one atomic load, so a peer may poll.
func (p *ChanPort) Drain() ([]byte, bool) {
	if p.tx.len.Load() == 0 {
		return nil, false
	}
	p.txMu.Lock()
	d, ok := p.tx.ring.pop()
	if ok {
		p.tx.len.Add(-1)
	}
	p.txMu.Unlock()
	return d, ok
}

// DrainBlocking removes one transmitted frame, waiting until one arrives
// or the port closes (frames queued before Close are still delivered).
func (p *ChanPort) DrainBlocking() ([]byte, bool) {
	for {
		closed := p.closed.Load()
		if d, ok := p.Drain(); ok {
			if p.tx.len.Load() > 0 {
				signal(p.tx.wake) // more queued: pass the token to another waiter
			}
			return d, true
		}
		if closed {
			return nil, false
		}
		select {
		case <-p.tx.wake:
		case <-p.done:
		}
	}
}

// Close shuts the port; Recv, RecvBatch and DrainBlocking unblock, and
// the consumers of split rx queues are woken to see Closed. Safe against
// concurrent Inject/Send.
func (p *ChanPort) Close() {
	p.rxMu.Lock()
	p.txMu.Lock()
	first := p.closed.CompareAndSwap(false, true)
	qs := p.rx
	p.txMu.Unlock()
	p.rxMu.Unlock()
	if first {
		close(p.done)
		for _, q := range qs {
			signal(q.wake)
		}
	}
}

// Stats reports sent/received/dropped counters (drops summed over both
// directions; DetailedStats splits them).
func (p *ChanPort) Stats() (sent, received, drops uint64) {
	return p.sent.Load(), p.received.Load(), p.rxDrops.Load() + p.txDrops.Load()
}

// DetailedStats snapshots the port's counters with directional drops.
func (p *ChanPort) DetailedStats() PortStats {
	return PortStats{
		Sent:     p.sent.Load(),
		Received: p.received.Load(),
		RxDrops:  p.rxDrops.Load(),
		TxDrops:  p.txDrops.Load(),
	}
}

// Wire cross-connects two ports: frames sent on a appear at b's ingress
// and vice versa. It spawns two forwarding goroutines that exit when
// either port closes.
func Wire(a, b *ChanPort) {
	go func() {
		for {
			d, ok := a.DrainBlocking()
			if !ok {
				return
			}
			if !b.Inject(d) && b.closed.Load() {
				return
			}
		}
	}()
	go func() {
		for {
			d, ok := b.DrainBlocking()
			if !ok {
				return
			}
			if !a.Inject(d) && a.closed.Load() {
				return
			}
		}
	}()
}

// PortSet groups a switch's ports.
type PortSet struct {
	ports []*ChanPort
}

// NewPortSet builds n ports with the given depth. A switch's egress ring
// can take everything its ingress side holds, n × depth frames, so a
// frame the switch accepted is not refused mid-switch because one egress
// peer paused for a scheduler quantum: refusal stays at the ingress
// edge. Storage past depth is released once the ring drains.
func NewPortSet(n, depth int) (*PortSet, error) {
	if n <= 0 {
		return nil, fmt.Errorf("netio: need at least one port, got %d", n)
	}
	ps := &PortSet{}
	for i := 0; i < n; i++ {
		ps.ports = append(ps.ports, newChanPort(depth, n))
	}
	return ps, nil
}

// Len reports the port count.
func (ps *PortSet) Len() int { return len(ps.ports) }

// Port returns port i.
func (ps *PortSet) Port(i int) (*ChanPort, error) {
	if i < 0 || i >= len(ps.ports) {
		return nil, fmt.Errorf("netio: port %d out of range [0,%d)", i, len(ps.ports))
	}
	return ps.ports[i], nil
}

// Close closes every port.
func (ps *PortSet) Close() {
	for _, p := range ps.ports {
		p.Close()
	}
}
