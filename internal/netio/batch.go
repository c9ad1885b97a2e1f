package netio

// Batch I/O on a single-queue ChanPort: one wakeup moves up to len(buf)
// frames under one lock, so the caller amortizes per-frame costs (pool
// gets, telemetry increments, TM admissions) across the batch.

// RecvBatch blocks until at least one ingress frame is queued, then
// takes whatever is there, up to len(buf) frames, under one lock and
// one counter add. Frames queued before Close are still delivered; then
// ok=false.
func (p *ChanPort) RecvBatch(buf [][]byte) (int, bool) {
	if len(buf) == 0 {
		return 0, true
	}
	for {
		// Read closed before the scan: a closed port accepts nothing, so
		// an empty scan after it is final.
		closed := p.closed.Load()
		n, q := p.tryRecvBatch(buf)
		if n > 0 {
			return n, true
		}
		if closed {
			return 0, false
		}
		select {
		case <-q.wake:
		case <-p.done:
		}
	}
}

// tryRecvBatch is RecvBatch without the wait; it also returns the queue
// it read (ingress queue 0), whose wake channel the caller parks on.
func (p *ChanPort) tryRecvBatch(buf [][]byte) (int, *RxQueue) {
	p.rxMu.Lock()
	q := p.rx[0]
	n := 0
	for n < len(buf) {
		f, ok := q.ring.pop()
		if !ok {
			break
		}
		buf[n] = f.Data
		n++
	}
	more := q.len.Add(int32(-n)) > 0
	p.rxMu.Unlock()
	if n > 0 {
		p.received.Add(uint64(n))
		if more {
			signal(q.wake) // pass the token to another parked receiver
		}
	}
	return n, q
}

// XmitBatch transmits frames in order under one lock, counting accepted
// frames and tail drops once per batch. The ring is FIFO and nobody can
// drain it meanwhile, so once one frame is refused the rest are too.
func (p *ChanPort) XmitBatch(frames [][]byte) int {
	if len(frames) == 0 {
		return 0
	}
	p.txMu.Lock()
	if p.closed.Load() {
		p.txMu.Unlock()
		return 0
	}
	sent := 0
	for sent < len(frames) && p.tx.ring.push(frames[sent]) {
		sent++
	}
	wake := sent > 0 && p.tx.len.Add(int32(sent)) == int32(sent)
	p.txMu.Unlock()
	if wake {
		signal(p.tx.wake)
	}
	if sent > 0 {
		p.sent.Add(uint64(sent))
	}
	if sent < len(frames) {
		p.txDrops.Add(uint64(len(frames) - sent))
	}
	return sent
}
