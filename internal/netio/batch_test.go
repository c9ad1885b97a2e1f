package netio

import (
	"bytes"
	"testing"
	"time"
)

// TestChanPortRecvBatch: the first frame blocks, the rest of the batch is
// whatever is already queued, and the received counter advances once per
// frame despite a single add per batch.
func TestChanPortRecvBatch(t *testing.T) {
	p := NewChanPort(16)
	for i := 0; i < 5; i++ {
		if !p.Inject([]byte{byte(i)}) {
			t.Fatal("inject failed")
		}
	}
	buf := make([][]byte, 8)
	n, ok := p.RecvBatch(buf)
	if !ok || n != 5 {
		t.Fatalf("RecvBatch = %d,%v want 5,true", n, ok)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(buf[i], []byte{byte(i)}) {
			t.Fatalf("frame %d = %v (order broken)", i, buf[i])
		}
	}
	if _, recvd, _ := p.Stats(); recvd != 5 {
		t.Fatalf("received counter = %d want 5", recvd)
	}
}

// TestChanPortRecvBatchCapped: a batch never exceeds len(buf); the
// overflow stays queued for the next call.
func TestChanPortRecvBatchCapped(t *testing.T) {
	p := NewChanPort(16)
	for i := 0; i < 6; i++ {
		p.Inject([]byte{byte(i)})
	}
	buf := make([][]byte, 4)
	if n, ok := p.RecvBatch(buf); !ok || n != 4 {
		t.Fatalf("first batch = %d,%v want 4,true", n, ok)
	}
	if n, ok := p.RecvBatch(buf); !ok || n != 2 {
		t.Fatalf("second batch = %d,%v want 2,true", n, ok)
	}
}

// TestChanPortRecvBatchBlocks: an empty port parks the caller until a
// frame arrives — no spinning, no timeout path.
func TestChanPortRecvBatchBlocks(t *testing.T) {
	p := NewChanPort(4)
	got := make(chan int, 1)
	go func() {
		buf := make([][]byte, 4)
		n, _ := p.RecvBatch(buf)
		got <- n
	}()
	select {
	case n := <-got:
		t.Fatalf("RecvBatch returned %d frames from an empty port", n)
	case <-time.After(20 * time.Millisecond):
	}
	p.Inject([]byte{1})
	select {
	case n := <-got:
		if n != 1 {
			t.Fatalf("woke with %d frames, want 1", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("RecvBatch never woke after Inject")
	}
}

// TestChanPortRecvBatchClose: Close unblocks a parked RecvBatch with
// ok=false.
func TestChanPortRecvBatchClose(t *testing.T) {
	p := NewChanPort(4)
	done := make(chan bool, 1)
	go func() {
		buf := make([][]byte, 4)
		_, ok := p.RecvBatch(buf)
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	p.Close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("RecvBatch reported ok=true after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("RecvBatch never unblocked after Close")
	}
}

// TestChanPortXmitBatch: accepted frames count as sent, the overflow as
// per-frame tail drops — identical accounting to a Send loop.
func TestChanPortXmitBatch(t *testing.T) {
	p := NewChanPort(4)
	frames := make([][]byte, 7)
	for i := range frames {
		frames[i] = []byte{byte(i)}
	}
	if sent := p.XmitBatch(frames); sent != 4 {
		t.Fatalf("XmitBatch = %d want 4", sent)
	}
	st := p.DetailedStats()
	if st.Sent != 4 || st.TxDrops != 3 {
		t.Fatalf("stats sent=%d txDrops=%d want 4/3", st.Sent, st.TxDrops)
	}
	for i := 0; i < 4; i++ {
		d, ok := p.Drain()
		if !ok || !bytes.Equal(d, []byte{byte(i)}) {
			t.Fatalf("drained frame %d = %v,%v", i, d, ok)
		}
	}
}

// TestChanPortXmitBatchClosed: a closed port accepts nothing.
func TestChanPortXmitBatchClosed(t *testing.T) {
	p := NewChanPort(4)
	p.Close()
	if sent := p.XmitBatch([][]byte{{1}, {2}}); sent != 0 {
		t.Fatalf("XmitBatch on closed port = %d want 0", sent)
	}
}

// TestRecvBatchZeroBuf: a zero-length buffer is a no-op, not a block.
func TestRecvBatchZeroBuf(t *testing.T) {
	p := NewChanPort(4)
	if n, ok := p.RecvBatch(nil); n != 0 || !ok {
		t.Fatalf("RecvBatch(nil) = %d,%v", n, ok)
	}
}
