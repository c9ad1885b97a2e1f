package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call from the harness into a layer. Spans are
// recorded from outside the switch only: a span's children are the
// calls the harness (or the CCM server on its behalf) made inside its
// interval, and a layer's self time is its span minus those children.
type span struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`   // 0: the workload run is the root
	TraceID int32  `json:"trace_id"` // shared by one sampled frame's or update's spans
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Start   int64  `json:"start_ns"` // since the run began
	End     int64  `json:"end_ns"`
	N       int32  `json:"n"` // calls the interval covers (a probe chunk times many)
}

// traceCap bounds the in-memory ring; the sampling rates in the drivers
// are chosen so a run stays well inside it.
const traceCap = 1 << 16

// tracer keeps spans in a preallocated ring and writes them out when
// the run ends. A nil tracer (the untraced run) records nothing.
type tracer struct {
	t0     time.Time
	nextID atomic.Int32

	mu    sync.Mutex
	ring  []span
	total int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), ring: make([]span, 0, traceCap)}
}

// id reserves a span id so children can name their parent before the
// parent's own interval has ended.
func (t *tracer) id() int32 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// put stores a finished span under a reserved id.
func (t *tracer) put(id, parent, traceID int32, name, layer string, start, end time.Time, n int) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, TraceID: traceID, Name: name, Layer: layer,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), N: int32(n)}
	t.mu.Lock()
	if len(t.ring) < traceCap {
		t.ring = append(t.ring, s)
	} else {
		t.ring[t.total%traceCap] = s
	}
	t.total++
	t.mu.Unlock()
}

// add records a leaf span in one call.
func (t *tracer) add(parent, traceID int32, name, layer string, start, end time.Time, n int) {
	if t == nil {
		return
	}
	t.put(t.id(), parent, traceID, name, layer, start, end, n)
}

// traceFile is what bench/out/trace-<workload>.json holds.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Dropped  int    `json:"dropped"` // spans overwritten because the ring was full
	Spans    []span `json:"spans"`
}

func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	t.mu.Lock()
	f := traceFile{Workload: workload, Seed: seed, Spans: t.ring}
	if t.total > traceCap {
		f.Dropped = t.total - traceCap
	}
	b, err := json.Marshal(f)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, b, 0o644)
}
