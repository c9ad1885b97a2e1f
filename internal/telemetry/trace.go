package telemetry

import "sync"

// StageEvent is one step of a packet's journey: a logical stage executed
// on some TSP, the table it applied (if any) and the action arm chosen.
type StageEvent struct {
	TSP     int    `json:"tsp"`
	Stage   string `json:"stage"`
	Table   string `json:"table,omitempty"`
	Applied bool   `json:"applied"` // a table lookup happened in this stage
	Hit     bool   `json:"hit"`
	Tag     uint64 `json:"tag,omitempty"` // matched entry's action tag
	Action  string `json:"action,omitempty"`
	Default bool   `json:"default,omitempty"` // the default arm ran
}

// TraceHeader records where one parsed header landed in the packet.
type TraceHeader struct {
	Name string `json:"name"`
	Off  int    `json:"off"`
	Len  int    `json:"len"`
}

// TraceRecord is one sampled packet's flight record.
type TraceRecord struct {
	Seq     uint64 `json:"seq"`
	InPort  int    `json:"in_port"`
	OutPort int    `json:"out_port"`
	Bytes   int    `json:"bytes"`
	Verdict string `json:"verdict"` // one of verdict.Strings
	// Epoch is the program-store epoch the packet executed under (0 on
	// pisa, which has no program store) — it ties a
	// sampled packet to the exact program version that handled it across
	// hitless reconfigurations.
	Epoch   uint64        `json:"epoch,omitempty"`
	Headers []TraceHeader `json:"headers,omitempty"`
	Stages  []StageEvent  `json:"stages,omitempty"`
}

// AddStage appends one stage event; nil-safe so instrumented code can
// call through an always-present pointer field.
func (t *TraceRecord) AddStage(ev StageEvent) {
	if t == nil {
		return
	}
	t.Stages = append(t.Stages, ev)
}

// Tracer is the flight recorder: a fixed-size ring of per-packet trace
// records filled by sampling. With sampling disabled (interval 0) or on a
// non-sampled packet the cost is the Sampler's single counter increment.
type Tracer struct {
	sampler *Sampler
	seq     Counter

	mu   sync.Mutex
	ring []TraceRecord
	pos  int
	full bool
}

// NewTracer builds a flight recorder holding size records, sampling every
// interval-th packet (0 = disabled until SetInterval).
func NewTracer(size int, interval uint64) *Tracer {
	if size <= 0 {
		size = 256
	}
	return &Tracer{sampler: NewSampler(interval), ring: make([]TraceRecord, size)}
}

// SetInterval changes the sampling rate at runtime (0 disables).
func (t *Tracer) SetInterval(n uint64) { t.sampler.SetInterval(n) }

// Interval reads the sampling rate.
func (t *Tracer) Interval() uint64 { return t.sampler.Interval() }

// Sample decides whether the current packet is traced. It returns a fresh
// record to fill in, or nil (the common case) at the cost of one atomic
// increment.
func (t *Tracer) Sample() *TraceRecord {
	if !t.sampler.Hit() {
		return nil
	}
	t.seq.Inc()
	return &TraceRecord{Seq: t.seq.Value()}
}

// Commit stores a completed record in the ring, overwriting the oldest.
// Nil records (not sampled) are ignored.
func (t *Tracer) Commit(rec *TraceRecord) {
	if rec == nil {
		return
	}
	t.mu.Lock()
	t.ring[t.pos] = *rec
	t.pos++
	if t.pos == len(t.ring) {
		t.pos = 0
		t.full = true
	}
	t.mu.Unlock()
}

// Dump copies up to max records out of the ring, newest first. max <= 0
// means all.
func (t *Tracer) Dump(max int) []TraceRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.pos
	if t.full {
		n = len(t.ring)
	}
	if max <= 0 || max > n {
		max = n
	}
	out := make([]TraceRecord, 0, max)
	for i := 1; i <= max; i++ {
		idx := t.pos - i
		if idx < 0 {
			idx += len(t.ring)
		}
		out = append(out, t.ring[idx])
	}
	return out
}

// Len reports how many records are buffered.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.full {
		return len(t.ring)
	}
	return t.pos
}
