package flowstat

// reasonActive marks a Dump snapshot of a still-live flow (never stored
// in the ring; the ring only sees real evictions and flushes).
const reasonActive uint8 = 0xff

// tuple is a flow's five-tuple as extracted once at claim time from the
// pristine frame: addresses as 16-byte (v4-mapped) words.
type tuple struct {
	src, dst [16]byte
	sport    uint16
	dport    uint16
	proto    uint8
	tupOK    bool
}

// rawRec is the fixed-size internal flow record, and the flow table's
// slot: a live flow already has its record's shape, so eviction is a
// struct copy into the pending array and again into the ring, with
// nothing allocated. Exported Records are rendered from it at dump time,
// where allocation is fine. The fields a resident packet writes lead, on
// one cache line. 112 bytes.
type rawRec struct {
	hash   uint64 // RSS flow hash; 0 = free slot
	pkts   uint64
	bytes  uint64
	last   int64 // package-clock nanos at last touch or finish
	first  int64 // package-clock nanos at claim
	latSum int64 // sum of sampled pipeline latencies
	latN   uint64
	seq    uint64 // assigned when the record enters the ring
	tuple
	lane    int32
	verdict uint8 // last Verdict observed at finish
	reason  uint8
}

// Record is the exported flow record (IPFIX-lite): one completed — or,
// in a Dump, still-active — flow with its five-tuple, counts, timing and
// last verdict. Timestamps are nanoseconds on the package's monotonic
// clock (process start = 0); AgeNanos is relative to the dump.
type Record struct {
	Seq           uint64 `json:"seq,omitempty"`
	Lane          int    `json:"lane"`
	Hash          string `json:"hash"`
	Src           string `json:"src,omitempty"`
	Dst           string `json:"dst,omitempty"`
	Proto         uint8  `json:"proto,omitempty"`
	SrcPort       uint16 `json:"src_port,omitempty"`
	DstPort       uint16 `json:"dst_port,omitempty"`
	Packets       uint64 `json:"packets"`
	Bytes         uint64 `json:"bytes"`
	DurationNanos int64  `json:"duration_nanos"`
	AgeNanos      int64  `json:"age_nanos"`
	LatAvgNanos   int64  `json:"lat_avg_nanos,omitempty"`
	LatSamples    uint64 `json:"lat_samples,omitempty"`
	Verdict       string `json:"verdict,omitempty"`
	Reason        string `json:"reason"` // idle | clash | flush | active
}

// export renders the internal record for dumps and the control channel.
func (r *rawRec) export(now int64) Record {
	out := Record{
		Seq:           r.seq,
		Lane:          int(r.lane),
		Hash:          hashString(r.hash),
		Packets:       r.pkts,
		Bytes:         r.bytes,
		DurationNanos: r.last - r.first,
		AgeNanos:      now - r.last,
		LatSamples:    r.latN,
		Verdict:       Verdict(r.verdict).String(),
		Reason:        reasonString(r.reason),
	}
	if r.tupOK {
		out.Src, out.Dst = addrString(r.src), addrString(r.dst)
		out.Proto, out.SrcPort, out.DstPort = r.proto, r.sport, r.dport
	}
	if r.latN > 0 {
		out.LatAvgNanos = r.latSum / int64(r.latN)
	}
	return out
}
