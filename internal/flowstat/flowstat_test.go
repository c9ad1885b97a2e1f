package flowstat

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"ipsa/internal/pkt"
	"ipsa/internal/telemetry"
)

func v4Frame(t testing.TB, srcPort uint16) []byte {
	t.Helper()
	raw, err := pkt.Serialize(
		&pkt.Ethernet{Dst: [6]byte{2, 0, 0, 0, 0, 1}, Src: [6]byte{2, 0, 0, 0, 0, 2}, EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoTCP, Src: [4]byte{10, 0, 0, 1}, Dst: [4]byte{10, 1, 0, 1}},
		&pkt.TCP{SrcPort: srcPort, DstPort: 80, Seq: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func v6Frame(t testing.TB) []byte {
	t.Helper()
	src := [16]byte{0x20, 0x01, 0x0d, 0xb8, 15: 1}
	dst := [16]byte{0x20, 0x01, 0x0d, 0xb8, 15: 2}
	raw, err := pkt.Serialize(
		&pkt.Ethernet{Dst: [6]byte{2, 0, 0, 0, 0, 1}, Src: [6]byte{2, 0, 0, 0, 0, 2}, EtherType: pkt.EtherTypeIPv6},
		&pkt.IPv6{HopLimit: 64, NextHeader: pkt.IPProtoUDP, Src: src, Dst: dst},
		&pkt.UDP{SrcPort: 5353, DstPort: 53},
	)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestAccountAndDump: the basic accounting cycle — touches accumulate,
// finish records the verdict and latency, Dump exports the decoded
// five-tuple.
func TestAccountAndDump(t *testing.T) {
	s := NewSet(1, Config{TableBits: 4})
	tab := s.Lane(0)
	data := v4Frame(t, 4242)
	h := pkt.RSSHash(data)
	for i := 0; i < 3; i++ {
		tab.Touch(h, data, len(data), int64(i)*1000)
		tab.Finish(h, VerdictForwarded, 500, int64(i)*1000)
	}
	recs := s.Dump(0)
	if len(recs) != 1 {
		t.Fatalf("Dump returned %d records, want 1", len(recs))
	}
	r := recs[0]
	if r.Packets != 3 || r.Bytes != uint64(3*len(data)) {
		t.Errorf("packets=%d bytes=%d, want 3/%d", r.Packets, r.Bytes, 3*len(data))
	}
	if r.Src != "10.0.0.1" || r.Dst != "10.1.0.1" || r.Proto != 6 ||
		r.SrcPort != 4242 || r.DstPort != 80 {
		t.Errorf("tuple = %s:%d -> %s:%d proto=%d", r.Src, r.SrcPort, r.Dst, r.DstPort, r.Proto)
	}
	if r.Verdict != "forwarded" || r.Reason != "active" {
		t.Errorf("verdict=%q reason=%q", r.Verdict, r.Reason)
	}
	if r.LatAvgNanos != 500 || r.LatSamples != 3 {
		t.Errorf("lat avg=%d n=%d, want 500/3", r.LatAvgNanos, r.LatSamples)
	}
	if s.ActiveFlows() != 1 {
		t.Errorf("ActiveFlows = %d", s.ActiveFlows())
	}
}

// TestTupleV6: v6 addresses round-trip through the packed entry words.
func TestTupleV6(t *testing.T) {
	s := NewSet(1, Config{TableBits: 4})
	tab := s.Lane(0)
	data := v6Frame(t)
	h := pkt.RSSHash(data)
	tab.Touch(h, data, len(data), 0)
	recs := s.Dump(0)
	if len(recs) != 1 {
		t.Fatalf("Dump returned %d records", len(recs))
	}
	r := recs[0]
	if r.Src != "2001:db8::1" || r.Dst != "2001:db8::2" || r.Proto != 17 ||
		r.SrcPort != 5353 || r.DstPort != 53 {
		t.Errorf("tuple = %s:%d -> %s:%d proto=%d", r.Src, r.SrcPort, r.Dst, r.DstPort, r.Proto)
	}
}

// TestClashConservation: a table far smaller than the flow population
// must still conserve every packet — clash evictions emit records, the
// flush retires the remainder, and the record mass equals the touches.
func TestClashConservation(t *testing.T) {
	s := NewSet(1, Config{TableBits: 2}) // 4 slots
	tab := s.Lane(0)
	const flows, perFlow = 64, 7
	for f := 0; f < flows; f++ {
		data := v4Frame(t, uint16(1000+f))
		h := pkt.RSSHash(data)
		for i := 0; i < perFlow; i++ {
			tab.Touch(h, data, len(data), int64(i))
		}
	}
	s.FlushAll()
	if got := s.RecordPackets(); got != flows*perFlow {
		t.Fatalf("record packets = %d, want %d (conservation violated)", got, flows*perFlow)
	}
	if tab.Live() != 0 {
		t.Errorf("live = %d after flush", tab.Live())
	}
}

// TestIdleSweep: a flow idle past the bound is retired by the
// touch-amortized sweeper with reason "idle".
func TestIdleSweep(t *testing.T) {
	s := NewSet(1, Config{TableBits: 4, IdleNanos: 1000})
	tab := s.Lane(0)
	old := v4Frame(t, 1)
	tab.Touch(pkt.RSSHash(old), old, len(old), 0)
	// Drive another flow until the sweep trigger fires with a now far
	// past the first flow's idle bound.
	busy := v4Frame(t, 2)
	bh := pkt.RSSHash(busy)
	for i := 0; i < 2*sweepEvery; i++ {
		tab.Touch(bh, busy, len(busy), 1_000_000)
	}
	recs := s.Records(0)
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1 idle eviction", len(recs))
	}
	if recs[0].Reason != "idle" || recs[0].SrcPort != 1 {
		t.Errorf("record = %+v, want idle eviction of flow 1", recs[0])
	}
	if tab.Live() != 1 {
		t.Errorf("live = %d, want 1 (busy flow)", tab.Live())
	}
}

// TestHeavyHittersSurviveEviction: the defining property — a heavy flow
// displaced from the table keeps its mass visible through the
// space-saving summary and count-min sketch.
func TestHeavyHittersSurviveEviction(t *testing.T) {
	s := NewSet(1, Config{TableBits: 2, TopK: 4})
	tab := s.Lane(0)
	heavy := v4Frame(t, 9999)
	hh := pkt.RSSHash(heavy)
	for i := 0; i < 500; i++ {
		tab.Touch(hh, heavy, len(heavy), 0)
	}
	tab.Flush(0) // evict the heavy flow from the table entirely
	// Light-flow storm churns the table after the heavy flow is gone.
	for f := 0; f < 64; f++ {
		data := v4Frame(t, uint16(f))
		tab.Touch(pkt.RSSHash(data), data, len(data), 0)
	}
	top := s.HeavyHitters(3)
	if len(top) == 0 {
		t.Fatal("no heavy hitters reported")
	}
	best := top[0]
	if best.Packets < 500 {
		t.Fatalf("top hitter counts %d packets, heavy flow had 500", best.Packets)
	}
	if best.SrcPort != 9999 && best.Hash != fmt.Sprintf("%016x", hh) {
		t.Errorf("top hitter is %s:%d (hash %s), want the heavy flow", best.Src, best.SrcPort, best.Hash)
	}
	if best.Live {
		t.Error("heavy flow reported live after eviction")
	}
	// The sketch never underestimates evicted mass.
	if est := tab.EstimateEvicted(hh); est < 500 {
		t.Errorf("sketch estimate %d < true evicted count 500", est)
	}
}

// TestSketchOverestimates: count-min estimates are always >= the true
// count, and unseen keys with no collisions read zero-ish (bounded).
func TestSketchOverestimates(t *testing.T) {
	cm := NewCountMin(64, 4)
	truth := map[uint64]uint64{}
	for k := uint64(1); k <= 200; k++ {
		n := k % 9
		for i := uint64(0); i < n; i++ {
			cm.Add(k, 1)
		}
		truth[k] = n
	}
	for k, n := range truth {
		if est := cm.Estimate(k); est < n {
			t.Fatalf("estimate(%d) = %d < true %d", k, est, n)
		}
	}
	if cm.Width() != 64 || cm.Depth() != 4 {
		t.Errorf("dims = %dx%d", cm.Width(), cm.Depth())
	}
}

// TestRecordRingWrap: the ring keeps the newest RingSize records,
// oldest-first, with monotonic sequence numbers.
func TestRecordRingWrap(t *testing.T) {
	s := NewSet(1, Config{TableBits: 4, RingSize: 4})
	tab := s.Lane(0)
	for f := 0; f < 6; f++ {
		data := v4Frame(t, uint16(100+f))
		tab.Touch(pkt.RSSHash(data), data, len(data), int64(f))
		tab.Flush(int64(f))
	}
	recs := s.Records(0)
	if len(recs) != 4 {
		t.Fatalf("ring holds %d records, want 4", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(3+i) {
			t.Errorf("record %d seq = %d, want %d", i, r.Seq, 3+i)
		}
		if r.Reason != "flush" {
			t.Errorf("record %d reason = %q", i, r.Reason)
		}
	}
	if got := s.Records(2); len(got) != 2 || got[1].Seq != 6 {
		t.Errorf("Records(2) = %d records ending seq %d", len(got), got[len(got)-1].Seq)
	}
	if s.RecordCount() != 6 {
		t.Errorf("RecordCount = %d, want 6", s.RecordCount())
	}
}

// TestZeroAllocHotPath pins the per-packet contract: Touch and Finish on
// a warm table allocate nothing.
func TestZeroAllocHotPath(t *testing.T) {
	data := v4Frame(t, 7)
	// Resident flows: one hot flow, and a working set of 64 walking a
	// 1024-slot table.
	for _, c := range []struct{ bits, flows int }{{8, 1}, {10, 64}} {
		tab := NewSet(1, Config{TableBits: c.bits}).Lane(0)
		walk := func() {
			for f := 0; f < c.flows; f++ {
				h := pkt.RSSHash(data) + uint64(f)*0x9e3779b97f4a7c15
				tab.Touch(h, data, len(data), 1)
				tab.Finish(h, VerdictForwarded, 100, 1)
			}
		}
		walk()
		if avg := testing.AllocsPerRun(1000, walk); avg != 0 {
			t.Errorf("hot path allocates with %d resident flows: %.2f allocs per %d packets", c.flows, avg, c.flows)
		}
	}

	// The evicting path: 8 slots and 200 flows cycled bare, so every packet
	// displaces a flow and, with no hold ever released, the pending array
	// fills and drains to the ring mid-run — three times a run.
	ev := NewSet(1, Config{TableBits: 3})
	etab := ev.Lane(0)
	const flows = 200
	round := func() {
		for f := uint64(1); f <= flows; f++ {
			etab.Touch(f*0x9e3779b97f4a7c15, data, len(data), 1)
			etab.Finish(f*0x9e3779b97f4a7c15, VerdictForwarded, 100, 1)
		}
	}
	round()
	before := ev.RecordCount()
	if avg := testing.AllocsPerRun(10, round); avg != 0 {
		t.Errorf("evicting path allocates: %.2f allocs per %d packets", avg, flows)
	}
	// AllocsPerRun makes runs+1 calls.
	if n := ev.RecordCount() - before; n < 11*2*pendMax {
		t.Errorf("%d records over 11 rounds: fewer than two pending flushes a round", n)
	}
}

// viewMux serves s's views the way a switch's metrics endpoint does.
func viewMux(s *Set) *http.ServeMux {
	views := telemetry.NewViews()
	s.AddViews(views)
	mux := http.NewServeMux()
	views.Register(mux)
	return mux
}

// TestNilSafety: a disabled Set (nil) is inert everywhere callers touch
// it, including its views, which serve empty arrays.
func TestNilSafety(t *testing.T) {
	var s *Set
	if s.Lane(0) != nil {
		t.Error("nil set produced a table")
	}
	s.FlushAll() // must not panic
	mux := viewMux(s)
	for _, path := range []string{"/v/flows", "/v/flow_records", "/v/hh"} {
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		if rr.Code != http.StatusOK || rr.Body.String() != "[]" {
			t.Fatalf("%s: status %d body %q", path, rr.Code, rr.Body)
		}
	}
}

// TestHTTPEndpoint: the flow views serve dumps, records and heavy
// hitters as JSON.
func TestHTTPEndpoint(t *testing.T) {
	s := NewSet(1, Config{TableBits: 4})
	tab := s.Lane(0)
	data := v4Frame(t, 8080)
	h := pkt.RSSHash(data)
	tab.Touch(h, data, len(data), 0)
	tab.Finish(h, VerdictForwarded, -1, 0)
	mux := viewMux(s)

	get := func(url string) []byte {
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, httptest.NewRequest("GET", url, nil))
		if rr.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d", url, rr.Code)
		}
		return rr.Body.Bytes()
	}
	var flows []Record
	if err := json.Unmarshal(get("/v/flows"), &flows); err != nil {
		t.Fatal(err)
	}
	if len(flows) != 1 || flows[0].SrcPort != 8080 {
		t.Fatalf("/v/flows = %+v", flows)
	}
	tab.Flush(0)
	if err := json.Unmarshal(get("/v/flow_records?max=5"), &flows); err != nil {
		t.Fatal(err)
	}
	if len(flows) != 1 || flows[0].Reason != "flush" {
		t.Fatalf("/v/flow_records = %+v", flows)
	}
	var hh []HeavyHitter
	if err := json.Unmarshal(get("/v/hh"), &hh); err != nil {
		t.Fatal(err)
	}
	if len(hh) != 1 || hh[0].Live {
		t.Fatalf("/v/hh = %+v", hh)
	}
}

// TestVerdictRoundTrip: the verdict a flow last finished with is the one
// its record reports, for every verdict the switch hands in.
func TestVerdictRoundTrip(t *testing.T) {
	s := NewSet(1, Config{TableBits: 4})
	tab := s.Lane(0)
	data := v4Frame(t, 4242)
	h := pkt.RSSHash(data)
	for v := VerdictForwarded; v <= VerdictParse; v++ {
		tab.Touch(h, data, len(data), 0)
		tab.Finish(h, v, -1, 0)
		if recs := s.Dump(0); len(recs) != 1 || recs[0].Verdict != v.String() {
			t.Errorf("after a %v finish the flow dumps %+v", v, recs)
		}
	}
}

// TestConcurrentReadersRace exercises the hold discipline under the race
// detector: one writer per lane, holding its table a batch at a time as
// the switch's lanes do, with dumps, heavy-hitter merges and record
// reads racing them.
func TestConcurrentReadersRace(t *testing.T) {
	s := NewSet(2, Config{TableBits: 3, IdleNanos: 10, TopK: 4})
	frames := make([][]byte, 97)
	hashes := make([]uint64, 97)
	for i := range frames {
		frames[i] = v4Frame(t, uint16(i))
		hashes[i] = pkt.RSSHash(frames[i])
	}
	var writers sync.WaitGroup
	for lane := 0; lane < 2; lane++ {
		writers.Add(1)
		go func(lane int) {
			defer writers.Done()
			tab := s.Lane(lane)
			for b := 0; b < 5000; b += 16 {
				tab.Hold()
				for i := b; i < min(b+16, 5000); i++ {
					f := i % len(frames)
					tab.Touch(hashes[f], frames[f], len(frames[f]), int64(i))
					tab.Finish(hashes[f], VerdictForwarded, int64(i%50), int64(i))
				}
				tab.Release()
			}
		}(lane)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.Dump(10)
			s.HeavyHitters(5)
			s.Records(10)
			s.ActiveFlows()
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()
	s.FlushAll()
	// 8-slot tables under 97 flows clash constantly; after the flush every
	// touched packet must sit in a record.
	if got := s.RecordPackets(); got != 2*5000 {
		t.Fatalf("record packets = %d, want %d", got, 2*5000)
	}
}

// TestSharedLaneConservation: two writers on one lane — what an inline
// Forward on a port a shard also serves amounts to — each holding the
// table a batch at a time, with every reader racing them. On a table this
// small almost every packet evicts, and the count must still be exact.
func TestSharedLaneConservation(t *testing.T) {
	s := NewSet(1, Config{TableBits: 3, IdleNanos: 10, TopK: 4})
	frames := make([][]byte, 97)
	hashes := make([]uint64, 97)
	for i := range frames {
		frames[i] = v4Frame(t, uint16(i))
		hashes[i] = pkt.RSSHash(frames[i])
	}
	const batches, batch = 400, 16
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			tab := s.Lane(0)
			for b := 0; b < batches; b++ {
				tab.Hold()
				for i := 0; i < batch; i++ {
					f := (w*31 + b*batch + i) % len(frames)
					tab.Touch(hashes[f], frames[f], len(frames[f]), int64(b))
					tab.Finish(hashes[f], VerdictForwarded, int64(i), int64(b))
				}
				tab.Release()
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.Dump(10)
			s.HeavyHitters(5)
			s.Records(10)
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()
	s.FlushAll()
	if got := s.RecordPackets(); got != 2*batches*batch {
		t.Fatalf("record packets = %d, want %d", got, 2*batches*batch)
	}
}

// TestDumpMaxBounded: Dump(max) selects the top max slots before it
// renders anything, so its cost in memory is max records however many
// flows are live — and they are the records the unbounded path ranks
// first.
func TestDumpMaxBounded(t *testing.T) {
	s := NewSet(1, Config{TableBits: 16})
	tab := s.Lane(0)
	data := v4Frame(t, 1)
	rng := rand.New(rand.NewSource(1))
	for f := 0; f < 40000; f++ {
		h := rng.Uint64() | 1
		for i := rng.Intn(3) + 1; i > 0; i-- {
			tab.Touch(h, data, len(data), 7)
		}
	}
	strip := func(recs []Record) []Record {
		for i := range recs {
			recs[i].AgeNanos = 0 // relative to each dump's own clock read
		}
		return recs
	}
	all := strip(s.Dump(0))
	if len(all) < 30000 {
		t.Fatalf("only %d live flows", len(all))
	}
	// A negative max is "all", as it always was: /flows?max=-1 reaches here.
	if neg := strip(s.Dump(-1)); !reflect.DeepEqual(neg, all) {
		t.Errorf("Dump(-1) returned %d records, want all %d", len(neg), len(all))
	}
	if got := strip(s.Dump(5)); !reflect.DeepEqual(got, all[:5]) {
		t.Errorf("Dump(5) = %+v\nwant the head of Dump(0) = %+v", got, all[:5])
	}
	var m0, m1 runtime.MemStats
	const runs = 10
	runtime.ReadMemStats(&m0)
	allocs := testing.AllocsPerRun(runs, func() { s.Dump(5) })
	runtime.ReadMemStats(&m1)
	// AllocsPerRun makes runs+1 calls.
	if per := (m1.TotalAlloc - m0.TotalAlloc) / (runs + 1); per >= 64<<10 || allocs > 100 {
		t.Errorf("Dump(5) over %d live flows allocates %d bytes in %.0f allocations, want < 64 KB", len(all), per, allocs)
	}
}

// TestScanPanicReleasesHold: a reader that panics mid-scan (net/http
// recovers handlers) must not leave the table held against its lane.
func TestScanPanicReleasesHold(t *testing.T) {
	s := NewSet(1, Config{TableBits: 4})
	tab := s.Lane(0)
	tab.Touch(42, nil, 64, 0)
	func() {
		defer func() { _ = recover() }()
		tab.scan(func(*rawRec) { panic("reader bug") })
	}()
	done := make(chan int64, 1)
	go func() { done <- tab.Live() }()
	select {
	case n := <-done:
		if n != 1 {
			t.Errorf("live = %d, want 1", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("table still held after a recovered scan panic")
	}
}

// TestModelDifferential drives one table with a seeded skewed trace and
// holds it, every 10 000 packets, to a map-based model: nothing is lost
// or invented whichever of clash, idle sweep or flush retires a flow.
func TestModelDifferential(t *testing.T) {
	const flows, packets, check = 4096, 200_000, 10_000
	s := NewSet(1, Config{TableBits: 8, IdleNanos: 3000, RingSize: 2 * check})
	tab := s.Lane(0)
	data := v4Frame(t, 1)
	rng := rand.New(rand.NewSource(42))
	zipf := rand.NewZipf(rng, 1.1, 8, flows-1)
	metric := func(reason string) (v uint64) {
		s.Collect(func(p telemetry.MetricPoint) {
			if p.Name == "ipsa_flow_evictions_total" && p.Labels[0].Value == reason {
				v = uint64(p.Value)
			}
		})
		return v
	}
	// model counts every packet per flow; evicted, recPkts, byReason and seq
	// accumulate the record stream, read a checkpoint at a time (the ring
	// holds more than one checkpoint can emit).
	model, evicted := map[uint64]uint64{}, map[uint64]uint64{}
	byReason := map[string]uint64{}
	var recPkts, seq uint64
	for n := 1; n <= packets; n++ {
		h := splitmix64(zipf.Uint64()) | 1
		model[h]++
		tab.Touch(h, data, len(data), int64(n))
		tab.Finish(h, VerdictForwarded, -1, int64(n))
		if n%check != 0 {
			continue
		}
		for _, r := range s.Records(0) {
			if r.Seq <= seq {
				continue // read at an earlier checkpoint
			}
			if r.Seq != seq+1 {
				t.Fatalf("at %d: seq %d follows %d", n, r.Seq, seq)
			}
			seq = r.Seq
			recPkts += r.Packets
			byReason[r.Reason]++
			evicted[hashOf(t, r.Hash)] += r.Packets
		}
		got := map[uint64]uint64{}
		for h, c := range evicted {
			got[h] = c
		}
		var livePkts uint64
		for _, r := range s.Dump(0) {
			livePkts += r.Packets
			got[hashOf(t, r.Hash)] += r.Packets
		}
		if livePkts+recPkts != uint64(n) || recPkts != s.RecordPackets() || seq != s.RecordCount() {
			t.Fatalf("at %d: live %d + records %d (counters: %d packets, %d records, last seq %d) != touched",
				n, livePkts, recPkts, s.RecordPackets(), s.RecordCount(), seq)
		}
		if !reflect.DeepEqual(got, model) {
			t.Fatalf("at %d: per-flow live+evicted counts diverge from the model", n)
		}
		for _, reason := range []string{"clash", "idle"} {
			if m := metric(reason); m != byReason[reason] || m == 0 {
				t.Fatalf("at %d: evictions_total{%s} = %d, records of that reason = %d (want equal, non-zero)", n, reason, m, byReason[reason])
			}
		}
	}
}

func hashOf(t *testing.T, s string) uint64 {
	t.Helper()
	h, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	return h
}
