package match

import (
	"math/rand"
	"runtime"
	"testing"
)

func fibEntries(n int) []Entry {
	rng := rand.New(rand.NewSource(3))
	out := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		plen := 8 + rng.Intn(25) // 8..32, FIB-like
		addr := rng.Uint32()
		if plen < 32 {
			addr &= ^uint32(0) << uint(32-plen)
		}
		out = append(out, Entry{Key: key32(addr), PrefixLen: plen, ActionID: i + 1})
	}
	return out
}

// lpmShape is one FIB the LPM benchmarks load, with the keys they probe.
type lpmShape struct {
	name    string
	width   int
	entries []Entry
	probes  [][]byte
}

// lpmShapes are the three FIBs the engine is measured on: the 8000
// consecutive /24s of the benchmark's rtc_bigtable workload, probed
// inside them; 100k random /8–/32 routes, probed at random addresses;
// and 20k sparse IPv6 /32–/64 prefixes, probed inside random prefixes.
func lpmShapes() []lpmShape {
	rng := rand.New(rand.NewSource(4))
	host := lpmShape{name: "host24_8k", width: 32}
	for i := 0; i < 8000; i++ {
		host.entries = append(host.entries, Entry{Key: key32(0x0D000000 + uint32(i)<<8), PrefixLen: 24, ActionID: i + 1, Params: []uint64{1}})
	}
	fib := lpmShape{name: "fib_100k", width: 32, entries: fibEntries(100000)}
	v6 := lpmShape{name: "v6_20k", width: 128}
	for i := 0; i < 20000; i++ {
		key := make([]byte, 16)
		rng.Read(key[:8])
		plen := 32 + rng.Intn(33)
		v6.entries = append(v6.entries, Entry{Key: key, PrefixLen: plen, ActionID: i + 1, Params: []uint64{1}})
	}
	for i := 0; i < 4096; i++ {
		host.probes = append(host.probes, key32(0x0D000000+uint32(rng.Intn(8000))<<8|uint32(rng.Intn(256))))
		fib.probes = append(fib.probes, key32(rng.Uint32()))
		p := append([]byte(nil), v6.entries[rng.Intn(len(v6.entries))].Key...)
		rng.Read(p[8:])
		v6.probes = append(v6.probes, p)
	}
	return []lpmShape{host, fib, v6}
}

var lpmSink bool

func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// load builds an engine holding s.
func (s *lpmShape) load(b *testing.B) Engine {
	e, err := New(LPM, s.width, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, ent := range s.entries {
		if _, err := e.Insert(ent); err != nil {
			b.Fatal(err)
		}
	}
	return e
}

// BenchmarkLPMLookup is one byte-keyed lookup per op on each shape. It
// reports the heap the loaded engine occupies per entry as B/entry.
func BenchmarkLPMLookup(b *testing.B) {
	for _, s := range lpmShapes() {
		b.Run(s.name, func(b *testing.B) {
			before := heapInUse()
			e := s.load(b)
			perEntry := float64(heapInUse()-before) / float64(len(s.entries))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, lpmSink = e.Lookup(s.probes[i%len(s.probes)])
			}
			b.ReportMetric(perEntry, "B/entry")
		})
	}
}

// BenchmarkLPMInsert is one new prefix per op, into an engine that grows
// to the whole shape and then starts over.
func BenchmarkLPMInsert(b *testing.B) {
	for _, s := range lpmShapes() {
		b.Run(s.name, func(b *testing.B) {
			var e Engine
			for i := 0; i < b.N; i++ {
				if i%len(s.entries) == 0 {
					b.StopTimer()
					e, _ = New(LPM, s.width, 0)
					b.StartTimer()
				}
				if _, err := e.Insert(s.entries[i%len(s.entries)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLPMLoad100k loads the whole 100k-route FIB per op.
func BenchmarkLPMLoad100k(b *testing.B) {
	s := lpmShapes()[1]
	for i := 0; i < b.N; i++ {
		s.load(b)
	}
}
