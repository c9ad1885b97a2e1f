package match

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
)

// benchSizes are the table sizes the exact-match benchmarks sweep: cache
// resident, past L2, and far past it.
var benchSizes = []struct {
	name string
	n    int
}{{"1k", 1 << 10}, {"64k", 1 << 16}, {"1M", 1 << 20}}

// hostKey is a 40-bit ipv4_host-shaped key: the low 32 bits walk a
// permutation of the address space so neighbours do not share a bucket by
// construction.
func hostKey(i int) []byte {
	v := uint32(i) * 2654435761
	return []byte{byte(i >> 20), byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

func loadExact(tb testing.TB, n int) Engine {
	e, err := New(Exact, 40, 0)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := e.Insert(Entry{Key: hostKey(i), ActionID: 1, Params: []uint64{uint64(i)}}); err != nil {
			tb.Fatal(err)
		}
	}
	return e
}

var benchSink uint64

// BenchmarkExactInsert is the mean cost of one insert while a table is
// loaded from empty to n entries, the shape of a bulk load.
func BenchmarkExactInsert(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(sz.name, func(b *testing.B) {
			keys := make([][]byte, sz.n)
			for i := range keys {
				keys[i] = hostKey(i)
			}
			params := []uint64{7}
			var e Engine
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%sz.n == 0 {
					b.StopTimer()
					e, _ = New(Exact, 40, 0)
					b.StartTimer()
				}
				if _, err := e.Insert(Entry{Key: keys[i%sz.n], ActionID: 1, Params: params}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExactLoad loads a table of n entries per op and reports the
// heap the loaded engine occupies per entry as B/entry, the way
// BenchmarkLPMLookup does: 8k is the size of rtc_bigtable's exact tables,
// 1M the top of the table-size curve. One op at 1M is a million inserts;
// run it with a small -benchtime Nx.
func BenchmarkExactLoad(b *testing.B) {
	for _, sz := range []struct {
		name string
		n    int
	}{{"8k", 1 << 13}, {"64k", 1 << 16}, {"1M", 1 << 20}} {
		b.Run(sz.name, func(b *testing.B) {
			var perEntry float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				before := heapInUse()
				b.StartTimer()
				e := loadExact(b, sz.n)
				b.StopTimer()
				perEntry = float64(heapInUse()-before) / float64(sz.n)
				runtime.KeepAlive(e)
				b.StartTimer()
			}
			b.ReportMetric(perEntry, "B/entry")
		})
	}
}

// BenchmarkExactLookup probes installed (hit) and absent (miss) keys in
// random order.
func BenchmarkExactLookup(b *testing.B) {
	const probes = 1 << 16
	for _, sz := range benchSizes {
		e := loadExact(b, sz.n)
		rng := rand.New(rand.NewSource(5))
		hit, miss := make([][]byte, probes), make([][]byte, probes)
		for i := range hit {
			hit[i] = hostKey(rng.Intn(sz.n))
			miss[i] = hostKey(sz.n + rng.Intn(sz.n))
		}
		run := func(name string, keys [][]byte, want bool) {
			b.Run(name+"/"+sz.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					r, ok := e.Lookup(keys[i%probes])
					if ok != want {
						b.Fatalf("lookup %x: hit=%v", keys[i%probes], ok)
					}
					benchSink += uint64(r.ActionID)
				}
			})
		}
		run("hit", hit, true)
		run("miss", miss, false)
	}
}

// BenchmarkExactChurn times lookups of a stable key set on one goroutine
// while another inserts and deletes as fast as the engine lets it, at
// 4096 live entries (the reconfig_storm shape). Allocations under
// -benchmem are the writer's: it shares the process.
func BenchmarkExactChurn(b *testing.B) {
	const live = 4096
	e := loadExact(b, live)
	var stop atomic.Bool
	var writes atomic.Uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		params := []uint64{7}
		var handles [32]int
		for i := live; !stop.Load(); i += len(handles) {
			for j := range handles {
				h, err := e.Insert(Entry{Key: hostKey(i + j), ActionID: 1, Params: params})
				if err != nil {
					b.Error(err)
					return
				}
				handles[j] = h
			}
			for _, h := range handles {
				if err := e.Delete(h); err != nil {
					b.Error(err)
					return
				}
			}
			writes.Add(2 * uint64(len(handles)))
		}
	}()
	keys := make([][]byte, live)
	for i := range keys {
		keys[i] = hostKey(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := e.Lookup(keys[i%live]); !ok {
			b.Fatalf("stable key %x missed", keys[i%live])
		}
	}
	b.StopTimer()
	stop.Store(true)
	<-done
	b.ReportMetric(float64(writes.Load())/b.Elapsed().Seconds(), "writes/s")
}
