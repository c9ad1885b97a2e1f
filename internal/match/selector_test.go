package match

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"sync"
	"testing"
)

// selGroupKey is group g as an n-byte group key. Wide keys carry a byte
// beyond the word, so only the bytes tell their groups apart.
func selGroupKey(n, g int) []byte {
	k := make([]byte, n)
	binary.BigEndian.PutUint16(k[n-2:], uint16(g))
	if n > 8 {
		k[0] = 0xab
	}
	return k
}

// TestSelectorWordIndex holds the selector's word pick to its byte pick.
// While one writer inserts and deletes members, byte and word picks run
// beside it (under -race), and every member they return must be one its
// group has held. Once the writer is done, both picks must agree with the
// writer's record on every group and hash: for groups that fit a word, and
// for wide ones, where the word pick always misses.
func TestSelectorWordIndex(t *testing.T) {
	const groups, rounds = 64, 12
	for _, n := range []int{2, 8, 12} {
		e := newSelector(8*n, 0)
		// A member's Params name its group and its round; ActionID is the
		// round plus one.
		check := func(g int, r *Result) {
			if len(r.Params) != 2 || r.Params[0] != uint64(g) || r.Params[1] >= rounds || r.ActionID != int(r.Params[1])+1 {
				t.Errorf("%d-byte group %d: torn or foreign member %+v", n, g, *r)
			}
		}
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for h := uint64(r); ; h += 2 {
					select {
					case <-stop:
						return
					default:
					}
					g := int(h*7) % groups
					key := selGroupKey(n, g)
					if res, ok := e.LookupMember(key, h); ok {
						check(g, &res)
					}
					if res := e.LookupMemberWord(KeyWord(key), h); res != nil {
						check(g, res)
					}
				}
			}(r)
		}
		// Round m adds member m to every group; every third round then
		// deletes the previous round's member, and the first round's
		// members go half way through, emptying no group.
		kept := make([][]int, groups) // each group's rounds, in insertion order
		handle := make([][rounds]int, groups)
		for m := 0; m < rounds; m++ {
			for g := 0; g < groups; g++ {
				h, err := e.Insert(Entry{Key: selGroupKey(n, g), ActionID: m + 1, Params: []uint64{uint64(g), uint64(m)}})
				if err != nil {
					t.Fatal(err)
				}
				handle[g][m] = h
				kept[g] = append(kept[g], m)
				del := -1
				switch {
				case m%3 == 2:
					del = m - 1
				case m == rounds/2:
					del = 0
				}
				if del < 0 {
					continue
				}
				if err := e.Delete(handle[g][del]); err != nil {
					t.Fatal(err)
				}
				for i, k := range kept[g] {
					if k == del {
						kept[g] = append(kept[g][:i], kept[g][i+1:]...)
						break
					}
				}
			}
		}
		close(stop)
		wg.Wait()
		if got, want := e.Len(), groups*len(kept[0]); got != want {
			t.Fatalf("%d-byte groups: %d members, want %d", n, got, want)
		}
		for g := 0; g < groups; g++ {
			key := selGroupKey(n, g)
			for h := uint64(0); h < uint64(3*len(kept[g])); h++ {
				res, ok := e.LookupMember(key, h)
				if !ok || res.Params[0] != uint64(g) || res.Params[1] != uint64(kept[g][h%uint64(len(kept[g]))]) {
					t.Fatalf("%d-byte group %d hash %d: %+v,%v, want round %d", n, g, h, res, ok, kept[g][h%uint64(len(kept[g]))])
				}
				rw := e.LookupMemberWord(KeyWord(key), h)
				if n > 8 {
					if rw != nil {
						t.Fatalf("%d-byte group %d: word pick hit %+v", n, g, *rw)
					}
					continue
				}
				if rw == nil || rw.ActionID != res.ActionID || rw.EntryHandle != res.EntryHandle || rw.Params[1] != res.Params[1] {
					t.Fatalf("%d-byte group %d hash %d: word %+v, bytes %+v", n, g, h, rw, res)
				}
			}
			// A key of another length is no group, even with the same word.
			for _, k := range [][]byte{append([]byte{0}, key...), key[1:]} {
				if res, ok := e.LookupMember(k, 0); ok {
					t.Fatalf("%d-byte group %d: %d-byte key hit %+v", n, g, len(k), res)
				}
			}
		}
		if _, ok := e.LookupMember(selGroupKey(n, groups), 0); ok {
			t.Fatalf("%d-byte groups: unknown group hit", n)
		}
	}
}

// selFuzzWidths are the group widths FuzzSelector runs at: a byte
// multiple, the widest word, and a wide group.
var selFuzzWidths = []int{16, 64, 96}

// selModelMember is one member as the model keeps it.
type selModelMember struct {
	handle, action int
}

// FuzzSelector holds the engine to a map of slices. The first byte picks
// the group width and a capacity in members (none, or 4, 8 or 12); the
// rest is three-byte ops over eight groups: insert, delete (a live member,
// or a handle already deleted, which must be refused), or pick. Handles,
// ErrFull, picks by bytes and by word, Len and Entries must agree.
func FuzzSelector(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for cfg := 0; cfg < 12; cfg++ {
		ops := make([]byte, 3*64)
		rng.Read(ops)
		f.Add(append([]byte{byte(cfg)}, ops...))
	}
	// Two members of group 7, the first deleted, then deleted again, then
	// a pick.
	f.Add([]byte{0, 0, 7, 0, 0, 7, 0, 1, 0, 0, 1, 0, 4, 2, 7, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 3000 {
			data = data[:3000]
		}
		width, capacity := selFuzzWidths[int(data[0])%3], 4*(int(data[0])/3%4)
		n := (width + 7) / 8
		e := newSelector(width, capacity)
		model := map[int][]selModelMember{}
		groupOf := map[int]int{} // live handle -> group
		var live, dead []int
		pick := func(g int, h uint64) {
			key := selGroupKey(n, g)
			ms := model[g]
			r, ok := e.LookupMember(key, h)
			rw := e.LookupMemberWord(KeyWord(key), h)
			r0, ok0 := e.Lookup(key)
			if len(ms) == 0 {
				if ok || rw != nil || ok0 {
					t.Fatalf("empty group %d picked %+v / %v / %+v", g, r, rw, r0)
				}
				return
			}
			want := ms[h%uint64(len(ms))]
			if !ok || r.EntryHandle != want.handle || r.ActionID != want.action || len(r.Params) != 1 || r.Params[0] != uint64(g) {
				t.Fatalf("group %d hash %d: %+v,%v, want %+v", g, h, r, ok, want)
			}
			if width > 64 {
				if rw != nil {
					t.Fatalf("wide group %d: word pick hit %+v", g, *rw)
				}
			} else if rw == nil || rw.EntryHandle != r.EntryHandle {
				t.Fatalf("group %d hash %d: word pick %v, byte pick %+v", g, h, rw, r)
			}
			if !ok0 || r0.EntryHandle != ms[0].handle {
				t.Fatalf("group %d: Lookup %+v,%v, want the oldest member %+v", g, r0, ok0, ms[0])
			}
		}
		for i := 1; i+2 < len(data); i += 3 {
			op, a, b := data[i]%3, data[i+1], data[i+2]
			g := int(a % 8)
			switch op {
			case 0:
				h, err := e.Insert(Entry{Key: selGroupKey(n, g), ActionID: i, Params: []uint64{uint64(g)}})
				if capacity > 0 && len(live) == capacity {
					if !errors.Is(err, ErrFull) {
						t.Fatalf("insert past %d members: %v", capacity, err)
					}
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				if _, dup := groupOf[h]; dup {
					t.Fatalf("handle %d handed out twice", h)
				}
				model[g] = append(model[g], selModelMember{handle: h, action: i})
				groupOf[h] = g
				live = append(live, h)
			case 1:
				if b%4 == 0 && len(dead) > 0 {
					if h := dead[int(a)%len(dead)]; !errors.Is(e.Delete(h), ErrNoEntry) {
						t.Fatalf("stale handle %d deleted", h)
					}
					continue
				}
				if len(live) == 0 {
					if !errors.Is(e.Delete(int(a)), ErrNoEntry) {
						t.Fatalf("never-issued handle %d deleted", a)
					}
					continue
				}
				j := int(a) % len(live)
				h := live[j]
				if err := e.Delete(h); err != nil {
					t.Fatal(err)
				}
				if !errors.Is(e.Delete(h), ErrNoEntry) {
					t.Fatalf("handle %d deleted twice", h)
				}
				live = append(live[:j], live[j+1:]...)
				dead = append(dead, h)
				mg := groupOf[h]
				delete(groupOf, h)
				for k, m := range model[mg] {
					if m.handle == h {
						model[mg] = append(model[mg][:k:k], model[mg][k+1:]...)
						break
					}
				}
				g = mg
			}
			pick(g, uint64(a)<<8|uint64(b))
			if e.Len() != len(live) {
				t.Fatalf("Len %d, model holds %d", e.Len(), len(live))
			}
		}
		ents := e.Entries()
		if len(ents) != len(live) {
			t.Fatalf("Entries: %d, model holds %d", len(ents), len(live))
		}
		for i, ent := range ents {
			g, ok := groupOf[ent.Handle]
			if !ok || string(ent.Key) != string(selGroupKey(n, g)) || ent.Params[0] != uint64(g) {
				t.Fatalf("Entries[%d] = %+v, not a live member of its group", i, ent)
			}
			if i > 0 && ents[i-1].Handle >= ent.Handle {
				t.Fatalf("Entries not sorted by handle at %d", i)
			}
		}
	})
}

// TestSelectorInsertAllocsFlat pins that a member insert costs the same
// allocations in an engine holding 1k groups as in one holding 64k: only
// the member's own group is copied. Every insert adds a second member to
// one of the first 500 groups, so both engines copy the same group sizes.
func TestSelectorInsertAllocsFlat(t *testing.T) {
	allocs := func(groups int) float64 {
		e := newSelector(32, 0)
		for g := 0; g < groups; g++ {
			if _, err := e.Insert(Entry{Key: key32(uint32(g)), ActionID: 1, Params: []uint64{1}}); err != nil {
				t.Fatal(err)
			}
		}
		next := uint32(0)
		return testing.AllocsPerRun(500, func() {
			if _, err := e.Insert(Entry{Key: key32(next), ActionID: 1, Params: []uint64{2}}); err != nil {
				t.Fatal(err)
			}
			next++
		})
	}
	if small, large := allocs(1<<10), allocs(1<<16); small != large {
		t.Errorf("allocations per member insert: %v at 1k groups, %v at 64k", small, large)
	}
}

// BenchmarkSelectorInsert is one member insert into a table of 1k or 64k
// groups of one member each. In both the inserts go round the first 1k
// groups, whose members are deleted off the clock after every lap, so
// every insert copies a one-member group from the same working set, and
// what differs is only how many groups the table holds.
func BenchmarkSelectorInsert(b *testing.B) {
	const lap = 1 << 10
	for _, sz := range benchSizes[:2] {
		b.Run(sz.name, func(b *testing.B) {
			keys := make([][]byte, sz.n)
			e := newSelector(32, 0)
			for g := range keys {
				keys[g] = key32(uint32(g))
				if _, err := e.Insert(Entry{Key: keys[g], ActionID: 1, Params: []uint64{1}}); err != nil {
					b.Fatal(err)
				}
			}
			params := []uint64{2}
			handles := make([]int, 0, lap)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h, err := e.Insert(Entry{Key: keys[i%lap], ActionID: 2, Params: params})
				if err != nil {
					b.Fatal(err)
				}
				if handles = append(handles, h); len(handles) == lap {
					b.StopTimer()
					for _, h := range handles {
						if err := e.Delete(h); err != nil {
							b.Fatal(err)
						}
					}
					handles = handles[:0]
					b.StartTimer()
				}
			}
		})
	}
}
