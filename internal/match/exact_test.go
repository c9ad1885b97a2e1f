package match

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// keyN spreads id over an nbytes-wide key: 5 bytes is the word path
// (ipv4_host is 40 bits), 16 the wide one.
func keyN(nbytes int, id uint64) []byte {
	k := make([]byte, 16)
	binary.BigEndian.PutUint64(k[8:], id*0x9E3779B97F4A7C15)
	binary.BigEndian.PutUint64(k[:8], id)
	if nbytes < 16 {
		return k[16-nbytes:]
	}
	return k
}

// bitsKey is id as a width-bit key: (width+7)/8 big-endian bytes, the tail
// padding of a width that is not a byte multiple zero — the layout BuildKey
// produces and KeyWord folds. Distinct ids below 2^width give distinct keys.
func bitsKey(width int, id uint64) []byte {
	nbytes := (width + 7) / 8
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], id<<uint(64-width))
	return append([]byte(nil), b[:nbytes]...)
}

// wordWidths are the key widths the word probe is held to the byte probe
// at: one bit, byte multiples, and widths that leave tail padding.
var wordWidths = []int{1, 7, 8, 12, 33, 48, 63, 64}

// TestExactAgainstMap drives random insert / replace / delete / re-insert
// sequences against a plain map, across several grow and tombstone-purge
// boundaries, on the word and the wide key path, and then on the word
// path at every width of wordWidths. Wherever Lookup is asked, LookupWord
// is asked too and must give the same answer.
func TestExactAgainstMap(t *testing.T) {
	for _, nbytes := range []int{5, 16} {
		exactAgainstMap(t, 8*nbytes, 4096, func(id uint64) []byte { return keyN(nbytes, id) })
	}
	for _, width := range wordWidths {
		keySpace := uint64(4096)
		if width < 12 {
			keySpace = 1 << uint(width)
		}
		exactAgainstMap(t, width, int(keySpace), func(id uint64) []byte {
			if width > 12 { // spread the ids over the whole width
				id = id*0x9E3779B97F4A7C15>>uint(64-width)&^4095 | id
			}
			return bitsKey(width, id)
		})
	}
}

func exactAgainstMap(t *testing.T, width, keySpace int, keyOf func(id uint64) []byte) {
	type want struct {
		handle, action int
		param          uint64
	}
	capacity := keySpace * 3000 / 4096
	rng := rand.New(rand.NewSource(int64(width / 8)))
	eng, _ := New(Exact, width, capacity)
	e := eng.(*exactEngine)
	oracle := map[uint64]want{}
	byHandle := map[int]uint64{}
	check := func(id uint64) {
		t.Helper()
		r, ok := e.Lookup(keyOf(id))
		w, in := oracle[id]
		if ok != in || ok && (r.ActionID != w.action || r.EntryHandle != w.handle || len(r.Params) != 1 || r.Params[0] != w.param) {
			t.Fatalf("%d-bit key %d: lookup %+v,%v want %+v,%v", width, id, r, ok, w, in)
		}
		// The word probe answers as the byte probe does; on a wide
		// engine a word cannot name a key, so it always misses.
		rw := e.LookupWord(KeyWord(keyOf(id)))
		if width > 64 {
			if rw != nil {
				t.Fatalf("%d-bit key %d: word probe hit %+v", width, id, *rw)
			}
		} else if (rw != nil) != ok || ok && (rw.ActionID != r.ActionID || rw.EntryHandle != r.EntryHandle || len(rw.Params) != 1 || rw.Params[0] != r.Params[0]) {
			t.Fatalf("%d-bit key %d: word probe %+v, byte probe %+v,%v", width, id, rw, r, ok)
		}
		// Key length takes part in the match: the same word one byte
		// shorter (id 0 is all zeros) or longer is another key.
		key := keyOf(id)
		for _, k := range [][]byte{key[1:], append([]byte{0}, key...)} {
			if r, ok := e.Lookup(k); ok {
				t.Fatalf("%d-bit key %d: %d-byte lookup hit %+v", width, id, len(k), r)
			}
		}
	}
	for op := 0; op < 60000; op++ {
		id := uint64(rng.Intn(keySpace))
		// Phases fill to capacity, drain to a handful and fill again,
		// so the array both doubles and is rebuilt for its tombstones.
		if del := []int{20, 80, 35}[op/20000]; rng.Intn(100) < del {
			w, in := oracle[id]
			if !in {
				continue
			}
			if err := e.Delete(w.handle); err != nil {
				t.Fatal(err)
			}
			if err := e.Delete(w.handle); !errors.Is(err, ErrNoEntry) {
				t.Fatalf("double delete: %v", err)
			}
			delete(oracle, id)
			delete(byHandle, w.handle)
		} else {
			w, in := oracle[id]
			nw := want{action: op + 1, param: uint64(op)}
			h, err := e.Insert(Entry{Key: keyOf(id), ActionID: nw.action, Params: []uint64{nw.param}})
			switch {
			case !in && len(oracle) == capacity:
				if !errors.Is(err, ErrFull) {
					t.Fatalf("insert past capacity: %v", err)
				}
				continue
			case err != nil:
				t.Fatal(err)
			case in && h != w.handle:
				t.Fatalf("replace moved handle %d to %d", w.handle, h)
			case !in:
				if prev, dup := byHandle[h]; dup {
					t.Fatalf("handle %d given to key %d and key %d", h, prev, id)
				}
			}
			nw.handle = h
			oracle[id] = nw
			byHandle[h] = id
		}
		check(id)
		check(uint64(rng.Intn(keySpace)))
		if e.Len() != len(oracle) {
			t.Fatalf("Len = %d, oracle holds %d", e.Len(), len(oracle))
		}
		if op%5000 != 4999 {
			continue
		}
		ents := e.Entries()
		if len(ents) != len(oracle) {
			t.Fatalf("Entries: %d, oracle holds %d", len(ents), len(oracle))
		}
		for i, ent := range ents {
			id, ok := byHandle[ent.Handle]
			if !ok || !bytes.Equal(ent.Key, keyOf(id)) || ent.ActionID != oracle[id].action || ent.Params[0] != oracle[id].param {
				t.Fatalf("Entries[%d] = %+v, oracle key %d %+v", i, ent, id, oracle[id])
			}
			if i > 0 && ents[i-1].Handle >= ent.Handle {
				t.Fatalf("Entries not sorted by handle at %d", i)
			}
		}
	}
	if keySpace == 4096 && e.rebuilds < 10 {
		t.Errorf("%d-bit keys: only %d rebuilds, the sequence was meant to cross more", width, e.rebuilds)
	}
}

// TestExactRebuildBounds states the old O(n^2) bulk-load cliff as a count:
// loading n entries rebuilds the slot array O(log n) times, and churn at a
// steady size rebuilds it (to purge tombstones) at most once per 1024 ops.
func TestExactRebuildBounds(t *testing.T) {
	const n = 8000
	e := loadExact(t, n).(*exactEngine)
	if max := bits.Len(n) + 1; e.rebuilds > max { // bits.Len(n)-1 = floor(log2 n)
		t.Errorf("loading %d entries: %d rebuilds, want <= %d", n, e.rebuilds, max)
	}
	const live, rounds = 4096, 256
	e = loadExact(t, live).(*exactEngine)
	before := e.rebuilds
	var handles [32]int
	for r := 0; r < rounds; r++ {
		for j := range handles {
			h, err := e.Insert(Entry{Key: hostKey(live + r*len(handles) + j), ActionID: 1})
			if err != nil {
				t.Fatal(err)
			}
			handles[j] = h
		}
		for _, h := range handles {
			if err := e.Delete(h); err != nil {
				t.Fatal(err)
			}
		}
	}
	ops := 2 * rounds * len(handles)
	if got := e.rebuilds - before; got == 0 || got > ops/1024 {
		t.Errorf("%d churn ops at %d live entries: %d rebuilds, want 1..%d", ops, live, got, ops/1024)
	}
	if e.Len() != live {
		t.Errorf("Len = %d after churn, want %d", e.Len(), live)
	}
}

// TestExactLinearizable runs lock-free readers against a write storm that
// crosses doublings and tombstone purges (run it under -race). Stable keys
// are never written and must hit on every probe. Each storm key has one
// writer that numbers its operations: op v installs an entry with
// ActionID v and Params {key, v}, except that every fourth op deletes.
// A reader brackets its lookup with the last op finished before it and
// the last op started by its end; the result must be the state some op
// in that bracket leaves, and never torn or another key's entry. Half the
// readers probe by bytes, half by word, reading through the *Result the
// word probe returns while the writers replace and delete under it.
func TestExactLinearizable(t *testing.T) {
	const (
		stable, storm = 512, 64
		writers       = 2
		opsPerKey     = 400
		filler        = 3000 // inserted and deleted each round to force rebuilds
	)
	isDelete := func(v int64) bool { return v%4 == 0 } // so is op 0: never inserted
	eng, _ := New(Exact, 40, 0)
	e := eng.(*exactEngine)
	for i := 0; i < stable; i++ {
		if _, err := e.Insert(Entry{Key: hostKey(i), ActionID: 1, Params: []uint64{uint64(i), 1}}); err != nil {
			t.Fatal(err)
		}
	}
	var started, finished [storm]atomic.Int64
	var stop atomic.Bool
	var wg, rg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var handle [storm]int
			fill := make([]int, 0, filler)
			for v := int64(1); v <= opsPerKey; v++ {
				for k := w; k < storm; k += writers {
					started[k].Store(v)
					var err error
					if isDelete(v) {
						err = e.Delete(handle[k])
					} else {
						handle[k], err = e.Insert(Entry{Key: hostKey(stable + k), ActionID: int(v), Params: []uint64{uint64(stable + k), uint64(v)}})
					}
					if err != nil {
						t.Error(err)
						return
					}
					finished[k].Store(v)
				}
				if v%50 != 0 {
					continue
				}
				base := stable + storm + w*filler
				for i := 0; i < filler; i++ {
					h, err := e.Insert(Entry{Key: hostKey(base + i), ActionID: 1, Params: []uint64{uint64(base + i), 1}})
					if err != nil {
						t.Error(err)
						return
					}
					fill = append(fill, h)
				}
				for _, h := range fill {
					if err := e.Delete(h); err != nil {
						t.Error(err)
						return
					}
				}
				fill = fill[:0]
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		rg.Add(1)
		go func(seed int64, byWord bool) {
			defer rg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				i := rng.Intn(stable + storm)
				var lo int64
				if i >= stable {
					lo = finished[i-stable].Load()
				}
				var res Result
				var ok bool
				if byWord {
					if rw := e.LookupWord(KeyWord(hostKey(i))); rw != nil {
						res, ok = *rw, true
					}
				} else {
					res, ok = e.Lookup(hostKey(i))
				}
				if ok && (len(res.Params) != 2 || res.Params[0] != uint64(i) || res.Params[1] != uint64(res.ActionID)) {
					t.Errorf("key %d: torn or foreign entry %+v", i, res)
					return
				}
				if i < stable {
					if !ok {
						t.Errorf("stable key %d missed", i)
						return
					}
					continue
				}
				hi := started[i-stable].Load()
				if ok {
					if v := int64(res.ActionID); v < lo || v > hi {
						t.Errorf("storm key %d: saw op %d outside [%d,%d]", i, v, lo, hi)
						return
					}
					continue
				}
				explained := false
				for v := lo; v <= hi && !explained; v++ {
					explained = isDelete(v)
				}
				if !explained {
					t.Errorf("storm key %d: miss with no delete among ops [%d,%d]", i, lo, hi)
					return
				}
			}
		}(int64(r), r >= 2)
	}
	wg.Wait()
	stop.Store(true)
	rg.Wait()
	if e.rebuilds < 10 {
		t.Errorf("only %d rebuilds under the storm", e.rebuilds)
	}
	if e.Len() != stable {
		t.Errorf("Len = %d after the storm, want %d", e.Len(), stable) // opsPerKey%4 == 0: every storm key ends deleted
	}
}
